"""Binary container plumbing: CRC-32C, little-endian primitives, DEFLATE.

All on-disk formats in this package share the same skeleton: 4-byte magic,
u16 version, format-specific body, trailing CRC-32C over every preceding
byte. Readers fail with FormatError carrying the byte offset of the first
inconsistency; they never return partially parsed objects.

CRC-32C has two kernels with identical results. The byte-at-a-time table
loop is the reference and serves short inputs. Long inputs are cut into
16-byte lanes that numpy steps through the same table together; the lane
registers are then folded pairwise, each earlier half shifted over the
later half's length in zero bytes by a precomputed operator (the
`crc32_combine` construction from zlib), so the cost per byte is a few
vectorised table lookups instead of an interpreted loop iteration.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import FormatError

_CRC32C_POLY = 0x82F63B78
DEFLATE_LEVEL = 9  # zlib's best compression; the packed goldens pin it


def _build_crc32c_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _build_crc32c_table()
_CRC32C_LANE_TABLE = np.array(_CRC32C_TABLE, dtype=np.uint32)
_LANE = 16  # bytes per lane
# Below this many bytes the byte loop beats the lanes' fixed numpy cost.
_LANE_THRESHOLD = 1536
_FOLD_LEVELS = 48  # lane counts up to 2**48


def _crc32c_bytewise(data: bytes, crc: int = 0) -> int:
    """The byte-at-a-time table loop: the reference crc32c must equal."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32C_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _shift(op: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Apply a zero-bytes operator, four 256-entry tables (one per register byte)."""
    return op[0][regs & 0xFF] ^ op[1][(regs >> 8) & 0xFF] ^ op[2][(regs >> 16) & 0xFF] ^ op[3][regs >> 24]


def _build_fold_operators() -> list[np.ndarray]:
    """Operator k advances a raw CRC register over _LANE * 2**k zero bytes.

    A raw register (no pre- or post-inversion) is linear over GF(2) in its
    bits, so an operator is fixed by its image of each byte value in each
    byte position; applying operator k to itself gives operator k + 1.
    """
    op = np.arange(256, dtype=np.uint32) << (8 * np.arange(4, dtype=np.uint32))[:, None]
    for _ in range(_LANE):
        op = (op >> 8) ^ _CRC32C_LANE_TABLE[op & 0xFF]
    ops = [op]
    for _ in range(_FOLD_LEVELS - 1):
        op = _shift(op, op)
        ops.append(op)
    return ops


_FOLD_OPERATORS = _build_fold_operators()


def _crc32c_lanes(data: np.ndarray, register: int) -> int:
    """Advance a raw register over uint8 data whose length is a multiple of _LANE."""
    n = data.size // _LANE
    lanes = data.reshape(n, _LANE).T.copy()  # row j: byte j of every lane
    regs = np.zeros(n, dtype=np.uint32)
    regs[0] = register
    for column in lanes:
        regs = (regs >> 8) ^ _CRC32C_LANE_TABLE[(regs ^ column) & 0xFF]
    # Leading zero registers stand for zero bytes before the data, which
    # leave a zero register at zero, so padding to a power of two is exact.
    width = 1 << (n - 1).bit_length()
    regs = np.concatenate((np.zeros(width - n, dtype=np.uint32), regs))
    for level in range(width.bit_length() - 1):
        regs = _shift(_FOLD_OPERATORS[level], regs[0::2]) ^ regs[1::2]
    return int(regs[0])


def crc32c(data: bytes | bytearray | memoryview, crc: int = 0) -> int:
    """CRC-32C (Castagnoli). crc32c(b"123456789") == 0xE3069283.

    `crc` is the result over earlier bytes, so crc32c(b, crc32c(a)) ==
    crc32c(a + b). Inputs of at least _LANE_THRESHOLD bytes run in 16-byte
    lanes: the unaligned head goes through the byte loop, then every lane
    steps through the table at once from a zero register (the first lane
    from the running one), and adjacent lanes fold pairwise, the earlier
    one shifted over its successor's length in zero bytes. The result is
    identical to the byte loop, which stays the reference.
    """
    if len(data) < _LANE_THRESHOLD:
        return _crc32c_bytewise(data, crc)
    head = len(data) % _LANE
    crc = _crc32c_bytewise(data[:head], crc)
    body = np.frombuffer(data, dtype=np.uint8)[head:]
    return _crc32c_lanes(body, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


def deflate(data: bytes) -> bytes:
    """Raw DEFLATE stream (RFC 1951, no zlib wrapper) at DEFLATE_LEVEL."""
    comp = zlib.compressobj(level=DEFLATE_LEVEL, wbits=-15)
    return comp.compress(data) + comp.flush()


def inflate(data: bytes) -> bytes:
    try:
        decomp = zlib.decompressobj(wbits=-15)
        out = decomp.decompress(data)
        out += decomp.flush()
    except zlib.error as exc:
        raise FormatError(f"DEFLATE decompression failed: {exc}") from exc
    if not decomp.eof:
        raise FormatError("DEFLATE stream is truncated")
    if decomp.unused_data:
        raise FormatError("trailing garbage after DEFLATE stream")
    return out


class Writer:
    """Accumulates little-endian fields; finish() appends the CRC-32C."""

    def __init__(self):
        self._parts: list[bytes] = []

    def raw(self, data: bytes) -> "Writer":
        self._parts.append(data)
        return self

    def u8(self, v: int) -> "Writer":
        return self.raw(struct.pack("<B", v))

    def u16(self, v: int) -> "Writer":
        return self.raw(struct.pack("<H", v))

    def u32(self, v: int) -> "Writer":
        return self.raw(struct.pack("<I", v))

    def u64(self, v: int) -> "Writer":
        return self.raw(struct.pack("<Q", v))

    def f32(self, v: float) -> "Writer":
        return self.raw(struct.pack("<f", v))

    def blob(self, data: bytes) -> "Writer":
        """u32 length prefix followed by the bytes."""
        self.u32(len(data))
        return self.raw(data)

    def text(self, s: str) -> "Writer":
        return self.blob(s.encode("utf-8"))

    def body(self) -> bytes:
        return b"".join(self._parts)

    def finish(self) -> bytes:
        data = self.body()
        return data + struct.pack("<I", crc32c(data))


class Reader:
    """Cursor over container bytes; every read checks remaining length."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if n < 0:
            raise FormatError(f"negative length {n}", offset=self.pos)
        if self.pos + n > len(self.data):
            raise FormatError(
                f"truncated: wanted {n} bytes, {len(self.data) - self.pos} left",
                offset=self.pos,
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f32(self) -> float:
        return struct.unpack("<f", self._take(4))[0]

    def blob(self) -> bytes:
        n = self.u32()
        return self._take(n)

    def text(self) -> str:
        data = self.blob()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"string is not valid UTF-8: {exc.reason}", offset=self.pos - len(data) + exc.start
            ) from exc

    def expect_magic(self, magic: bytes) -> None:
        offset = self.pos
        got = self._take(len(magic))
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}", offset=offset)

    def expect_version(self, version: int) -> None:
        offset = self.pos
        got = self.u16()
        if got != version:
            raise FormatError(f"unsupported version {got}, expected {version}", offset=offset)

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(
                f"{len(self.data) - self.pos} unexpected trailing bytes", offset=self.pos
            )


def check_trailing_crc(data: bytes) -> bytes:
    """Verify the trailing CRC-32C; returns the body without the CRC field."""
    if len(data) < 4:
        raise FormatError("container shorter than its CRC field", offset=0)
    body, stored = data[:-4], struct.unpack("<I", data[-4:])[0]
    actual = crc32c(body)
    if stored != actual:
        raise FormatError(
            f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}",
            offset=len(data) - 4,
        )
    return body
