"""Binary container plumbing: CRC-32C, little-endian primitives, DEFLATE.

All on-disk formats in this package share the same skeleton: 4-byte magic,
u16 version, format-specific body, trailing CRC-32C over every preceding
byte. Readers fail with FormatError carrying the byte offset of the first
inconsistency; they never return partially parsed objects. A compressed
section is read through an InflatingReader, which inflates only the bytes
its reads take, so what a section's own header implies bounds how much a
stream inflates, and a stream longer or shorter than that is a FormatError.

CRC-32C has two kernels with identical results. The byte-at-a-time table
loop is the reference and serves inputs under 4 bytes. Every longer input
is cut into 256-byte blocks: a 256x256 position table maps a byte value at
each position of a block to the raw register that byte alone leaves, so
one gather and one XOR reduce give the register of every block. One pass
then folds the block registers front to back: the running register is
shifted over one block of zero bytes by four rows of the same table (zlib's
`crc32_combine` step for a fixed length) and XORed with the next block's
register, so the cost per byte is one vectorised table lookup instead of
an interpreted loop iteration.
"""

from __future__ import annotations

import struct
import sys
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
_BLOCK = 256  # bytes per block
# Blocks per gather: bounds its intp index array at 128 KiB for any input.
_GATHER_BLOCKS = 64
# Where each block position's row starts in a flattened position table.
_ROW_STARTS = np.arange(_BLOCK, dtype=np.intp) << 8


def _crc32c_bytewise(data: bytes) -> int:
    """The byte-at-a-time table loop: the reference crc32c must equal."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32C_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _build_positions() -> np.ndarray:
    """The position table, flattened: row p, column v holds the raw register
    a block leaves (from a zero register) when its only nonzero byte is v,
    at position p.

    A raw register (no pre- or post-inversion) is linear over GF(2) in the
    bytes it runs over, so a block's register is the XOR of its bytes' rows.
    """
    table = np.array(_CRC32C_TABLE, dtype=np.uint32)
    rows = np.empty((_BLOCK, 256), dtype=np.uint32)
    rows[-1] = table  # the last position: one table step
    for p in range(_BLOCK - 2, -1, -1):
        rows[p] = (rows[p + 1] >> 8) ^ table[rows[p + 1] & 0xFF]  # one zero byte more after it
    return rows.reshape(-1)


_POSITIONS = _build_positions()
# Running register r over a block of zero bytes is running a zero register
# over a block that starts with r's four little-endian bytes: rows 0-3.
_SHIFT = _POSITIONS[: 4 * 256].reshape(4, 256).tolist()


def _fold(reg: int, blocks: np.ndarray) -> int:
    """The raw register reg run on over blocks, rows of _BLOCK uint8 bytes."""
    s0, s1, s2, s3 = _SHIFT
    for block in np.bitwise_xor.reduce(_POSITIONS[blocks + _ROW_STARTS], axis=-1).tolist():
        reg = s0[reg & 0xFF] ^ s1[(reg >> 8) & 0xFF] ^ s2[(reg >> 16) & 0xFF] ^ s3[reg >> 24] ^ block
    return reg


def crc32c(data: bytes | bytearray | memoryview) -> int:
    """CRC-32C (Castagnoli). crc32c(b"123456789") == 0xE3069283.

    Inputs of 4 bytes or more run in 256-byte blocks: the initial register
    is XORed into the data's first 4 bytes, and zero bytes pad the front to
    whole blocks, which leaves the result as it was since a zero register
    stays zero over zero bytes. Only the unaligned head is copied, into at
    most two blocks. Each block's register comes from the position table,
    _GATHER_BLOCKS blocks per gather, and the registers fold front to back.
    The result is identical to the byte loop, which stays the reference.
    """
    n = len(data)
    if n < 4:
        return _crc32c_bytewise(data)
    data = np.frombuffer(data, dtype=np.uint8)
    head = n % _BLOCK or _BLOCK
    if head < 4:  # 1-3 data bytes cannot take the register's 4: lead with two blocks
        head += _BLOCK
    lead = np.zeros(-(-head // _BLOCK) * _BLOCK, dtype=np.uint8)
    pad = len(lead) - head
    lead[pad:] = data[:head]
    lead[pad : pad + 4] ^= 0xFF
    reg = _fold(0, lead.reshape(-1, _BLOCK))
    blocks = data[head:].reshape(-1, _BLOCK)
    for start in range(0, len(blocks), _GATHER_BLOCKS):
        reg = _fold(reg, blocks[start : start + _GATHER_BLOCKS])
    return reg ^ 0xFFFFFFFF


def deflate(data: bytes) -> bytes:
    """Raw DEFLATE stream (RFC 1951, no zlib wrapper) at DEFLATE_LEVEL."""
    comp = zlib.compressobj(level=DEFLATE_LEVEL, wbits=-15)
    return comp.compress(data) + comp.flush()


def inflate(decomp, data: bytes, n: int) -> bytes:
    """At most n more bytes (n > 0) of the raw DEFLATE stream that decomp, a
    zlib.decompressobj(wbits=-15), inflates from data, the stream's input
    not yet consumed, which decomp.unconsumed_tail holds after each call.
    Fewer come back only where the stream or its input ends; a corrupt
    stream is a FormatError."""
    try:
        return decomp.decompress(data, min(n, sys.maxsize))  # no stream holds more
    except zlib.error as exc:
        raise FormatError(f"DEFLATE decompression failed: {exc}") from exc


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

    def flag(self, what: str) -> bool:
        """One flag byte, 0 or 1: any other value is a FormatError, so a
        flag has one encoding and a file that reads back writes back the
        same bytes."""
        value = self.u8()
        if value > 1:
            raise FormatError(f"{what} flag byte {value:#04x} is neither 0 nor 1", offset=self.pos - 1)
        return value == 1

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


class InflatingReader(Reader):
    """A Reader over a raw DEFLATE stream (RFC 1951, no zlib wrapper) that
    inflates exactly the bytes each read takes, so no stream is inflated
    past what its reader asks for. Reads run front to back, so nothing
    inflated is kept; expect_end also requires the stream to end there,
    with no input after it."""

    def __init__(self, stream: bytes):
        super().__init__(b"")
        self._input = stream
        self._decomp = zlib.decompressobj(wbits=-15)

    def _take(self, n: int) -> bytes:
        if n < 0:
            raise FormatError(f"negative length {n}", offset=self.pos)
        chunk = self._inflate(n) if n else b""
        if len(chunk) < n:
            raise FormatError(f"truncated: wanted {n} bytes, the stream holds {len(chunk)}", offset=self.pos)
        self.pos += n
        return chunk

    def _inflate(self, n: int) -> bytes:
        chunk = inflate(self._decomp, self._input, n)
        self._input = self._decomp.unconsumed_tail
        return chunk

    def expect_end(self) -> None:
        if self._inflate(1):
            raise FormatError("DEFLATE stream runs past the end of its section", offset=self.pos)
        if not self._decomp.eof:
            raise FormatError("DEFLATE stream is truncated", offset=self.pos)
        if self._decomp.unused_data:
            raise FormatError("trailing garbage after DEFLATE stream", offset=self.pos)


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
