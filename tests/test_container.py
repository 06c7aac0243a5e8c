"""Container plumbing: CRC-32C vectors and kernels, the frame of every
format, primitives, DEFLATE round trip."""

import tracemalloc

import pytest

from conftest import with_fixed_crc
from supersub.container import (
    _BLOCK,
    _GATHER_BLOCKS,
    Reader,
    Writer,
    _crc32c_bytewise,
    crc32c,
    deflate,
    inflate,
    open_container,
    seal,
    stored_checksum,
)
from supersub.data import DATASET_MAGIC, DATASET_VERSION, deserialize_dataset, serialize_dataset
from supersub.delta import DELTA_MAGIC, DELTA_VERSION, MODE_FP16, compute_delta, pack, unpack
from supersub.errors import FormatError
from supersub.network import (
    NETWORK_MAGIC,
    NETWORK_VERSION,
    NetworkConfig,
    deserialize_network,
    init_network,
    serialize_network,
)
from supersub.tensor import Prng

_MAX_LEN = 100_000


def _random_bytes(prng: Prng, n: int) -> bytes:
    return b"".join(prng.next_u64().to_bytes(8, "little") for _ in range(-(-n // 8)))[:n]


@pytest.fixture(scope="module")
def pool():
    return _random_bytes(Prng(0xC3C), _MAX_LEN + 64)


def test_crc32c_check_vector():
    # Canonical CRC-32C test vector.
    assert crc32c(b"123456789") == 0xE3069283


def test_crc32c_empty():
    assert crc32c(b"") == 0


def test_crc32c_lanes_equal_byte_loop_at_every_short_length(pool):
    # Every length to three blocks and a bit: inputs under 4 bytes (the
    # byte loop), a first block of 1-3 data bytes (a two-block zero lead),
    # and whole blocks, among them 1 and 2 (the lead is the first block).
    for n in range(3 * _BLOCK + 9):
        data = pool[n % 61 : n % 61 + n]
        assert crc32c(data) == _crc32c_bytewise(data), n


def test_crc32c_lanes_equal_byte_loop_at_random_lengths(pool):
    prng = Prng(0xB16)
    lengths = [prng.next_u64() % (_MAX_LEN + 1) for _ in range(24)]
    # At and across the end of a gather: a head plus one, one and a bit and
    # two and a bit gathers of blocks, +-1 byte, and a two-block lead
    # (n % _BLOCK in 1..3) before more than one gather of blocks.
    gathers = (_GATHER_BLOCKS, _GATHER_BLOCKS + 1, 2 * _GATHER_BLOCKS + 1)
    lengths += [100 + k * _BLOCK + d for k in gathers for d in (-1, 0, 1)]
    lengths += [(k + 2) * _BLOCK + r for k in gathers[1:] for r in (1, 2, 3)]
    for n in lengths:
        offset = prng.next_u64() % 64
        data = pool[offset : offset + n]
        expected = _crc32c_bytewise(data)
        for view in (data, bytearray(data), memoryview(data)):
            assert crc32c(view) == expected, (n, type(view))


def test_crc32c_memory_stays_bounded_on_a_large_input(pool):
    # The fold keeps one running register, and each gather runs over a
    # bounded number of blocks; gathering all at once would
    # build an index array of 8 bytes per input byte (32 MiB here).
    data = pool[:65536] * 64  # 4 MiB
    expected = crc32c(data)
    tracemalloc.start()
    try:
        assert crc32c(data) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_writer_reader_round_trip():
    w = Writer()
    w.u8(7).u16(513).u32(70000).u64(1 << 40).f32(1.5).text("héllo").blob(b"\x00\x01")
    data = seal(b"TEST", 9, w.body())
    assert data[:6] == b"TEST\x09\x00"
    assert stored_checksum(data) == crc32c(data[:-4])
    r = open_container(data, b"TEST", 9)
    assert r.pos == 6
    assert r.u8() == 7
    assert r.u16() == 513
    assert r.u32() == 70000
    assert r.u64() == 1 << 40
    assert r.f32() == 1.5
    assert r.text() == "héllo"
    assert r.blob() == b"\x00\x01"
    r.expect_end()


def test_corrupted_crc_detected():
    data = seal(b"TEST", 1, Writer().u32(42).body())
    corrupted = data[:-1] + bytes([data[-1] ^ 0xFF])
    with pytest.raises(FormatError):
        open_container(corrupted, b"TEST", 1)


def test_corrupted_body_detected():
    data = seal(b"TEST", 1, Writer().u32(42).u32(43).body())
    corrupted = bytes([data[0] ^ 0x01]) + data[1:]
    with pytest.raises(FormatError):
        open_container(corrupted, b"TEST", 1)


def test_truncation_reports_offset():
    r = Reader(b"\x01\x02")
    with pytest.raises(FormatError) as err:
        r.u32()
    assert err.value.offset == 0
    assert "byte offset 0" in str(err.value)


def test_negative_length_rejected():
    r = Reader(b"\x01\x02")
    with pytest.raises(FormatError) as err:
        r.raw(-1)
    assert err.value.offset == 0


def test_bad_magic_reports_offset():
    data = seal(b"XXXX", 1, b"rest")
    with pytest.raises(FormatError) as err:
        open_container(data, b"HSDS", 1)
    assert err.value.offset == 0


@pytest.fixture(scope="module")
def formats(mini_test):
    """Per format: a file, its reader, magic and version."""
    base = init_network(NetworkConfig((4, 6, 3)), 0)
    specialist = init_network(NetworkConfig((4, 6, 2)), 1)
    return {
        "HSNW": (serialize_network(base), deserialize_network, NETWORK_MAGIC, NETWORK_VERSION),
        "HSDS": (serialize_dataset(mini_test), deserialize_dataset, DATASET_MAGIC, DATASET_VERSION),
        "HSDL": (pack(compute_delta(base, specialist, MODE_FP16)), unpack, DELTA_MAGIC, DELTA_VERSION),
    }


def frame_fault(fault: str, data: bytes, magic: bytes, version: int):
    """data with one fault in its frame, the error that names it and its offset."""
    if fault == "short":
        return data[:3], "shorter than its CRC field", 0
    if fault == "crc":
        return data[:-1] + bytes([data[-1] ^ 0x01]), "checksum mismatch", len(data) - 4
    if fault == "magic":
        return with_fixed_crc(b"XXXX" + data[4:]), "bad magic", 0
    previous = (version - 1).to_bytes(2, "little")
    return with_fixed_crc(magic + previous + data[6:]), "unsupported version", 4


@pytest.mark.parametrize("fault", ["short", "crc", "magic", "version"])
@pytest.mark.parametrize("name", ["HSNW", "HSDS", "HSDL"])
def test_every_format_checks_its_frame(formats, name, fault):
    data, read, magic, version = formats[name]
    assert data[:6] == magic + version.to_bytes(2, "little")
    bad, message, offset = frame_fault(fault, data, magic, version)
    with pytest.raises(FormatError, match=message) as err:
        read(bad)
    assert err.value.offset == offset


def test_invalid_utf8_text_reports_offset():
    data = Writer().u8(0).text("abc").body()
    bad = data[:6] + b"\xff" + data[7:]  # u8, u32 length, "a", then the bad byte
    r = Reader(bad)
    r.u8()
    with pytest.raises(FormatError) as err:
        r.text()
    assert err.value.offset == 6
    assert "UTF-8" in str(err.value)


def test_deflate_round_trip():
    payload = b"abc" * 1000 + bytes(range(256))
    assert inflate(deflate(payload), len(payload)) == payload


def test_inflate_rejects_garbage():
    with pytest.raises(FormatError, match="decompression failed"):
        inflate(b"\xff\xff\xff\xff not a deflate stream", 1)


@pytest.mark.parametrize(
    "cut, message",
    [(lambda s: s + b"GARBAGE", "trailing garbage"), (lambda s: s[:-3], "truncated")],
    ids=["trailing_bytes", "truncated"],
)
def test_inflate_rejects_a_stream_that_does_not_end_at_the_end(cut, message):
    payload = bytes(range(256)) * 4 + b"abc" * 25
    with pytest.raises(FormatError, match=message):
        inflate(cut(deflate(payload)), len(payload))


@pytest.mark.parametrize("size", [-1, 1], ids=["longer", "shorter"])
def test_inflate_rejects_a_stream_of_another_length(size):
    payload = bytes(range(256)) * 4
    with pytest.raises(FormatError, match="runs past" if size < 0 else "ends short"):
        inflate(deflate(payload), len(payload) + size)


def test_inflate_stops_one_byte_past_its_size():
    payload = bytes(range(256)) * 16
    stream = deflate(payload + bytes(16 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="runs past"):
            inflate(stream, len(payload))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_inflate_reaches_deflates_largest_ratio():
    # 16 MiB of zeros deflate about 1,029 to 1, just under the 1,032 that
    # one 258-byte match in 2 bits allows.
    payload = bytes(16 << 20)
    stream = deflate(payload)
    assert 1000 * len(stream) < len(payload) <= 1032 * len(stream)
    assert inflate(stream, len(payload)) == payload


def test_inflate_rejects_a_size_past_deflates_largest_ratio_before_inflating():
    # The stream holds 1 MiB; the check comes first, so none of it inflates.
    stream = deflate(bytes(1 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="cannot hold"):
            inflate(stream, 1032 * len(stream) + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
