"""Container plumbing: CRC-32C vectors and kernels, primitives, DEFLATE round trip."""

import tracemalloc

import pytest

from supersub.container import (
    _BLOCK,
    InflatingReader,
    Reader,
    Writer,
    _crc32c_bytewise,
    check_trailing_crc,
    crc32c,
    deflate,
)
from supersub.errors import FormatError
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


def test_crc32c_incremental_equals_one_shot():
    data = bytes(range(256)) * 12
    # Split points on both sides of the 4-byte head, of a block boundary
    # and of a power-of-two block count, for either part.
    splits = (1, 3, 4, 5, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 3, _BLOCK + 4, 4 * _BLOCK - 1, 4 * _BLOCK + 1)
    for split in splits:
        assert crc32c(data) == crc32c(data[split:], crc32c(data[:split])), split


def test_crc32c_lanes_equal_byte_loop_at_every_short_length(pool):
    # Every length to three blocks and a bit: inputs under 4 bytes (the
    # byte loop), a first block of 1-3 data bytes (a two-block zero lead),
    # and whole blocks, among them 1 and 2 (no zero block in front).
    prng = Prng(0x1A4E)
    for n in range(3 * _BLOCK + 9):
        data = pool[n % 61 : n % 61 + n]
        start = prng.next_u64() & 0xFFFFFFFF
        assert crc32c(data, start) == _crc32c_bytewise(data, start), n


def test_crc32c_lanes_equal_byte_loop_at_random_lengths(pool):
    prng = Prng(0xB16)
    for trial in range(24):
        n = prng.next_u64() % (_MAX_LEN + 1)
        offset = prng.next_u64() % 64
        start = 0 if trial % 3 == 0 else prng.next_u64() & 0xFFFFFFFF
        data = pool[offset : offset + n]
        expected = _crc32c_bytewise(data, start)
        for view in (data, bytearray(data), memoryview(data)):
            assert crc32c(view, start) == expected, (n, type(view))


def test_crc32c_memory_stays_bounded_on_a_large_input(pool):
    # The block registers take 4 bytes per 256-byte block, and each gather
    # runs over a bounded number of blocks; gathering all at once would
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
    data = w.finish()
    body = check_trailing_crc(data)
    r = Reader(body)
    assert r.u8() == 7
    assert r.u16() == 513
    assert r.u32() == 70000
    assert r.u64() == 1 << 40
    assert r.f32() == 1.5
    assert r.text() == "héllo"
    assert r.blob() == b"\x00\x01"
    r.expect_end()


def test_corrupted_crc_detected():
    data = Writer().u32(42).finish()
    corrupted = data[:-1] + bytes([data[-1] ^ 0xFF])
    with pytest.raises(FormatError):
        check_trailing_crc(corrupted)


def test_corrupted_body_detected():
    data = Writer().u32(42).u32(43).finish()
    corrupted = bytes([data[0] ^ 0x01]) + data[1:]
    with pytest.raises(FormatError):
        check_trailing_crc(corrupted)


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
    r = Reader(b"XXXXrest")
    with pytest.raises(FormatError) as err:
        r.expect_magic(b"HSDS")
    assert err.value.offset == 0


def test_invalid_utf8_text_reports_offset():
    data = Writer().u8(0).text("abc").body()
    bad = data[:6] + b"\xff" + data[7:]  # u8, u32 length, "a", then the bad byte
    r = Reader(bad)
    r.u8()
    with pytest.raises(FormatError) as err:
        r.text()
    assert err.value.offset == 6
    assert "UTF-8" in str(err.value)


def _inflate_all(stream: bytes, n: int) -> bytes:
    r = InflatingReader(stream)
    out = r.raw(n)
    r.expect_end()
    return out


def test_deflate_round_trip():
    payload = b"abc" * 1000 + bytes(range(256))
    assert _inflate_all(deflate(payload), len(payload)) == payload


def test_inflate_rejects_garbage():
    with pytest.raises(FormatError):
        InflatingReader(b"\xff\xff\xff\xff not a deflate stream").u8()


@pytest.mark.parametrize(
    "cut", [lambda s: s + b"GARBAGE", lambda s: s[:-3]], ids=["trailing_bytes", "truncated"]
)
def test_inflate_rejects_a_stream_that_does_not_end_at_the_end(cut):
    payload = bytes(range(256)) * 4 + b"abc" * 25
    with pytest.raises(FormatError):
        _inflate_all(cut(deflate(payload)), len(payload))


@pytest.mark.parametrize("size", [-1, 1], ids=["longer", "shorter"])
def test_inflating_reader_rejects_a_stream_of_another_length(size):
    payload = bytes(range(256)) * 4
    with pytest.raises(FormatError, match="past the end" if size < 0 else "truncated"):
        _inflate_all(deflate(payload), len(payload) + size)


def test_inflating_reader_reads_in_pieces_and_inflates_only_what_it_reads():
    payload = bytes(range(256)) * 16
    r = InflatingReader(deflate(payload + bytes(16 << 20)))
    tracemalloc.start()
    try:
        pieces = [r.u8(), r.u16(), r.u32(), r.raw(len(payload) - 7)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pieces[:3] == [0, 0x0201, 0x06050403] and pieces[3] == payload[7:]
    assert r.pos == len(payload)
    assert peak < 1 << 20
    with pytest.raises(FormatError, match="past the end"):
        r.expect_end()
