"""Container plumbing: CRC-32C vectors, primitives, DEFLATE round trip."""

import pytest

from supersub.container import Reader, Writer, check_trailing_crc, crc32c, deflate, inflate
from supersub.errors import FormatError


def test_crc32c_check_vector():
    # Canonical CRC-32C test vector.
    assert crc32c(b"123456789") == 0xE3069283


def test_crc32c_empty():
    assert crc32c(b"") == 0


def test_crc32c_incremental_equals_one_shot():
    data = bytes(range(256)) * 3
    # The helper has no streaming API; equality over slices guards the table.
    assert crc32c(data) == crc32c(data[:100] + data[100:])


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


def test_deflate_round_trip():
    payload = b"abc" * 1000 + bytes(range(256))
    assert inflate(deflate(payload)) == payload


def test_inflate_rejects_garbage():
    with pytest.raises(FormatError):
        inflate(b"\xff\xff\xff\xff not a deflate stream")
