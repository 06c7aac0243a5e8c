"""container.py is the one module that writes and checks the container
frame, and the one that compresses.

The frame is magic, u16 version, body, trailing CRC-32C; `seal` writes it,
`open_container` checks it and `stored_checksum` reads the stored CRC. So
a `crc32c` named anywhere else, a slice of a trailing 4-byte field, or a
`*_MAGIC` or `*_VERSION` written field by field through a Writer is a
second copy of the frame. `deflate` and `inflate`, whose size bound every
compressed payload needs, are the one use of zlib, so `zlib` named
anywhere else is a second path to compression.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "supersub"
FORBIDDEN = {
    "crc32c named": re.compile(r"\bcrc32c\b"),
    "trailing 4-byte slice": re.compile(r"\[\s*(-\s*4\s*:|:\s*-\s*4)\s*\]"),
    "magic written by hand": re.compile(r"\.raw\(\s*\w*_MAGIC\b"),
    "version written by hand": re.compile(r"\.u16\(\s*\w*_VERSION\b"),
    "zlib named": re.compile(r"\bzlib\b"),
}


def test_only_container_writes_and_checks_the_frame():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "container.py")
    assert len(modules) >= 10, f"scanned only {[p.name for p in modules]}"
    found = [
        f"{path.name}:{n}: {what}: {line.strip()}"
        for path in modules
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for what, pattern in FORBIDDEN.items()
        if pattern.search(line)
    ]
    assert not found, "frame or compression handled outside container.py:\n" + "\n".join(found)


def test_frame_patterns():
    hits = {
        "crc32c named": ["from .container import crc32c", "x = crc32c(body)"],
        "trailing 4-byte slice": ["data[-4:]", "data[:-4]", "data[ - 4 : ]", "data[: -4]"],
        "magic written by hand": ["w.raw(NETWORK_MAGIC)", "w.raw( DELTA_MAGIC)", "Writer().raw(_MAGIC)"],
        "version written by hand": ["w.u16(DATASET_VERSION)", "Writer().u16( NETWORK_VERSION)"],
        "zlib named": ["import zlib", "zlib.decompressobj(wbits=-15)"],
    }
    misses = {
        "crc32c named": ["CRC-32C of the body", "crc32c_table", "stored_checksum(data)"],
        "trailing 4-byte slice": ["data[-40:]", "data[:-44]", "data[4:]", "data[:4]", "data[-len(HEAD_TENSORS) :]"],
        "magic written by hand": ["seal(NETWORK_MAGIC, NETWORK_VERSION, w.body())", "w.raw(magic_bytes)"],
        "version written by hand": ["w.u16(version)", "open_container(data, DELTA_MAGIC, DELTA_VERSION)"],
        "zlib named": ["deflate(payload)", "inflate(stream, n)", "zlibx = 1"],
    }
    for what, lines in hits.items():
        for line in lines:
            assert FORBIDDEN[what].search(line), (what, line)
    for what, lines in misses.items():
        for line in lines:
            assert not FORBIDDEN[what].search(line), (what, line)
