"""network.py is the one module that spells the tensor layout.

Every other module reaches tensor names, the head and the body through it
(`tensor_items`, `body_items`, `HEAD_TENSORS`, `NetworkConfig.with_head`),
so a quoted tensor name, a prefix test for the head, a slice of
`tensor_items(...)` or a literal integer index into a `.tensors` tuple
anywhere else is a second copy of the layout. Slices through
`HEAD_TENSORS` are the layout's own split and stay allowed.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "supersub"
FORBIDDEN = {
    "quoted head tensor name": re.compile(r"""["']head\."""),
    "quoted layer tensor name": re.compile(r"""["']layer"""),
    "head test by name prefix": re.compile(r"""startswith\(\s*["']head"""),
    "slice of tensor_items": re.compile(r"tensor_items\([^()]*\)\s*\["),
    "literal integer into .tensors": re.compile(r"\.tensors\[[^\]]*(?<![\w.])\d"),
}


def test_only_network_spells_the_layout():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "network.py")
    assert len(modules) >= 10, f"scanned only {[p.name for p in modules]}"
    found = [
        f"{path.name}:{n}: {what}: {line.strip()}"
        for path in modules
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for what, pattern in FORBIDDEN.items()
        if pattern.search(line)
    ]
    assert not found, "layout spelled outside network.py:\n" + "\n".join(found)


def test_literal_tensor_index_patterns():
    pattern = FORBIDDEN["literal integer into .tensors"]
    for line in ("net.tensors[0]", "d.tensors[-1]", "base.tensors[:2]", "net.tensors[ 3 ].shape"):
        assert pattern.search(line), line
    for line in ("d.tensors[-len(HEAD_TENSORS) :]", "base.tensors[: -len(HEAD_TENSORS)]", "net.tensors[i2]"):
        assert not pattern.search(line), line
