"""network.py is the one module that spells the tensor layout.

Every other module reaches tensor names, the head and the body through it
(`tensor_items`, `body_items`, `HEAD_TENSORS`, `NetworkConfig.with_head`),
so a quoted tensor name, a prefix test for the head or a slice of
`tensor_items(...)` anywhere else is a second copy of the layout.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "supersub"
FORBIDDEN = {
    "quoted head tensor name": re.compile(r"""["']head\."""),
    "quoted layer tensor name": re.compile(r"""["']layer"""),
    "head test by name prefix": re.compile(r"""startswith\(\s*["']head"""),
    "slice of tensor_items": re.compile(r"tensor_items\([^()]*\)\s*\["),
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
