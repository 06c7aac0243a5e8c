"""tensor.py is the one module that draws from a Prng one value at a time.

`Prng.draws(n)` gives n splitmix64 outputs as one uint64 expression, and
`Prng.shuffle` and `tensor.gaussian_array` draw through it. A `next_u64`
anywhere else in `src/supersub/` would be a per-draw Python loop on the
pipeline's path, the cost the batched draws removed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "supersub"


def single_draws(source: str) -> list[int]:
    """Line of each `next_u64` reference in a module: an attribute, a bare
    name or an import of that name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "next_u64":
            found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "next_u64":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "next_u64" for a in node.names):
            found.append(node.lineno)
    return found


def test_only_tensor_draws_one_value_at_a_time():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "tensor.py")
    assert len(modules) >= 10, f"scanned only {[p.name for p in modules]}"
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line in single_draws(path.read_text(encoding="utf-8"))
    ]
    assert not found, "next_u64 outside tensor.py:\n" + "\n".join(found)


def test_single_draw_patterns():
    for source in ("rng.next_u64()", "f = prng.next_u64", "from .tensor import next_u64", "next_u64()"):
        assert single_draws(source), source
    for source in ("rng.draws(4)", "rng.shuffle(order)", "# next_u64 in a comment", "'next_u64'"):
        assert not single_draws(source), source
