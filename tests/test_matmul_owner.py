"""tensor.matmul is the one way into BLAS.

Its rounding test is what makes a BLAS product bit-reproducible: each
element is the exact dot product rounded once to float32, whatever order
BLAS adds in. A matrix product anywhere else in `src/supersub/` (the `@`
operator, `np.dot`, `np.matmul`, `np.einsum`, `np.tensordot`, `np.inner`)
would feed an order-dependent sum into the pipeline. The one exception is
`network._forward_loss_f64`, the float64 oracle of the gradient check,
which has no bit contract.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "supersub"
PRODUCTS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "multi_dot"}
ALLOWED = {("network.py", "_forward_loss_f64")}


def products(source: str) -> list[tuple[int, str, str]]:
    """(line, enclosing function, what) for each matrix product in a module:
    `@`, `@=`, a call through an attribute named in PRODUCTS other than
    `tensor.matmul`, or such a name imported from numpy."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                found.append((child.lineno, func, "@"))
            elif (
                isinstance(child, ast.Attribute)
                and child.attr in PRODUCTS
                and not (isinstance(child.value, ast.Name) and child.value.id == "tensor" and child.attr == "matmul")
            ):
                found.append((child.lineno, func, f".{child.attr}"))
            elif isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "numpy":
                found.extend((child.lineno, func, alias.name) for alias in child.names if alias.name in PRODUCTS)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_only_tensor_takes_matrix_products():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "tensor.py")
    assert len(modules) >= 10, f"scanned only {[p.name for p in modules]}"
    found = [
        f"{path.name}:{line}: {what} in {func or 'module scope'}"
        for path in modules
        for line, func, what in products(path.read_text(encoding="utf-8"))
        if (path.name, func) not in ALLOWED
    ]
    assert not found, "matrix product outside tensor.matmul:\n" + "\n".join(found)


def test_the_float64_oracle_is_the_one_exception():
    allowed = [
        (line, func)
        for line, func, _ in products((SRC / "network.py").read_text(encoding="utf-8"))
        if ("network.py", func) in ALLOWED
    ]
    assert allowed, "network._forward_loss_f64 no longer takes a product: drop it from ALLOWED"


def test_product_patterns():
    flagged = [
        "c = a @ b",
        "c @= b",
        "c = np.dot(a, b)",
        "c = a.dot(b)",
        "c = numpy.matmul(a, b)",
        "c = np.einsum('ij,jk->ik', a, b)",
        "c = np.tensordot(a, b, 1)",
        "c = np.inner(a, b)",
        "c = np.linalg.multi_dot([a, b])",
        "from numpy import dot",
    ]
    for source in flagged:
        assert products(source), source
    clean = [
        "@dataclass(frozen=True)\nclass A:\n    x: int",
        "c = matmul(a, b)",
        "c = tensor.matmul(a, b)",
        "c = a * b",
        "from .tensor import matmul",
    ]
    for source in clean:
        assert not products(source), source
    assert products("def f(a, b):\n    return a @ b") == [(2, "f", "@")]
