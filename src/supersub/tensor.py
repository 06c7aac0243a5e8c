"""Deterministic numeric substrate: float32 arrays, PRNG, and elementary ops.

Everything here is built from elementwise IEEE-754 single-precision
operations with explicitly fixed accumulation order, so results are
bit-identical across runs and do not depend on the BLAS backend. They do
depend on the CPU through np.exp and np.log (softmax_rows, cross_entropy):
numpy dispatches these float32 kernels by SIMD target, they are not
correctly rounded, and different targets give different bits. The golden
hashes hold on numpy's AVX2-or-better kernels and move when numpy is
limited to its X86_V2 baseline (NPY_DISABLE_CPU_FEATURES). Fixed order includes np.add.accumulate, which numpy defines as the
running sequence r[t] = r[t-1] + x[t], and forming a block of products in
one call before adding them to the output one t at a time. It rules out
np.dot, np.sum and np.add.reduce, whose order is unspecified (pairwise,
blocked or SIMD), for anything that feeds a golden file; use matmul() and
the two ordered sums instead: ordered_axis0_sum adds the rows of a matrix
(pass the transpose to add its columns, as softmax_rows does) and
ordered_scalar_sum the elements of a vector.

All operations are pure. Prng is single-owner mutable state: never share
one instance across threads; derive child seeds instead.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError

F32 = np.float32
CE_EPSILON = 1e-12
F16_MAX = 65504.0

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


class Prng:
    """splitmix64 generator; same seed yields the same sequence everywhere."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _SPLITMIX_GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def child_seed(seed: int, tag: int, index: int = 0) -> int:
    """Derive a stage seed: seed XOR fixed tag, spread by index."""
    return (seed ^ tag ^ ((index * _SPLITMIX_GAMMA) & _MASK64)) & _MASK64


def gaussian(prng: Prng, mean: float, sigma: float) -> float:
    """One N(mean, sigma^2) draw via Box-Muller; consumes exactly two u64s.

    sigma == 0 returns mean exactly.
    """
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    # u1 in (0, 1] so the log is finite; u2 in [0, 1).
    u1 = ((prng.next_u64() >> 11) + 1) * 2.0**-53
    u2 = (prng.next_u64() >> 11) * 2.0**-53
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mean + sigma * z


def gaussian_array(prng: Prng, shape, mean: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """float32 array of independent gaussian draws, row-major fill order."""
    n = int(np.prod(shape)) if shape else 1
    out = np.empty(n, dtype=F32)
    for i in range(n):
        out[i] = gaussian(prng, mean, sigma)
    return out.reshape(shape)


def as_float(values) -> np.ndarray:
    """float32 coercion with a float64 escape hatch.

    Everything in the product runs on float32 carriers. float64 arrays are
    passed through untouched so numerical checkers (gradient_check) can run
    the exact same kernel code at a precision where comparisons against
    finite differences are not drowned in rounding noise.
    """
    arr = np.asarray(values)
    if arr.dtype == np.float64:
        return arr
    return arr.astype(F32) if arr.dtype != F32 else arr


def check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"non-finite values produced in {context}")
    return arr


# Largest m*n served by the accumulate kernel, the measured crossover on a
# 2-core Xeon VM: accumulate costs ~8 ns per product whatever k is, but it
# strides along t, so at m*n = 3200 it is 3-5x slower than adding contiguous
# rows of products one t at a time.
_ACCUMULATE_MAX_OUTPUTS = 512

# Products per block of the blocked kernel: 512 KiB of float32 (1 MiB of
# float64), small enough to stay in cache while its rows are added, so the
# temporary adds nothing visible to the resident set. Measured on a 2-core
# Xeon VM at the training shapes (50-64 rows, 20-64 columns, k = 32-64):
# 2**14 was 5-35% slower, 2**16 and 2**18 within run-to-run noise of 2**17.
_BLOCK_ELEMENTS = 1 << 17


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = sum_t A[i,t]*B[t,j], accumulated in float32 in fixed t order.

    Each output element is an identical scalar IEEE op sequence, so the
    result is bit-exact on any platform (no BLAS, no reassociation). Three
    kernels give the same bits: when k >= 1 and 1 <= m*n <= 512, all k*m*n
    products at once followed by one np.add.accumulate along t; otherwise
    _matmul_blocked, the products of a block of t in one multiply, then one
    add per t. _matmul_loop, one multiply and add per t, is the reference
    both are tested against.
    """
    a = as_float(a)
    b = as_float(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.shape} x {b.shape}",
            left_shape=a.shape,
            right_shape=b.shape,
        )
    m, k = a.shape
    n = b.shape[1]
    if k == 0 or not 1 <= m * n <= _ACCUMULATE_MAX_OUTPUTS:
        return _matmul_blocked(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        p = a.T[:, :, None] * b[:, None, :]
        # The loop adds the first product to +0.0, which turns -0.0 into +0.0.
        p[0] += 0
        out = np.add.accumulate(p, axis=0)[-1]
    return check_finite(out, "matmul")


def _matmul_blocked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul's kernel for batch shapes: the products of up to _BLOCK_ELEMENTS
    // (m*n) consecutive t in one multiply, then their rows added to the
    output in t order, as _matmul_loop adds them."""
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.result_type(a, b))
    if k == 0 or m * n == 0:
        return out
    step = max(1, _BLOCK_ELEMENTS // (m * n))
    p = np.empty((min(step, k), m, n), dtype=out.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, k, step):
            e = min(s + step, k)
            block = p[: e - s]
            np.multiply(a.T[s:e, :, None], b[s:e, None, :], out=block)
            # Starting from +0.0, as the loop does, turns a -0.0 product into +0.0.
            for row in block:
                np.add(out, row, out=out)
    return check_finite(out, "matmul")


def _matmul_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul's reference kernel, one multiply and add per t, which the
    accumulate and blocked kernels match bit for bit."""
    m, k = a.shape
    n = b.shape[1]
    dtype = np.result_type(a, b)
    out = np.zeros((m, n), dtype=dtype)
    tmp = np.empty((m, n), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(k):
            np.multiply(a[:, t : t + 1], b[t : t + 1, :], out=tmp)
            np.add(out, tmp, out=out)
    return check_finite(out, "matmul")


def ordered_axis0_sum(x: np.ndarray) -> np.ndarray:
    """Sum rows of a 2-D array in row order, accumulating in float32.

    The last row of np.add.accumulate along axis 0, which adds the rows in
    the order _ordered_axis0_sum_loop does; an empty input sums to zeros.
    """
    x = as_float(x)
    if not x.shape[0]:
        return np.zeros(x.shape[1], dtype=x.dtype)
    return np.add.accumulate(x, axis=0)[-1]


def _ordered_axis0_sum_loop(x: np.ndarray) -> np.ndarray:
    """Row-by-row reference for ordered_axis0_sum."""
    x = as_float(x)
    acc = x[0].copy() if x.shape[0] else np.zeros(x.shape[1], dtype=x.dtype)
    for i in range(1, x.shape[0]):
        np.add(acc, x[i], out=acc)
    return acc


def ordered_scalar_sum(vec: np.ndarray) -> float:
    """Sum a 1-D array front to back in its own precision; returns a float.

    The last element of np.add.accumulate, the order of
    _ordered_scalar_sum_loop; an empty input sums to 0.0.
    """
    vec = np.array(as_float(vec))
    if not vec.size:
        return 0.0
    # The loop starts from +0.0, which turns a leading -0.0 into +0.0.
    vec[0] += 0
    return float(np.add.accumulate(vec)[-1])


def _ordered_scalar_sum_loop(vec: np.ndarray) -> float:
    """Element-by-element reference for ordered_scalar_sum."""
    vec = as_float(vec)
    acc = vec.dtype.type(0.0)
    for v in vec:
        acc = vec.dtype.type(acc + v)
    return float(acc)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(as_float(x), F32(0.0))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    x = as_float(x)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionError(f"softmax_rows expects a non-empty 2-D array, got {x.shape}")
    shifted = x - np.max(x, axis=1, keepdims=True)
    e = np.exp(shifted)
    denom = ordered_axis0_sum(e.T)
    out = e / denom[:, None]
    return check_finite(out, "softmax_rows")


def cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean negative log-likelihood: -(1/m) sum_i ln(p[i, y_i] + eps)."""
    probs = as_float(probs)
    labels = np.asarray(labels, dtype=np.int64)
    m, n = probs.shape
    if m == 0:
        raise DimensionError("cross_entropy needs at least one row")
    if labels.shape != (m,):
        raise DimensionError(f"expected {m} labels, got shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= n):
        bad = int(labels[(labels < 0) | (labels >= n)][0])
        raise IndexError(f"label {bad} out of range for {n} classes")
    picked = probs[np.arange(m), labels]
    logs = np.log(picked + F32(CE_EPSILON))
    return -ordered_scalar_sum(logs) / m


def f16_round(x: np.ndarray) -> np.ndarray:
    """Round every element to the nearest binary16 value (ties to even),
    returned widened back to float32. Idempotent.

    Magnitudes above the binary16 maximum are rejected rather than clamped:
    a delta that large means the finetune diverged.
    """
    x = np.asarray(x, dtype=F32)
    check_finite(x, "f16_round input")
    if np.any(np.abs(x) > F16_MAX):
        worst = float(np.max(np.abs(x)))
        raise OverflowError(f"magnitude {worst} exceeds binary16 max {F16_MAX}")
    return x.astype(np.float16).astype(F32)
