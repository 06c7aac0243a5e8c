"""Deterministic numeric substrate: float32 arrays, PRNG, and elementary ops.

Results are bit-identical across runs whatever the BLAS build, its thread
count or the order of additions. matmul rounds each element's exact dot
product once to float32 (round_f32 settles what the float64 BLAS product's
error bound leaves open exactly), and its tests compare it with an exact
oracle. The one ordered sum, ordered_axis0_sum, fixes its order instead,
as np.add.accumulate, which numpy defines as r[t] = r[t-1] + x[t]: it adds
the rows of a matrix (softmax_rows passes a transpose to add columns, and
cross_entropy a column to add a vector). np.dot, np.sum and np.add.reduce,
whose order is unspecified, feed no golden file.

Results do depend on the CPU through np.exp and np.log (softmax_rows,
cross_entropy): numpy dispatches these float32 kernels by SIMD target,
they are not correctly rounded, and different targets give different
bits. The golden hashes hold on numpy's AVX2-or-better kernels and move
when numpy is limited to its X86_V2 baseline (NPY_DISABLE_CPU_FEATURES).

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
    if not np.isfinite(arr).all():
        raise ParameterError(f"non-finite values produced in {context}")
    return arr


# Elements per float64 array of one block of matmul's rows (128 KiB). A golden
# fp16 `supersub run` peaked at 36.4 MB RSS unblocked, 34.6 MB blocked.
_ROW_BLOCK_ELEMENTS = 1 << 14


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = sum_t A[i,t]*B[t,j]; for float32 inputs, the exact sum rounded
    once to float32 (nearest, ties to even, an exact zero as +0.0).

    The float64 BLAS product c sums exact terms, so |c - exact| <= gamma_k *
    (|A| @ |B|), gamma_k = k*u/(1 - k*u), u = 2**-53, in any summation order
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1).
    A float64 input has no bit contract (only gradient_check passes one)
    and runs as a plain a @ b.
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
    with np.errstate(over="ignore", invalid="ignore"):
        if a.dtype == np.float64 or b.dtype == np.float64:
            return check_finite(a @ b, "matmul")
        b64 = b.astype(np.float64)
        b_abs = np.abs(b64)
        out = np.empty((m, n), dtype=F32)
        rows = max(1, _ROW_BLOCK_ELEMENTS // max(k, n, 1))
        for s in range(0, m, rows):
            a64 = a[s : s + rows].astype(np.float64)
            c = a64 @ b64
            # (k + 2) * 2**-52 is over twice gamma_k: room for the rounding of
            # |A| @ |B| (also within gamma_k), of this product and of c -+ radius.
            radius = np.abs(a64, out=a64) @ b_abs
            radius *= (k + 2) * 2.0**-52
            out[s : s + rows] = round_f32(c, radius, lambda ij, s=s: _exact_dot(a[s + ij[0]], b[:, ij[1]]))
    return check_finite(out, "matmul")


def round_f32(approx: np.ndarray, radius: np.ndarray, exact) -> np.ndarray:
    """Exact values rounded once to float32, given that the float64 results
    approx - radius and approx + radius enclose each. Where both round to the
    same float32 bits, monotone rounding makes that the answer; elsewhere
    exact(index) returns it as a float (inf from 2**128 on). A non-finite
    approx comes out as NaN, without calling exact."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = (approx + radius).astype(F32)
        lo = (approx - radius).astype(F32)
        undecided = out.view(np.uint32) != lo.view(np.uint32)
        for index in zip(*np.nonzero(undecided)) if undecided.any() else ():
            out[index] = exact(index) if math.isfinite(approx[index]) else math.nan
    return out


def _exact_dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum(x * y) of two float32 vectors rounded once to float32. A float32
    is an integer times 2**-149, so the sum is an exact int times 2**-298."""
    xs = (x.astype(np.float64) * 2.0**149).tolist()
    ys = (y.astype(np.float64) * 2.0**149).tolist()
    return _nearest_f32(sum(int(u) * int(v) for u, v in zip(xs, ys)), -298)


def _nearest_f32(n: int, exp: int) -> float:
    """n * 2**exp rounded to 24 significant bits, or to a multiple of the
    smallest subnormal 2**-149, ties to even; float32 holds it exactly, or
    as inf from 2**128 on."""
    mag = abs(n)
    drop = max(mag.bit_length() - 24, -149 - exp, 0)
    q, r = mag >> drop, mag & ((1 << drop) - 1)
    if drop and (r > 1 << (drop - 1) or (r == 1 << (drop - 1) and q & 1)):
        q += 1
    return math.copysign(math.ldexp(q, exp + drop), n)


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
    # float() before the division: a float32 divided by an int stays float32.
    return -float(ordered_axis0_sum(logs[:, None])[0]) / m


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
