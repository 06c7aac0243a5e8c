"""Deterministic numeric substrate: float32 arrays, PRNG, and elementary ops.

Results are bit-identical across runs whatever the BLAS build, its thread
count or the order of additions. matmul rounds each element's exact dot
product once to float32 (round_f32 settles what the float64 BLAS product's
error bound leaves open exactly), and its tests compare it with an exact
oracle. A call pays its fixed costs once: one np.errstate block, one
compare of the two roundings' bytes before any per-element search, and
the exact fallback looked up at call time, so tests can count it. The
one ordered sum, ordered_axis0_sum, fixes its order instead,
as np.add.accumulate, which numpy defines as r[t] = r[t-1] + x[t]: it adds
the rows of a matrix (softmax_rows passes a transpose to add columns, and
cross_entropy a column to add a vector). np.dot, np.sum and np.add.reduce,
whose order is unspecified, feed no golden file.

Results do depend on the CPU through np.exp and np.log (softmax_rows,
cross_entropy): numpy dispatches these float32 kernels by SIMD target,
they are not correctly rounded, and different targets give different
bits. The golden hashes hold on numpy's AVX2-or-better kernels and move
when numpy is limited to its X86_V2 baseline (NPY_DISABLE_CPU_FEATURES).

splitmix64 is counter-based: its state after i steps is seed + i*gamma
mod 2**64, so Prng.draws(n) gives the next n outputs as one uint64
expression. shuffle and gaussian_array draw through it, gaussian_array a
block of _GAUSSIAN_BLOCK elements at a time, and each keeps the per-draw
loop it replaces as the reference of its tests (_shuffle_loop,
_gaussian_array_loop).

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
_SPLITMIX_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


class Prng:
    """splitmix64 generator; same seed yields the same sequence everywhere."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _SPLITMIX_GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _SPLITMIX_MIX[0]) & _MASK64
        z = ((z ^ (z >> 27)) * _SPLITMIX_MIX[1]) & _MASK64
        return z ^ (z >> 31)

    def draws(self, n: int) -> np.ndarray:
        """The next n next_u64 outputs as a uint64 array; the state moves
        as n calls would move it. numpy's uint64 arithmetic wraps mod 2**64."""
        if n < 0:
            raise ParameterError(f"cannot draw {n} values")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_SPLITMIX_GAMMA)
        z += np.uint64(self.state)
        self.state = (self.state + n * _SPLITMIX_GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_SPLITMIX_MIX[0])
        z ^= z >> np.uint64(27)
        z *= np.uint64(_SPLITMIX_MIX[1])
        z ^= z >> np.uint64(31)
        return z

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i from n-1 down to 1, swap
        items i and j = next_u64() % (i + 1), every j drawn in one call."""
        n = len(items)
        if n < 2:
            return
        js = self.draws(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]


def _shuffle_loop(prng: Prng, items: list) -> None:
    """One-draw-per-swap reference for Prng.shuffle."""
    for i in range(len(items) - 1, 0, -1):
        j = prng.next_u64() % (i + 1)
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


# Elements per block of gaussian_array's draws: a block's draws and
# temporaries, its log and cos inputs as Python floats among them, stay
# under 0.5 MiB whatever the size of the array.
_GAUSSIAN_BLOCK = 1 << 12


def gaussian_array(prng: Prng, shape, mean: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """float32 array of independent gaussian draws, row-major fill order.

    Element i is the i-th of as many gaussian(prng, mean, sigma) calls: the
    same IEEE operations on the same two u64s, drawn a block at a time. log
    and cos stay libm's (math.log, math.cos), whose bits numpy's do not
    always match; -2*, sqrt, 2*pi*u2 and mean + sigma*z are correctly
    rounded float64 operations, the same in numpy as in Python.
    """
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    n = int(np.prod(shape)) if shape else 1
    out = np.empty(n, dtype=F32)
    for s in range(0, n, _GAUSSIAN_BLOCK):
        k = min(_GAUSSIAN_BLOCK, n - s)
        d = prng.draws(2 * k) >> np.uint64(11)
        u1 = (d[0::2] + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = d[1::2].astype(np.float64) * 2.0**-53
        logs = np.fromiter(map(math.log, u1.tolist()), np.float64, k)
        cosines = np.fromiter(map(math.cos, ((2.0 * math.pi) * u2).tolist()), np.float64, k)
        out[s : s + k] = mean + sigma * (np.sqrt(-2.0 * logs) * cosines)
    return out.reshape(shape)


def _gaussian_array_loop(prng: Prng, shape, mean: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """One-gaussian-per-element reference for gaussian_array."""
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
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
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

    Each fixed cost is paid once: one np.errstate block covers the call,
    float32 operands skip as_float, and a product of at most one block of
    rows takes |A| and |B| in place on its float64 copies. round_f32
    compares the bytes of its two roundings once and searches for the
    undecided elements only when they differ; their exact fallback,
    _exact_dot, is looked up at call time.
    """
    if type(a) is not np.ndarray or a.dtype != F32:
        a = as_float(a)
    if type(b) is not np.ndarray or b.dtype != F32:
        b = as_float(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.shape} x {b.shape}",
            left_shape=a.shape,
            right_shape=b.shape,
        )
    m, k = a.shape
    n = b.shape[1]
    rows = max(1, _ROW_BLOCK_ELEMENTS // max(k, n, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        if a.dtype != F32 or b.dtype != F32:
            out = a @ b
        elif m <= rows:
            out = _rounded_rows(a, b, b.astype(np.float64), None)
        else:
            b64 = b.astype(np.float64)
            b_abs = np.abs(b64)
            out = np.empty((m, n), dtype=F32)
            for s in range(0, m, rows):
                out[s : s + rows] = _rounded_rows(a[s : s + rows], b, b64, b_abs)
    return check_finite(out, "matmul")


def _rounded_rows(a: np.ndarray, b: np.ndarray, b64: np.ndarray, b_abs: np.ndarray | None) -> np.ndarray:
    """matmul of a block of rows a of float32 by b, inside matmul's errstate.
    b64 is b in float64 and b_abs its magnitudes; with b_abs None they are
    taken in b64 itself, once the block's product is done."""
    a64 = a.astype(np.float64)
    c = a64 @ b64
    # (k + 2) * 2**-52 is over twice gamma_k: room for the rounding of
    # |A| @ |B| (also within gamma_k), of this product and of c -+ radius.
    radius = np.abs(a64, out=a64) @ (np.abs(b64, out=b64) if b_abs is None else b_abs)
    k = a.shape[1]
    radius *= (k + 2) * 2.0**-52
    return round_f32(c, radius, _exact_entry, a, b)


def round_f32(approx: np.ndarray, radius: np.ndarray, exact, *args) -> np.ndarray:
    """Exact values rounded once to float32, given that the float64 results
    approx - radius and approx + radius enclose each. Where both round to the
    same float32 bits, monotone rounding makes that the answer; elsewhere
    exact(index, *args) returns it as a float (inf from 2**128 on). A
    non-finite approx comes out as NaN, without calling exact.

    The two roundings' bytes are compared once, and the undecided elements
    are searched for only when they differ. Runs inside its caller's
    np.errstate(over="ignore", invalid="ignore"): a rounding past the float32
    range and inf - inf are expected here."""
    out = (approx + radius).astype(F32)
    lo = (approx - radius).astype(F32)
    if out.tobytes() != lo.tobytes():
        for index in zip(*np.nonzero(out.view(np.uint32) != lo.view(np.uint32))):
            out[index] = exact(index, *args) if math.isfinite(approx[index]) else math.nan
    return out


def _exact_entry(index: tuple[int, int], a: np.ndarray, b: np.ndarray) -> float:
    """Element index of a @ b of float32 operands, by _exact_dot."""
    return _exact_dot(a[index[0]], b[:, index[1]])


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
    """Sum rows of a 2-D float32 array in row order, accumulating in float32
    (a float64 array, in float64).

    The last row of np.add.accumulate along axis 0, which adds the rows in
    the order _ordered_axis0_sum_loop does; an empty input sums to zeros.
    """
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
    """max(x, 0) of a float32 (or float64) array, in its dtype."""
    return np.maximum(x, F32(0.0))


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
