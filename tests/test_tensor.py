"""Numeric substrate: PRNG determinism, elementary ops, precision casts."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from supersub import tensor
from supersub.errors import ContractError, ParameterError
from supersub.tensor import (
    F32,
    Prng,
    _gaussian_array_loop,
    _ordered_axis0_sum_loop,
    _shuffle_loop,
    cross_entropy,
    f16_round,
    gaussian,
    gaussian_array,
    matmul,
    ordered_axis0_sum,
    relu,
    softmax_rows,
)


def _reference_splitmix64(seed, count):
    """Independent re-derivation of the splitmix64 update law."""
    mask = (1 << 64) - 1
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append((z ^ (z >> 31)) & mask)
    return out


class TestPrng:
    def test_known_vectors_seed_zero(self):
        # Published reference outputs of splitmix64 for seed 0.
        rng = Prng(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_matches_reference_update_law(self):
        rng = Prng(0xDEADBEEF)
        assert [rng.next_u64() for _ in range(64)] == _reference_splitmix64(0xDEADBEEF, 64)

    def test_same_seed_same_sequence(self):
        a, b = Prng(42), Prng(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_shuffle_deterministic(self):
        a, b = Prng(7), Prng(7)
        items_a, items_b = list(range(50)), list(range(50))
        a.shuffle(items_a)
        b.shuffle(items_b)
        assert items_a == items_b
        assert sorted(items_a) == list(range(50))

    @pytest.mark.parametrize("seed", [0, 0xDEADBEEF, (1 << 64) - 1, (1 << 64) - 0x9E3779B97F4A7C15])
    @pytest.mark.parametrize("n", [0, 1, 2, 9])
    def test_draws_equal_that_many_single_draws(self, seed, n):
        # The seeds near 2**64 wrap the counter on the first or second step.
        batched, single = Prng(seed), Prng(seed)
        out = batched.draws(n)
        assert out.dtype == np.uint64 and out.shape == (n,)
        assert out.tolist() == [single.next_u64() for _ in range(n)]
        assert batched.state == single.state

    def test_negative_draw_count_rejected(self):
        rng = Prng(3)
        with pytest.raises(ParameterError):
            rng.draws(-1)
        assert rng.state == 3

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 800, 4000])
    def test_shuffle_equals_the_single_draw_loop(self, n):
        batched, single = Prng(n + 17), Prng(n + 17)
        items_a, items_b = list(range(n)), list(range(n))
        batched.shuffle(items_a)
        _shuffle_loop(single, items_b)
        assert items_a == items_b
        assert batched.state == single.state

    def test_state_carries_over_mixed_calls(self):
        batched, single = Prng(2024), Prng(2024)
        a, b = list(range(37)), list(range(37))
        got = [batched.next_u64(), *batched.draws(5).tolist()]
        batched.shuffle(a)
        x = gaussian_array(batched, (3, 7), 1.5, 0.5)
        got += [*batched.draws(2).tolist(), batched.next_u64()]
        want = [single.next_u64() for _ in range(6)]
        _shuffle_loop(single, b)
        y = _gaussian_array_loop(single, (3, 7), 1.5, 0.5)
        want += [single.next_u64() for _ in range(3)]
        assert got == want and a == b
        assert x.tobytes() == y.tobytes()
        assert batched.state == single.state


class TestGaussian:
    def test_sigma_zero_returns_mean_exactly(self):
        rng = Prng(1)
        assert gaussian(rng, 3.25, 0.0) == 3.25

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            gaussian(Prng(1), 0.0, -1.0)

    def test_same_seed_identical_sequences(self):
        a = [gaussian(Prng(99), 0.0, 1.0)]
        b = [gaussian(Prng(99), 0.0, 1.0)]
        assert a == b

    def test_frozen_first_draws(self):
        rng = Prng(123456789)
        draws = [gaussian(rng, 0.0, 1.0) for _ in range(3)]
        assert draws == [
            -1.9881494154350863,
            -1.8035035367090382,
            -0.654761511905377,
        ]

    def test_sample_statistics_100k_draws(self):
        rng = Prng(123456789)
        n = 100_000
        total = total_sq = 0.0
        for _ in range(n):
            z = gaussian(rng, 0.0, 1.0)
            total += z
            total_sq += z * z
        mean = total / n
        sd = (total_sq / n - mean * mean) ** 0.5
        assert abs(mean) < 0.02
        assert abs(sd - 1.0) < 0.02

    def test_mean_sigma_scaling(self):
        z0 = gaussian(Prng(5), 0.0, 1.0)
        z1 = gaussian(Prng(5), 2.0, 3.0)
        assert z1 == pytest.approx(2.0 + 3.0 * z0, rel=1e-12)


BLOCK = tensor._GAUSSIAN_BLOCK


class TestGaussianArray:
    @pytest.mark.parametrize(
        "shape",
        [(), (0,), (1,), (5, 0), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3, BLOCK + 7), (2 * BLOCK, 3)],
    )
    @pytest.mark.parametrize("mean, sigma", [(0.0, 1.0), (0.0, 0.0), (-2.5, 0.0), (3.25, 0.1), (-1e3, 40.0)])
    def test_equals_the_per_element_loop(self, shape, mean, sigma):
        batched, single = Prng(len(shape) * 1000 + 7), Prng(len(shape) * 1000 + 7)
        got = gaussian_array(batched, shape, mean, sigma)
        want = _gaussian_array_loop(single, shape, mean, sigma)
        assert got.dtype == want.dtype == F32 and got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()
        assert batched.state == single.state

    def test_negative_sigma_rejected_before_drawing(self):
        rng = Prng(8)
        with pytest.raises(ParameterError):
            gaussian_array(rng, (4,), 0.0, -1.0)
        assert rng.state == 8

    def test_memory_stays_bounded_on_a_large_array(self):
        # A block's draws and temporaries stay near 0.5 MiB; drawing the
        # whole array at once would hold 2M Python floats (about 64 MB).
        n = 1 << 20
        tracemalloc.start()
        try:
            out = gaussian_array(Prng(11), (n,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n,)
        assert peak < out.nbytes + (1 << 20), peak


class TestMatmul:
    def test_identity_bit_exact(self):
        rng = Prng(11)
        a = gaussian_array(rng, (5, 7))
        eye = np.eye(7, dtype=F32)
        assert np.array_equal(matmul(a, eye), a)

    def test_zero_matrix(self):
        zero = np.zeros((2, 2), dtype=F32)
        b = np.arange(6, dtype=F32).reshape(2, 3)
        assert np.array_equal(matmul(zero, b), np.zeros((2, 3), dtype=F32))

    def test_hand_computed_product(self):
        a = np.array([[1, 2], [3, 4]], dtype=F32)
        b = np.array([[5, 6], [7, 8]], dtype=F32)
        expected = np.array([[19, 22], [43, 50]], dtype=F32)
        assert np.array_equal(matmul(a, b), expected)

    def test_shape_mismatch_carries_both_shapes(self):
        with pytest.raises(ContractError, match=r"\(2, 3\) x \(4, 2\)"):
            matmul(np.zeros((2, 3), dtype=F32), np.zeros((4, 2), dtype=F32))

    def test_pure_same_inputs_same_bits(self):
        rng = Prng(17)
        a = gaussian_array(rng, (8, 8))
        b = gaussian_array(rng, (8, 8))
        assert np.array_equal(matmul(a, b), matmul(a, b))

    def test_overflow_rejected(self):
        a = np.full((1, 2), 3e38, dtype=F32)
        b = np.full((2, 1), 3e38, dtype=F32)
        with pytest.raises(ParameterError):
            matmul(a, b)

    def test_overflow_rejected_on_the_loop_path(self):
        a = np.full((23, 2), 3e38, dtype=F32)
        b = np.full((2, 23), 3e38, dtype=F32)
        with pytest.raises(ParameterError):
            matmul(a, b)


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _draw(rng, bound):
    return int(rng.next_u64() % (bound + 1))


def _carrier(rng, shape, dtype, scale=1.0):
    """Gaussian entries on a dtype carrier, half the time as a transposed view."""
    if rng.next_u64() % 2:
        return (gaussian_array(rng, shape[::-1]) * F32(scale)).astype(dtype).T
    return (gaussian_array(rng, shape) * F32(scale)).astype(dtype)


def _units(x) -> int:
    """A float32 value, on any float carrier, as an exact int times 2**-149."""
    return int(float(x) * 2.0**149)


def _exact_sums(a, b) -> np.ndarray:
    """sum_t a[i,t]*b[t,j] of float32 values as exact ints times 2**-298."""
    to_units = np.vectorize(_units, otypes=[object])
    return to_units(a) @ to_units(b)


def _rounded(n: int) -> np.float32:
    """n * 2**-298 rounded once to float32, ties to even: the float32
    neighbours of a nearby value compared exactly; an exact zero is +0.0."""
    if abs(n) >= (2**128 - 2**103) << 298:  # the midpoint above the largest float32
        return F32(math.copysign(math.inf, n))
    with np.errstate(over="ignore"):
        near = F32(float(n) * 2.0**-298)  # within one float32 step of the answer
    candidates = [near, np.nextafter(near, F32(math.inf)), np.nextafter(near, F32(-math.inf))]
    best = min(
        (c for c in candidates if np.isfinite(c)),
        key=lambda c: (abs((_units(c) << 149) - n), int(c.view(np.uint32)) & 1),
    )
    return F32(math.copysign(0.0, n)) if best == 0 else best


def _oracle(a, b) -> np.ndarray:
    """matmul's reference: each exact sum rounded once to float32."""
    sums = _exact_sums(a, b)
    return np.array([_rounded(int(s)) for s in sums.flat], dtype=F32).reshape(sums.shape)


def _check(a, b):
    """matmul against the exact oracle: the same bits for float32 operands;
    with a float64 operand, a float64 result within gamma_k of the exact sum."""
    got = matmul(a, b)
    if a.dtype == b.dtype == F32:
        assert _same_bits(got, _oracle(a, b)), (a.shape, b.shape)
        return got
    exact = _exact_sums(a, b).astype(np.float64) * 2.0**-298
    bound = (a.shape[1] + 2) * 2.0**-52 * (np.abs(a).astype(np.float64) @ np.abs(b).astype(np.float64))
    assert got.dtype == np.float64 and got.shape == exact.shape, (got.dtype, got.shape)
    assert np.all(np.abs(got - exact) <= bound), (a.shape, b.shape, a.dtype, b.dtype)
    return got


def _near_ties(rng, m, k):
    """m rows of k >= 5 float32 values whose exact sum is the midpoint between
    two float32 neighbours plus -2**-31, 0 or +2**-31 of their spacing,
    mixed with a cancelling pair of values 2**10 larger and zeros, in a
    Prng-chosen order, so float64 sums in any order are near a tie."""
    rows = np.zeros((m, k), dtype=F32)
    for i in range(m):
        e = _draw(rng, 40) - 20
        v = F32(math.ldexp(1 + (1 + _draw(rng, 2**22 - 2)) * 2.0**-23, e))  # not a power of two
        if rng.next_u64() % 2:
            v = -v
        w = F32(math.ldexp(1 + _draw(rng, 2**23 - 1) * 2.0**-23, e + 10))
        nudge = (_draw(rng, 2) - 1) * 2.0 ** (e - 23 - 31)
        values = [v, F32(math.ldexp(1, e - 24)), F32(nudge), w, -w] + [F32(0.0)] * (k - 5)
        order = list(range(k))
        rng.shuffle(order)
        rows[i] = [values[t] for t in order]
    return rows


@pytest.fixture()
def decided(monkeypatch):
    """One entry per element matmul decides exactly."""
    calls = []
    exact_dot = tensor._exact_dot
    monkeypatch.setattr(tensor, "_exact_dot", lambda x, y: calls.append(1) or exact_dot(x, y))
    return calls


class TestMatmulKernels:
    """matmul against the exact oracle at small shapes: each element the exact
    sum rounded once to float32, whatever order BLAS adds in."""

    def test_random_shapes_both_sides_of_the_threshold(self):
        # Random shapes and scales; one case in eight has k of 500 to 2000,
        # so its rows run in several blocks.
        rng = Prng(0x4D41544D)
        outputs, blocks = [], []
        for case in range(240):
            m, k, n = _draw(rng, 40), _draw(rng, 40), 1 + _draw(rng, 39)
            if case % 8 == 0:
                k, n = 500 + _draw(rng, 1500), 1 + _draw(rng, 4)
            scales = [2.0 ** (_draw(rng, 20) - 10) for _ in range(2)]  # about 1e-3 to 1e3
            a = _carrier(rng, (m, k), (F32, np.float64)[case % 2], scales[0])
            b = _carrier(rng, (k, n), (F32, np.float64)[case % 3 == 0], scales[1])
            if m and case % 4 == 0:
                a[_draw(rng, m - 1)] = (-0.0, 0.0)[case % 8 == 0]
            if case % 5 == 0:
                b[:, _draw(rng, n - 1)] = -0.0
            _check(a, b)
            outputs.append(m * n)
            blocks.append(-(-m // max(1, tensor._ROW_BLOCK_ELEMENTS // max(k, n, 1))))
        assert min(outputs) == 0 and max(outputs) > 512
        assert {0, 1} <= set(blocks) and max(blocks) > 2

    @pytest.mark.parametrize("m, k, n", [(1, 7, 5), (1, 64, 64), (8, 3, 64), (3, 1, 2), (9, 4, 60)])
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    def test_signed_zero_rows_and_columns(self, m, k, n, dtype):
        # A row or column of -0.0 makes every product -0.0, an exact zero sum: +0.0.
        rng = Prng(m * 1000 + k * 100 + n)
        a = np.abs(gaussian_array(rng, (m, k))).astype(dtype)
        b = np.abs(gaussian_array(rng, (k, n))).astype(dtype)
        a[0] = -0.0
        b[:, -1] = -0.0
        out = _check(a, b)
        assert dtype is np.float64 or not np.signbit(out).any()

    @pytest.mark.parametrize(
        "m, k, n", [(0, 3, 4), (3, 0, 4), (0, 0, 1), (1, 1, 1), (1, 64, 5), (1, 16, 512), (1, 16, 513)]
    )
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    def test_edge_shapes(self, m, k, n, dtype):
        rng = Prng(m + 7 * k + 31 * n)
        a = gaussian_array(rng, (m, k)).astype(dtype)
        b = gaussian_array(rng, (k, n)).astype(dtype)
        out = _check(a, b)
        assert out.shape == (m, n) and out.dtype == dtype

    def test_transposed_gradient_views(self):
        # backward's d_weight = matmul(d_out.T, x): a strided left operand.
        rng = Prng(0x7E57)
        d_out = gaussian_array(rng, (16, 5))
        x = gaussian_array(rng, (16, 64))
        _check(d_out.T, x)
        _check(d_out.T, x[:, ::2])

    def test_near_ties_take_the_exact_fallback(self, decided):
        rng = Prng(0x7145)
        for k in (7, 12, 64, 1024):  # at k = 1024 the 24 rows run in two blocks
            a = _near_ties(rng, 24, k)
            b = np.zeros((k, 6), dtype=F32)
            for j in range(6):  # signed powers of two keep every output near its tie
                b[:, j] = F32(math.ldexp((-1) ** j, _draw(rng, 8) - 4))
            expected = _oracle(a, b)
            assert _same_bits(matmul(a, b), expected)
            with np.errstate(over="ignore"):
                plain = (a.astype(np.float64) @ b.astype(np.float64)).astype(F32)
            assert not _same_bits(plain, expected), "the inputs should defeat a float64 product"
        assert decided

    def test_subnormal_near_ties_take_the_exact_fallback(self, decided):
        # v + 2**-150 is the midpoint between two subnormals; a +-2**-160
        # nudge and a cancelling pair of 2**-100 leave float64 near the tie.
        rng = Prng(0x5AB)
        a = np.zeros((30, 5), dtype=F32)
        for i in range(30):
            v = (-1) ** i * math.ldexp(1 + _draw(rng, 2**22), -149)
            a[i] = [v, 2.0**-75, 2.0**-80, 2.0**-100, -(2.0**-100)]
        b = np.array([[1.0] * 3, [2.0**-75] * 3, [-(2.0**-80), 0.0, 2.0**-80], [1.0] * 3, [1.0] * 3], dtype=F32)
        assert _same_bits(matmul(a, b), _oracle(a, b))
        assert decided

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_boundary_is_decided_exactly(self, sign):
        # The largest float32 plus half its spacing is a tie that rounds to
        # even, 2**128: an overflow. A hair less rounds to the largest float32.
        top = np.finfo(F32).max
        b = np.ones((3, 1), dtype=F32)
        tie = np.array([[top, 2.0**103, 0.0]], dtype=F32) * F32(sign)
        with pytest.raises(ParameterError):
            matmul(tie, b)
        below = np.array([[top, 2.0**103, -(2.0**60)]], dtype=F32) * F32(sign)
        assert _same_bits(matmul(below, b), np.array([[top * F32(sign)]], dtype=F32))
        assert _same_bits(matmul(below, b), _oracle(below, b))
        # A cancelling pair of 2**200 products hides an exact 2**128 from float64.
        hidden = np.array([[2.0**64, 2.0**100, -(2.0**100)]], dtype=F32) * F32(sign)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                matmul(hidden, np.array([[2.0**64], [2.0**100], [2.0**100]], dtype=F32))

    def test_underflow_keeps_its_sign_and_an_exact_zero_is_positive(self):
        rows = np.array(
            [
                [-(2.0**-100), 0.0],  # -2**-200 rounds to -0.0
                [2.0**-75, 2.0**-75],  # 2 * 2**-150: the smallest subnormal
                [2.0**-75, 0.0],  # 2**-150, a tie between 0 and 2**-149: +0.0
                [1.0, -1.0],  # an exact zero by cancellation: +0.0
            ],
            dtype=F32,
        )
        b = np.array([[2.0**-100, 2.0**-75, 2.0**-75, 1.0], [0.0, 2.0**-75, 0.0, 1.0]], dtype=F32)
        out = matmul(rows, b)
        assert _same_bits(out, _oracle(rows, b))
        assert [out[0, 0], out[1, 1], out[2, 2], out[3, 3]] == [0.0, 2.0**-149, 0.0, 0.0]
        assert np.signbit([out[0, 0], out[2, 2], out[3, 3]]).tolist() == [True, False, False]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_input_rejected_without_warnings(self, bad, side):
        a = np.ones((50, 64), dtype=F32)
        b = np.ones((64, 64), dtype=F32)
        (a if side == "left" else b)[3, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                matmul(a, b)

    def test_single_thread_blas_gives_the_same_bytes(self):
        code = (
            "import hashlib, sys\n"
            "from supersub.tensor import Prng, gaussian_array, matmul\n"
            "rng = Prng(0x7B1A5)\n"
            "a, b = gaussian_array(rng, (1000, 64)), gaussian_array(rng, (64, 64))\n"
            "sys.stdout.write(hashlib.sha256(matmul(a, b).tobytes()).hexdigest())\n"
        )
        rng = Prng(0x7B1A5)
        a, b = gaussian_array(rng, (1000, 64)), gaussian_array(rng, (64, 64))
        here = hashlib.sha256(matmul(a, b).tobytes()).hexdigest()
        src = str(Path(tensor.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout == here


def _near_tie_columns(rng, k, n=6):
    """A (k, n) right operand of signed powers of two, one per column, so that
    every output of a _near_ties row stays near its tie."""
    b = np.zeros((k, n), dtype=F32)
    for j in range(n):
        b[:, j] = F32(math.ldexp((-1) ** j, _draw(rng, 8) - 4))
    return b


def _plain(a, b):
    """The float64 BLAS product rounded once more to float32: what matmul
    would give without its rounding test."""
    with np.errstate(over="ignore"):
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(F32)


class TestMatmulSingleRow:
    """The one-block path at m = 1, the shape of a served query, against the
    exact oracle: near ties, subnormals, the overflow boundary and
    non-finite inputs, read-only operands, and the exact fallback."""

    def test_near_ties_take_the_exact_fallback(self, decided):
        rng = Prng(0x1A7E5)
        defeated = 0
        for k in (7, 12, 64, 1024):
            b = _near_tie_columns(rng, k)
            for _ in range(8):
                a = _near_ties(rng, 1, k)
                expected = _oracle(a, b)
                assert _same_bits(matmul(a, b), expected), k
                defeated += not _same_bits(_plain(a, b), expected)
        assert defeated, "the inputs should defeat a float64 product"
        assert decided

    def test_subnormal_near_ties_take_the_exact_fallback(self, decided):
        rng = Prng(0x5AC)
        b = np.array([[1.0] * 3, [2.0**-75] * 3, [-(2.0**-80), 0.0, 2.0**-80], [1.0] * 3, [1.0] * 3], dtype=F32)
        for i in range(12):
            v = (-1) ** i * math.ldexp(1 + _draw(rng, 2**22), -149)
            a = np.array([[v, 2.0**-75, 2.0**-80, 2.0**-100, -(2.0**-100)]], dtype=F32)
            assert _same_bits(matmul(a, b), _oracle(a, b))
        assert decided

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_boundary_among_finite_outputs(self, sign):
        # Column 3 of a 1 x 64 by 64 x 8 product sits at the overflow
        # boundary; every other column is small.
        top = np.finfo(F32).max
        rng = Prng(0x0F10)
        a = gaussian_array(rng, (1, 64))
        b = gaussian_array(rng, (64, 8))
        a[0, :3] = np.array([top, 2.0**103, 0.0], dtype=F32) * F32(sign)
        b[:3] = 0.0
        b[:3, 3] = 1.0
        b[3:, 3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                matmul(a, b)  # the tie rounds to even, 2**128
            a[0, 2] = -(2.0**60) * sign
            out = matmul(a, b)
        assert _same_bits(out, _oracle(a, b))
        assert out[0, 3] == top * F32(sign)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_input_rejected_without_warnings(self, bad, side):
        a = np.ones((1, 64), dtype=F32)
        b = np.ones((64, 64), dtype=F32)
        (a[0] if side == "left" else b[3])[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                matmul(a, b)

    @pytest.mark.parametrize("m, k, n", [(1, 32, 64), (1, 64, 5), (50, 64, 64), (60, 600, 2)])
    def test_read_only_operands_and_unchanged_inputs(self, m, k, n):
        # forward passes weight.T, a view of a network's read-only weight;
        # (60, 600, 2) runs its rows in three blocks.
        rng = Prng(m * 10000 + k * 10 + n)
        x = gaussian_array(rng, (m, k))
        weight = gaussian_array(rng, (n, k))
        before = x.tobytes(), weight.tobytes()
        expected = _oracle(x, weight.T)
        assert _same_bits(matmul(x, weight.T), expected)
        assert (x.tobytes(), weight.tobytes()) == before
        x.flags.writeable = weight.flags.writeable = False
        assert _same_bits(matmul(x, weight.T), expected)
        assert _same_bits(matmul(weight, x.T), _oracle(weight, x.T))

    @pytest.mark.parametrize("m, k", [(1, 12), (1, 1024), (24, 1024)])
    def test_every_undecided_element_reaches_exact_dot(self, monkeypatch, m, k):
        # _exact_dot is looked up when an element needs it: patched to return
        # a marker, it must be called once per undecided element, with that
        # element's row and column, at m = 1 and across two blocks of rows.
        rng = Prng(0xFA11 + m * k)
        a = np.concatenate([_near_ties(rng, 1, k) for _ in range(m)])
        b = _near_tie_columns(rng, k)
        expected = _oracle(a, b)
        calls = []
        monkeypatch.setattr(tensor, "_exact_dot", lambda x, y: calls.append((x.tobytes(), y.tobytes())) or 7.0)
        out = matmul(a, b)
        marked = out == F32(7.0)
        assert len(calls) == marked.sum() > 0
        assert [(a[i].tobytes(), b[:, j].tobytes()) for i, j in zip(*np.nonzero(marked))] == calls
        assert _same_bits(np.where(marked, expected, out), expected)
        assert marked[_plain(a, b) != expected].all()


class TestMatmulBlocked:
    """matmul against the exact oracle at batch shapes: the training and
    evaluation shapes, k = 0 and m*n = 0, strided views and overflow."""

    def test_random_batch_shapes(self):
        rng = Prng(0x424C4B44)
        for case in range(40):
            m, n = 8 + _draw(rng, 72), 8 + _draw(rng, 72)
            k = _draw(rng, 80)
            a = _carrier(rng, (m, k), (F32, np.float64)[case % 2])
            b = _carrier(rng, (k, n), (F32, np.float64)[case % 3 == 0])
            if k and case % 4 == 0:
                a[_draw(rng, m - 1)] = -0.0
            if case % 5 == 0:
                b[:, _draw(rng, n - 1)] = -0.0
            _check(a, b)

    @pytest.mark.parametrize(
        "m, k, n",
        [
            (19, 9, 27),
            (64, 5, 64),
            (64, 32, 64),
            (64, 64, 64),
            (50, 64, 64),  # a training step's forward
            (64, 50, 32),  # a training step's weight gradient
            (400, 3, 400),
            (30, 0, 30),  # k = 0
            (0, 6, 600),  # m = 0
        ],
    )
    @pytest.mark.parametrize("dtypes", [(F32, F32), (np.float64, np.float64), (F32, np.float64)])
    def test_block_boundaries(self, m, k, n, dtypes):
        rng = Prng(m * 10000 + k * 100 + n)
        a = gaussian_array(rng, (m, k)).astype(dtypes[0])
        b = gaussian_array(rng, (k, n)).astype(dtypes[1])
        _check(a, b)

    @pytest.mark.parametrize("m, k, n", [(9, 4, 60), (50, 64, 64), (64, 50, 32), (400, 2, 400)])
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    def test_signed_zero_rows_and_columns(self, m, k, n, dtype):
        rng = Prng(m * 1000 + k * 100 + n)
        a = np.abs(gaussian_array(rng, (m, k))).astype(dtype)
        b = np.abs(gaussian_array(rng, (k, n))).astype(dtype)
        a[0] = -0.0
        b[:, -1] = -0.0
        out = _check(a, b)
        assert dtype is np.float64 or not np.signbit(out).any()

    def test_transposed_gradient_views(self):
        # backward's d_weight = matmul(d_out.T, x) at a training shape.
        rng = Prng(0x7E58)
        d_out = gaussian_array(rng, (50, 64))
        x = gaussian_array(rng, (50, 64))
        _check(d_out.T, x)
        _check(d_out.T, x[:, ::2])

    @pytest.mark.parametrize("m, k, n, at", [(50, 64, 64, 45), (400, 3, 400, 2)])
    def test_overflow_rejected(self, m, k, n, at):
        # One column of 3e38 * 3e38 products: beyond float32, still a ParameterError.
        a = np.ones((m, k), dtype=F32)
        b = np.ones((k, n), dtype=F32)
        a[:, at] = 3e38
        b[at] = 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                matmul(a, b)

    def test_temporary_is_bounded_by_the_block(self):
        # Besides the output: two float64 copies of b and, per block of rows,
        # at most six float64 arrays of _ROW_BLOCK_ELEMENTS, whatever m is.
        rng = Prng(0x4D454D)
        for m, k, n in [(1000, 64, 64), (4000, 64, 64), (4000, 32, 5)]:
            a = gaussian_array(rng, (m, k))
            b = gaussian_array(rng, (k, n))
            tracemalloc.start()
            try:
                out = matmul(a, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + 16 * k * n + 6 * 8 * tensor._ROW_BLOCK_ELEMENTS, (m, k, n, peak)


class TestOrderedAxis0Sum:
    """ordered_axis0_sum against _ordered_axis0_sum_loop, its row-by-row reference."""

    def test_random_shapes(self):
        rng = Prng(0x53554D30)
        for case in range(160):
            rows, cols = _draw(rng, 70), _draw(rng, 70)
            x = _carrier(rng, (rows, cols), (F32, np.float64)[case % 2])
            if rows and case % 3 == 0:
                x[_draw(rng, rows - 1)] = -0.0
            if cols and case % 4 == 0:
                x[:, _draw(rng, cols - 1)] = -0.0
            assert _same_bits(ordered_axis0_sum(x), _ordered_axis0_sum_loop(x)), (rows, cols, x.dtype)

    @pytest.mark.parametrize("shape", [(0, 5), (0, 0), (1, 7), (1, 0), (50, 64)])
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    def test_edge_shapes_and_signed_zeros(self, shape, dtype):
        x = gaussian_array(Prng(shape[0] * 100 + shape[1]), shape).astype(dtype)
        if shape[0]:
            x[0] = -0.0
        if shape[1]:
            x[:, 0] = -0.0
        assert _same_bits(ordered_axis0_sum(x), _ordered_axis0_sum_loop(x))

    def test_non_finite_rows(self):
        x = np.array([[3e38, -np.inf, 1.0], [3e38, np.inf, np.nan]], dtype=F32)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bits(ordered_axis0_sum(x), _ordered_axis0_sum_loop(x))


class TestOrderedAxis1Sum:
    """Column sums as softmax_rows takes them: ordered_axis0_sum of the
    transpose against _ordered_axis0_sum_loop of the same transposed view."""

    def test_random_shapes(self):
        rng = Prng(0x53554D31)
        for case in range(160):
            rows, cols = _draw(rng, 70), _draw(rng, 70)
            x = _carrier(rng, (rows, cols), (F32, np.float64)[case % 2])
            if rows and case % 3 == 0:
                x[_draw(rng, rows - 1)] = -0.0
            if cols and case % 4 == 0:
                x[:, _draw(rng, cols - 1)] = -0.0
            assert _same_bits(ordered_axis0_sum(x.T), _ordered_axis0_sum_loop(x.T)), (rows, cols, x.dtype)

    @pytest.mark.parametrize("shape", [(5, 0), (0, 0), (7, 1), (0, 1), (50, 20)])
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    def test_edge_shapes_and_signed_zeros(self, shape, dtype):
        x = gaussian_array(Prng(shape[0] * 100 + shape[1]), shape).astype(dtype)
        if shape[0]:
            x[0] = -0.0
        if shape[1]:
            x[:, 0] = -0.0
        assert _same_bits(ordered_axis0_sum(x.T), _ordered_axis0_sum_loop(x.T))

    def test_non_finite_columns(self):
        x = np.array([[3e38, 3e38], [-np.inf, np.inf], [1.0, np.nan]], dtype=F32)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bits(ordered_axis0_sum(x.T), _ordered_axis0_sum_loop(x.T))


class TestRelu:
    def test_sign_cases(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=F32)
        assert np.array_equal(relu(x), np.array([0.0, 0.0, 2.0], dtype=F32))

    def test_identity_on_positives(self):
        x = np.array([0.5, 1.5, 99.0], dtype=F32)
        assert np.array_equal(relu(x), x)

    def test_negative_clamps_to_zero(self):
        assert np.array_equal(relu(np.array([-3.5], dtype=F32)), np.array([0.0], dtype=F32))


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(np.array([[0.0, 0.0]], dtype=F32))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-7)

    def test_max_shift_prevents_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]], dtype=F32))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-7)

    def test_closed_form_quarter_three_quarters(self):
        out = softmax_rows(np.array([[0.0, math.log(3.0)]], dtype=F32))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-6)

    def test_rows_sum_to_one_across_magnitudes(self):
        rng = Prng(23)
        for scale in (1.0, 100.0, 10_000.0):
            x = gaussian_array(rng, (20, 9), 0.0, scale)
            sums = softmax_rows(x).astype(np.float64).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-6)


class TestCrossEntropy:
    def test_one_hot_correct_is_near_zero(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=F32)
        assert cross_entropy(probs, [0, 2]) == pytest.approx(0.0, abs=1e-6)

    def test_uniform_four_classes_is_ln4(self):
        probs = np.full((3, 4), 0.25, dtype=F32)
        assert cross_entropy(probs, [0, 3, 1]) == pytest.approx(math.log(4.0), abs=1e-6)

    def test_closed_form_quarter_example(self):
        probs = np.array([[0.25, 0.75]], dtype=F32)
        assert cross_entropy(probs, [1]) == pytest.approx(-math.log(0.75), abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.full((1, 2), 0.5, dtype=F32), [2])

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError, match="cross_entropy needs at least one row"):
            cross_entropy(np.zeros((0, 3), dtype=F32), [])

    def test_sums_logs_left_to_right_in_float32(self):
        rng = Prng(0x43453332)
        for _ in range(60):
            m, n = 1 + _draw(rng, 69), 1 + _draw(rng, 9)
            probs = softmax_rows(gaussian_array(rng, (m, n), 0.0, 4.0))
            labels = [_draw(rng, n - 1) for _ in range(m)]
            acc = F32(0.0)
            for v in np.log(probs[np.arange(m), labels] + F32(tensor.CE_EPSILON)):
                acc = F32(acc + v)
            got = cross_entropy(probs, labels)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(-float(acc) / m).tobytes()


class TestF16Round:
    def test_exactly_representable_values(self):
        x = np.array([0.0, 1.0, -2.5, 65504.0], dtype=F32)
        assert np.array_equal(f16_round(x), x)

    def test_point_one_rounds_to_nearest_half_float(self):
        out = f16_round(np.array([0.1], dtype=F32))
        assert out[0] == F32(0.0999755859375)

    def test_idempotent_bit_exact(self):
        rng = Prng(31)
        x = gaussian_array(rng, (257,), 0.0, 10.0)
        once = f16_round(x)
        assert np.array_equal(f16_round(once), once)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            f16_round(np.array([65505.0], dtype=F32))

    def test_non_finite_input_rejected(self):
        with pytest.raises(ParameterError):
            f16_round(np.array([np.nan], dtype=F32))


class TestPurity:
    def test_all_ops_bit_identical_on_repeat(self):
        rng = Prng(606)
        x = gaussian_array(rng, (9, 7))
        probs = softmax_rows(x)
        labels = [int(rng.next_u64() % 7) for _ in range(9)]
        assert np.array_equal(softmax_rows(x), probs)
        assert cross_entropy(probs, labels) == cross_entropy(probs, labels)
        assert np.array_equal(relu(x), relu(x))
        assert np.array_equal(f16_round(x), f16_round(x))
