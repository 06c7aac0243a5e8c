"""Numeric substrate: PRNG determinism, elementary ops, precision casts."""

import math
import tracemalloc

import numpy as np
import pytest

from supersub.errors import DimensionError, ParameterError
from supersub.tensor import (
    F32,
    _BLOCK_ELEMENTS,
    Prng,
    _matmul_blocked,
    _matmul_loop,
    _ordered_axis0_sum_loop,
    _ordered_scalar_sum_loop,
    cross_entropy,
    f16_round,
    gaussian,
    gaussian_array,
    matmul,
    ordered_axis0_sum,
    ordered_scalar_sum,
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
        with pytest.raises(DimensionError) as err:
            matmul(np.zeros((2, 3), dtype=F32), np.zeros((4, 2), dtype=F32))
        assert err.value.left_shape == (2, 3)
        assert err.value.right_shape == (4, 2)

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


def _carrier(rng, shape, dtype):
    """Gaussian entries on a dtype carrier, half the time as a transposed view."""
    if rng.next_u64() % 2:
        return gaussian_array(rng, shape[::-1]).astype(dtype).T
    return gaussian_array(rng, shape).astype(dtype)


class TestMatmulKernels:
    """matmul against _matmul_loop, the t-loop its accumulate kernel replaces."""

    def test_random_shapes_both_sides_of_the_threshold(self):
        rng = Prng(0x4D41544D)
        outputs = []
        for case in range(240):
            m, k, n = _draw(rng, 40), _draw(rng, 40), 1 + _draw(rng, 39)
            a = _carrier(rng, (m, k), (F32, np.float64)[case % 2])
            b = _carrier(rng, (k, n), (F32, np.float64)[case % 3 == 0])
            if m and case % 4 == 0:
                a[_draw(rng, m - 1)] = -0.0
            if case % 5 == 0:
                b[:, _draw(rng, n - 1)] = -0.0
            assert _same_bits(matmul(a, b), _matmul_loop(a, b)), (m, k, n, a.dtype, b.dtype)
            outputs.append(m * n)
        assert min(outputs) == 0 and any(1 <= x <= 512 for x in outputs) and max(outputs) > 512

    @pytest.mark.parametrize("m, k, n", [(1, 7, 5), (1, 64, 64), (8, 3, 64), (3, 1, 2), (9, 4, 60)])
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    def test_signed_zero_rows_and_columns(self, m, k, n, dtype):
        # A product sums to -0.0 only when all its terms are -0.0; the loop,
        # starting from +0.0, returns +0.0 there.
        rng = Prng(m * 1000 + k * 100 + n)
        a = np.abs(gaussian_array(rng, (m, k))).astype(dtype)
        b = np.abs(gaussian_array(rng, (k, n))).astype(dtype)
        a[0] = -0.0
        b[:, -1] = -0.0
        out = matmul(a, b)
        assert _same_bits(out, _matmul_loop(a, b))
        assert not np.signbit(out).any()

    @pytest.mark.parametrize(
        "m, k, n", [(0, 3, 4), (3, 0, 4), (0, 0, 1), (1, 1, 1), (1, 64, 5), (1, 16, 512), (1, 16, 513)]
    )
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    def test_edge_shapes(self, m, k, n, dtype):
        rng = Prng(m + 7 * k + 31 * n)
        a = gaussian_array(rng, (m, k)).astype(dtype)
        b = gaussian_array(rng, (k, n)).astype(dtype)
        assert _same_bits(matmul(a, b), _matmul_loop(a, b))

    def test_transposed_gradient_views(self):
        # backward's d_weight = matmul(d_out.T, x): a strided left operand.
        rng = Prng(0x7E57)
        d_out = gaussian_array(rng, (16, 5))
        x = gaussian_array(rng, (16, 64))
        assert _same_bits(matmul(d_out.T, x), _matmul_loop(d_out.T, x))
        assert _same_bits(matmul(d_out.T, x[:, ::2]), _matmul_loop(d_out.T, x[:, ::2]))


class TestMatmulBlocked:
    """_matmul_blocked, the kernel matmul runs for m*n > 512, against _matmul_loop."""

    @staticmethod
    def _check(a, b):
        expected = _matmul_loop(a, b)
        assert _same_bits(_matmul_blocked(a, b), expected), (a.shape, b.shape, a.dtype, b.dtype)
        assert _same_bits(matmul(a, b), expected)

    def test_random_batch_shapes(self):
        rng = Prng(0x424C4B44)
        blocks = []
        for case in range(120):
            m, n = 8 + _draw(rng, 72), 8 + _draw(rng, 72)
            if m * n <= 512:
                n = 513 // m + 1
            k = _draw(rng, 80)
            a = _carrier(rng, (m, k), (F32, np.float64)[case % 2])
            b = _carrier(rng, (k, n), (F32, np.float64)[case % 3 == 0])
            if k and case % 4 == 0:
                a[_draw(rng, m - 1)] = -0.0
            if case % 5 == 0:
                b[:, _draw(rng, n - 1)] = -0.0
            self._check(a, b)
            blocks.append(-(-k // (_BLOCK_ELEMENTS // (m * n))))
        assert {0, 1} <= set(blocks) and max(blocks) > 1

    @pytest.mark.parametrize(
        "m, k, n",
        [
            (19, 9, 27),  # m*n = 513, just above the accumulate kernel
            (64, 5, 64),  # step 32: k below it
            (64, 32, 64),  # k equal to the step
            (64, 64, 64),  # k a multiple of the step
            (50, 64, 64),  # step 40: one full block and one of 24
            (64, 50, 32),  # step 64: k below it
            (400, 3, 400),  # m*n above _BLOCK_ELEMENTS: step 1
            (30, 0, 30),  # k = 0
            (0, 6, 600),  # m = 0
        ],
    )
    @pytest.mark.parametrize("dtypes", [(F32, F32), (np.float64, np.float64), (F32, np.float64)])
    def test_block_boundaries(self, m, k, n, dtypes):
        rng = Prng(m * 10000 + k * 100 + n)
        a = gaussian_array(rng, (m, k)).astype(dtypes[0])
        b = gaussian_array(rng, (k, n)).astype(dtypes[1])
        self._check(a, b)

    @pytest.mark.parametrize("m, k, n", [(9, 4, 60), (50, 64, 64), (64, 50, 32), (400, 2, 400)])
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    def test_signed_zero_rows_and_columns(self, m, k, n, dtype):
        # The loop adds the first product to +0.0, so an all -0.0 column of
        # products sums to +0.0; seeding the output from it would keep -0.0.
        rng = Prng(m * 1000 + k * 100 + n)
        a = np.abs(gaussian_array(rng, (m, k))).astype(dtype)
        b = np.abs(gaussian_array(rng, (k, n))).astype(dtype)
        a[0] = -0.0
        b[:, -1] = -0.0
        self._check(a, b)
        assert not np.signbit(matmul(a, b)).any()

    def test_transposed_gradient_views(self):
        # backward's d_weight = matmul(d_out.T, x) at a training shape.
        rng = Prng(0x7E58)
        d_out = gaussian_array(rng, (50, 64))
        x = gaussian_array(rng, (50, 64))
        self._check(d_out.T, x)
        self._check(d_out.T, x[:, ::2])

    @pytest.mark.parametrize("m, k, n, at", [(50, 64, 64, 45), (400, 3, 400, 2)])
    def test_overflow_rejected(self, m, k, n, at):
        # Overflow in a later block, and in step-1 blocks, still raises.
        a = np.ones((m, k), dtype=F32)
        b = np.ones((k, n), dtype=F32)
        a[:, at] = 3e38
        b[at] = 3e38
        with pytest.raises(ParameterError):
            matmul(a, b)
        with pytest.raises(ParameterError):
            _matmul_loop(a, b)

    def test_temporary_is_bounded_by_the_block(self):
        rng = Prng(0x4D454D)
        a = gaussian_array(rng, (1000, 64))
        b = gaussian_array(rng, (64, 64))
        tracemalloc.start()
        try:
            out = matmul(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + _BLOCK_ELEMENTS * out.itemsize + 64 * 1024, peak


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


class TestOrderedScalarSum:
    """ordered_scalar_sum against _ordered_scalar_sum_loop, its element-by-element reference."""

    @staticmethod
    def _check(vec):
        got, expected = ordered_scalar_sum(vec), _ordered_scalar_sum_loop(vec)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (vec, got, expected)

    def test_random_lengths(self):
        rng = Prng(0x53554D32)
        for case in range(160):
            vec = gaussian_array(rng, (_draw(rng, 70),)).astype((F32, np.float64)[case % 2])
            if vec.size and case % 3 == 0:
                vec[: _draw(rng, vec.size - 1) + 1] = -0.0
            self._check(vec)

    @pytest.mark.parametrize(
        "values", [[], [-0.0], [-0.0, -0.0, -0.0], [0.0, -0.0], [-0.0, 2.5, -2.5, -0.0], [1.0, -1.0]]
    )
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    def test_signed_zeros(self, values, dtype):
        # The loop starts from +0.0, so it never returns -0.0.
        vec = np.array(values, dtype=dtype)
        self._check(vec)
        assert math.copysign(1.0, ordered_scalar_sum(vec)) == 1.0

    def test_non_finite_and_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"):
            self._check(np.array([3e38, 3e38, -np.inf], dtype=F32))
            self._check(np.array([1.0, np.nan, 2.0], dtype=F32))
            self._check(np.array([np.inf, -np.inf], dtype=np.float64))


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
        with pytest.raises(DimensionError):
            cross_entropy(np.zeros((0, 3), dtype=F32), [])


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
