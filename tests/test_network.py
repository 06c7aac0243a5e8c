"""Network math against independent oracles: hand arithmetic and float64
finite differences."""

import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import body_mutations, header_mutations, named, with_fixed_crc
from supersub.container import Writer
from supersub.delta import MODE_QAT_INT, base_fingerprint_of, compute_delta, pack, reconstruct, unpack
from supersub.errors import ContractError, DimensionError, FormatError, ParameterError
from supersub.network import (
    Network,
    NetworkConfig,
    QatConfig,
    backward,
    deserialize_network,
    effective_weights,
    forward,
    exact_lattice_indices,
    gradient_check,
    init_network,
    network_bytes,
    parameter_count,
    quantize_scale,
    quantize_with_scale,
    replace_head,
    serialize_network,
    sgd_step,
    snap_to_grid,
    tensor_items,
    write_config,
)
from supersub.tensor import F32, Prng, gaussian_array, softmax_rows


def small_net(dims=(3, 3, 3), seed=0):
    return init_network(NetworkConfig(dims), seed)


def manual_net(weights, head_bias=None, bn=None):
    """A network holding these weights, this head bias (zeros when None),
    and on hidden layer i the (gamma, beta, running mean, running variance)
    of bn[i], identity batch norm (1, 0, 0, 1) when bn is None."""
    weights = [np.array(w, dtype=F32) for w in weights]
    dims = (weights[0].shape[1], *(w.shape[0] for w in weights))
    if head_bias is None:
        head_bias = np.zeros(dims[-1])
    if bn is None:
        bn = [(np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)) for n in dims[1:-1]]
    tensors = []
    for w, stats in zip(weights, bn):
        tensors += [w, *(np.array(t, dtype=F32) for t in stats)]
    return Network(NetworkConfig(dims), (*tensors, weights[-1], np.array(head_bias, dtype=F32)))


def own_grid(t):
    """t quantized and dequantized on the grid of its own scale."""
    return quantize_with_scale(t, quantize_scale(t))


class TestInit:
    def test_biases_all_zero(self):
        t = named(small_net((4, 8, 3), seed=5))
        assert not t["head.bias"].any()
        assert np.array_equal(t["layer0.bn_gamma"], np.ones(8, dtype=F32))
        assert not t["layer0.bn_beta"].any()
        assert not t["layer0.bn_mean"].any()
        assert np.array_equal(t["layer0.bn_var"], np.ones(8, dtype=F32))

    def test_same_seed_bit_identical(self):
        a = small_net((6, 5, 4), seed=77)
        b = small_net((6, 5, 4), seed=77)
        assert serialize_network(a) == serialize_network(b)

    def test_he_variance_within_ten_percent(self):
        net = small_net((100, 128, 2), seed=3)
        w = named(net)["layer0.weight"]
        assert w.size >= 10_000
        target = 2.0 / 100
        assert abs(float(w.var()) - target) / target < 0.10

    def test_invalid_dims_rejected(self):
        with pytest.raises(ParameterError):
            NetworkConfig((4, 0, 2))
        with pytest.raises(ParameterError):
            NetworkConfig((4, 2))


class TestForward:
    def test_zero_weights_yield_bias_logits(self):
        net = manual_net(
            weights=[np.zeros((2, 3)), np.zeros((4, 2))],
            head_bias=[1.0, 2.0, 3.0, 4.0],
            bn=[([1.0, 1.0], [0.5, -0.5], [0.0, 0.0], [1.0, 1.0])],
        )
        logits, _ = forward(net, np.zeros((3, 3), dtype=F32))
        np.testing.assert_array_equal(logits, np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)).astype(F32))

    def test_hand_computed_2_2_2(self):
        net = manual_net(
            weights=[[[1.0, -1.0], [0.5, 2.0]], [[1.0, 1.0], [-1.0, 0.5]]],
            head_bias=[0.0, 0.5],
            bn=[([1.0, 0.5], [0.1, -0.2], [0.1, 0.5], [4.0, 1.0])],
        )
        x = np.array([[1.0, 2.0]], dtype=F32)
        # Dense:      z = [1-2, 0.5+4] = [-1, 4.5]
        # Batch norm: (z - mean) / sqrt(var + 1e-5) = [-1.1/2, 4.0/1] (to ~1e-5)
        #             * gamma + beta = [-0.55+0.1, 2.0-0.2] = [-0.45, 1.8]; relu -> [0, 1.8]
        # Head:       [0+1.8+0, -0+0.9+0.5] = [1.8, 1.4]
        logits, _ = forward(net, x)
        np.testing.assert_allclose(logits, [[1.8, 1.4]], atol=1e-4)

    def test_inference_rows_are_batch_independent(self):
        net = small_net((5, 6, 4), seed=9)
        rng = Prng(10)
        batch = gaussian_array(rng, (8, 5))
        full, _ = forward(net, batch, training=False)
        single, _ = forward(net, batch[3:4], training=False)
        assert np.array_equal(full[3:4], single)

    def test_width_mismatch(self):
        net = small_net((5, 4, 3))
        with pytest.raises(DimensionError):
            forward(net, np.zeros((2, 6), dtype=F32))

    def test_training_mode_reports_bn_updates(self):
        net = small_net((4, 4, 2), seed=1)
        rng = Prng(2)
        _, cache = forward(net, gaussian_array(rng, (6, 4)), training=True)
        assert cache.layer_caches[0].bn_update is not None
        _, inference_cache = forward(net, gaussian_array(rng, (6, 4)), training=False)
        assert inference_cache.layer_caches[0].bn_update is None


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences_with_bn(self, seed):
        net = small_net((3, 3, 3), seed=seed)
        rng = Prng(seed + 200)
        batch = gaussian_array(rng, (5, 3))
        labels = [rng.next_u64() % 3 for _ in range(5)]
        assert gradient_check(net, batch, labels, eps=1e-4) < 1e-4

    def test_perfect_predictions_give_near_zero_gradients(self):
        net = manual_net(weights=[np.zeros((3, 3)), np.zeros((3, 3))], head_bias=[50.0, 0.0, 0.0])
        batch = np.ones((4, 3), dtype=F32)
        logits, cache = forward(net, batch, training=True)
        grads = backward(net, cache, softmax_rows(logits), [0, 0, 0, 0])
        assert max(float(np.abs(g).max()) for g in grads.tensors) < 1e-6

    def test_duplicated_batch_same_gradients(self):
        net = small_net((4, 5, 3), seed=8)
        rng = Prng(80)
        batch = gaussian_array(rng, (6, 4))
        labels = np.array([rng.next_u64() % 3 for _ in range(6)], dtype=np.int64)
        logits, cache = forward(net, batch, training=True)
        base = backward(net, cache, softmax_rows(logits), labels)
        doubled = np.repeat(batch, 2, axis=0)
        logits2, cache2 = forward(net, doubled, training=True)
        twice = backward(net, cache2, softmax_rows(logits2), np.repeat(labels, 2))
        # The mean gradient is invariant to row duplication; sequential f32
        # accumulation of the halved terms leaves only rounding-level drift.
        for a, b in zip(base.tensors, twice.tensors, strict=True):
            np.testing.assert_allclose(a, b, atol=1e-6, rtol=1e-5)

    def test_gradients_share_the_network_layout(self):
        net = small_net((3, 4, 2), seed=6)
        logits, cache = forward(net, gaussian_array(Prng(1), (4, 3)), training=True)
        grads = backward(net, cache, softmax_rows(logits), [0, 1, 0, 1])
        assert grads.config == net.config
        g = named(grads)
        assert not g["layer0.bn_mean"].any() and not g["layer0.bn_var"].any()  # never read in training

    def test_inference_cache_rejected(self):
        net = small_net((3, 3, 3))
        logits, cache = forward(net, np.zeros((2, 3), dtype=F32), training=False)
        with pytest.raises(ContractError):
            backward(net, cache, softmax_rows(logits), [0, 0])

    def test_label_count_mismatch(self):
        net = small_net((3, 3, 3))
        logits, cache = forward(net, np.zeros((2, 3), dtype=F32), training=True)
        with pytest.raises(ContractError):
            backward(net, cache, softmax_rows(logits), [0])

    @pytest.mark.parametrize("shape", [(4, 4), (3, 3), (5, 3), (12,), (4, 3, 1)])
    def test_probabilities_of_another_shape_rejected(self, shape):
        # A batch of 4 rows over 3 classes needs probabilities of shape (4, 3).
        net = small_net((3, 4, 3))
        _, cache = forward(net, gaussian_array(Prng(2), (4, 3)), training=True)
        with pytest.raises(ContractError, match="probabilities of shape"):
            backward(net, cache, np.full(shape, F32(0.25)), [0, 1, 2, 0])


def training_cache(net, rows=4, seed=1):
    """The cache of a training forward of net over rows seeded rows."""
    return forward(net, gaussian_array(Prng(seed), (rows, net.input_dim)), training=True)[1]


class TestSgdStep:
    def test_lr_zero_is_identity(self):
        # lr 0 keeps every trainable tensor bit for bit; the running
        # statistics are still committed from the cache.
        net = small_net((3, 4, 2), seed=6)
        logits, cache = forward(net, gaussian_array(Prng(1), (4, 3)), training=True)
        grads = backward(net, cache, softmax_rows(logits), [0, 1, 0, 1])
        stepped, t = named(sgd_step(net, grads, 0.0, cache)), named(net)
        for name in ("layer0.weight", "layer0.bn_gamma", "layer0.bn_beta", "head.weight", "head.bias"):
            assert stepped[name].tobytes() == t[name].tobytes(), name
        mean, var = cache.layer_caches[0].bn_update
        assert stepped["layer0.bn_mean"].tobytes() == mean.tobytes()
        assert stepped["layer0.bn_var"].tobytes() == var.tobytes()
        assert not np.array_equal(mean, t["layer0.bn_mean"])

    def test_zero_gradients_are_identity(self):
        # Every trainable tensor stays bit for bit; only the running
        # statistics move, to the cache's momentum update.
        net = small_net((3, 4, 2), seed=6)
        zeroed = Network(net.config, tuple(np.zeros_like(t) for t in net.tensors))
        cache = training_cache(net)
        stepped, t = named(sgd_step(net, zeroed, 0.5, cache)), named(net)
        mean, var = cache.layer_caches[0].bn_update
        assert stepped.pop("layer0.bn_mean").tobytes() == mean.tobytes()
        assert stepped.pop("layer0.bn_var").tobytes() == var.tobytes()
        for name, got in stepped.items():
            assert got.tobytes() == t[name].tobytes(), name

    def test_single_weight_arithmetic(self):
        net = manual_net(weights=[[[1.0]], [[1.0]]])
        g = manual_net(weights=[[[0.5]], [[0.0]]])
        stepped = sgd_step(net, g, 0.01, training_cache(net))
        expected = F32(1.0) - F32(0.01) * F32(0.5)
        assert named(stepped)["layer0.weight"][0, 0] == expected
        assert named(stepped)["layer0.weight"][0, 0] == pytest.approx(0.995, abs=1e-7)

    def test_shape_mismatch_rejected(self):
        net = small_net((3, 4, 2), seed=6)
        with pytest.raises(ContractError, match="does not match"):
            sgd_step(net, small_net((1, 1, 1), seed=6), 0.1, training_cache(net))

    def test_layer_count_or_missing_batchnorm_gradient_rejected(self):
        # Every hidden layer has batch norm, so a gradient can lack its
        # slots only by lacking the layer: one of another depth.
        net = small_net((3, 4, 4, 2), seed=6)
        cache = training_cache(net)
        for dims in ((3, 4, 2), (3, 4, 4, 4, 2)):
            with pytest.raises(ContractError, match="does not match"):
                sgd_step(net, small_net(dims, seed=6), 0.1, cache)

    def test_inference_cache_rejected(self):
        net = small_net((3, 4, 2), seed=6)
        _, cache = forward(net, gaussian_array(Prng(1), (4, 3)), training=False)
        with pytest.raises(ContractError, match="training-mode forward"):
            sgd_step(net, net, 0.1, cache)

    @pytest.mark.parametrize(
        "net_dims, cache_dims", [((3, 4, 2), (3, 4, 4, 2)), ((3, 4, 4, 2), (3, 4, 2))], ids=["deeper", "shallower"]
    )
    def test_cache_of_another_depth_rejected(self, net_dims, cache_dims):
        net = small_net(net_dims, seed=6)
        with pytest.raises(ContractError, match="training-mode forward"):
            sgd_step(net, net, 0.1, training_cache(small_net(cache_dims, seed=6)))

    def test_running_stats_come_from_the_cache_and_every_other_slot_steps(self):
        # Every tensor random, a negative zero in the first running mean and
        # the first weight: each running-stat slot is its layer's bn_update,
        # bit for bit, and every other slot is t - lr * g in float32.
        net = random_net(seed=11)
        t = named(net)
        for name in ("layer0.bn_mean", "layer0.weight"):
            t[name] = t[name].copy()
            t[name].flat[0] = F32(-0.0)
        net = Network(net.config, tuple(t.values()))
        logits, cache = forward(net, gaussian_array(Prng(12), (6, 5)), training=True)
        grads = named(backward(net, cache, softmax_rows(logits), [2, 1, 0, 0, 1, 2]))
        stepped = named(sgd_step(net, Network(net.config, tuple(grads.values())), 0.3, cache))
        assert list(stepped) == list(t)
        for name, got in stepped.items():
            layer, _, slot = name.partition(".")
            if slot in ("bn_mean", "bn_var"):
                want = cache.layer_caches[int(layer[5:])].bn_update[slot == "bn_var"]
            else:
                want = (t[name] - F32(0.3) * grads[name]).astype(F32)
            assert got.dtype == F32 and got.tobytes() == want.tobytes(), name
        assert stepped["layer0.bn_mean"].tobytes() != t["layer0.bn_mean"].tobytes()


class TestGradientCheckContract:
    def test_eps_zero_rejected(self):
        net = small_net((3, 3, 3))
        with pytest.raises(ParameterError):
            gradient_check(net, np.zeros((2, 3), dtype=F32), [0, 1], eps=0.0)

    def test_large_net_rejected(self):
        net = small_net((100, 120, 10), seed=0)
        assert parameter_count(net) > 10_000
        with pytest.raises(ContractError):
            gradient_check(net, np.zeros((2, 100), dtype=F32), [0, 1])

    def test_leaves_network_untouched(self):
        net = small_net((3, 4, 3), seed=9)
        before = serialize_network(net)
        gradient_check(net, gaussian_array(Prng(90), (4, 3)), [0, 1, 2, 0])
        assert serialize_network(net) == before


class TestFakeQuantize:
    def test_zero_tensor_unchanged(self):
        z = np.zeros(7, dtype=F32)
        assert np.array_equal(own_grid(z), z)

    def test_idempotent_on_grid(self):
        rng = Prng(44)
        t = gaussian_array(rng, (64,))
        once = own_grid(t)
        assert np.array_equal(own_grid(once), once)

    def test_half_rounds_away_from_zero(self):
        t = np.array([-1.0, 0.5, 1.0], dtype=F32)
        out = own_grid(t)
        scale = F32(1.0) / F32(127)
        assert out[0] == -F32(127) * scale
        assert out[1] == F32(64) * scale  # 63.5 rounds away from zero to 64
        assert out[1] == pytest.approx(0.503937, abs=1e-6)
        assert out[2] == F32(127) * scale

    def test_grid_membership_via_indices(self):
        rng = Prng(45)
        t = gaussian_array(rng, (33,), 0.0, 2.0)
        s = quantize_scale(t)
        q = quantize_with_scale(t, s)
        idx = exact_lattice_indices(q, s)  # not None: idx * s is q, element for element
        assert idx is not None
        assert int(np.abs(idx).max()) <= 127

    @pytest.mark.parametrize("huge", [3e9, 2.0**31, 2.0**40, 3e38])
    def test_clamps_before_any_integer_cast(self, huge):
        # Past 2**31 grid steps a cast before the clamp wraps to INT_MIN,
        # then -127, and warns; clamped first, the sign survives, in a
        # snapped weight as in a fake-quantized one.
        t = np.array([huge, -huge, 1.0, -1.0], dtype=F32)
        snapped = snap_to_grid(manual_net([[t], [[1.0]]]), body_scales=(1.0,) * 5)
        assert named(snapped)["layer0.weight"].tolist() == [[127.0, -127.0, 1.0, -1.0]]
        assert quantize_with_scale(t, 2.0).tolist() == [254.0, -254.0, 2.0, -2.0]

    def test_equals_the_int32_round_trip_in_range(self):
        # The replaced form: indices through int32, clamped, back to float32.
        def round_trip(t, s):
            scaled = t / F32(s)
            q = np.copysign(np.floor(np.abs(scaled) + F32(0.5)), scaled).astype(np.int32)
            return (np.clip(q, -127, 127).astype(F32) * F32(s)).astype(F32)

        rng = Prng(46)
        for trial in range(60):
            sigma = 10.0 ** (trial % 9 - 4)
            t = gaussian_array(rng, (97,), 0.0, sigma)
            t[trial % 97] = -0.0
            t[(trial + 1) % 97] = -t[(trial + 1) % 97] * F32(1e-9)  # rounds to a signed zero
            for s in (quantize_scale(t), quantize_scale(t) * 0.3, quantize_scale(t) * 7.0):
                t[(trial + 2) % 97] = F32(s) * F32(trial - 30.5)  # an exact half
                got, want = quantize_with_scale(t, s), round_trip(t, s)
                assert got.dtype == F32 and got.tobytes() == want.tobytes(), (trial, s)
                assert not np.signbit(got[got == 0]).any()


class TestSnapAndEffectiveWeights:
    def test_snap_records_quant_info(self):
        net = small_net((4, 6, 3), seed=12)
        snapped = snap_to_grid(net)
        assert snapped.quant is not None
        # one scale per tensor, in layout order: 2 weights, 4 bn tensors, the head bias
        assert len(snapped.quant.scales) == 7
        for (_, t, is_weight), s in zip(tensor_items(snapped), snapped.quant.scales, strict=True):
            if is_weight:
                assert np.array_equal(quantize_with_scale(t, s), t)

    def test_effective_weights_live_grid(self):
        net = small_net((4, 6, 3), seed=13)
        masters = [t for _, t, is_weight in tensor_items(net) if is_weight]
        for w, master in zip(effective_weights(net, QatConfig()), masters, strict=True):
            assert np.array_equal(w, own_grid(master))

    def test_shared_body_scales_pinned(self):
        base = snap_to_grid(small_net((4, 6, 3), seed=14))
        net = small_net((4, 6, 5), seed=15)
        qat = QatConfig(base.quant.body_scales())
        body_w, head_w = effective_weights(net, qat)
        # The body weight (layout entry 0) sits on the base's pinned grid, the head on its own.
        pinned = base.quant.scales[0]
        t = named(net)
        assert qat.scale(0, t["layer0.weight"]) == pinned
        assert np.array_equal(body_w, quantize_with_scale(t["layer0.weight"], pinned))
        assert np.array_equal(head_w, own_grid(t["head.weight"]))


def plain_network_bytes(dims) -> bytes:
    """An HSNW file of all-zero tensors with these layer dims, written field by
    field (so any dims), with no quantization block."""
    w = Writer().raw(b"HSNW").u16(3).u32(len(dims))
    for dim in dims:
        w.u32(dim)
    w.u8(0)
    n_values = sum(fan_in * fan_out + 4 * fan_out for fan_in, fan_out in zip(dims, dims[1:])) - 3 * dims[-1]
    return w.raw(bytes(4 * n_values)).finish()


def quant_block_at(config: NetworkConfig) -> int:
    """Offset of an HSNW file's quantization flag: after the magic, the
    version and the config header."""
    header = Writer()
    write_config(header, config)
    return 6 + len(header.body())


def with_first_value(net: Network, value) -> bytes:
    """net's HSNW file with the first element of its first tensor set to
    value (float32), CRC re-fixed."""
    data = serialize_network(net)
    at = quant_block_at(net.config) + 1 + (0 if net.quant is None else 4 * len(net.quant.scales))
    return with_fixed_crc(data[:at] + struct.pack("<f", value) + data[at + 4 :])


class TestNetworkContainer:
    @pytest.mark.parametrize("quantized", [False, True])
    def test_round_trip_bit_exact(self, quantized):
        net = small_net((7, 5, 4, 3), seed=21)
        if quantized:
            net = snap_to_grid(net)
        blob = serialize_network(net)
        again = deserialize_network(blob)
        assert serialize_network(again) == blob

    def test_quant_info_round_trips(self):
        net = snap_to_grid(small_net((4, 6, 3), seed=22))
        again = deserialize_network(serialize_network(net))
        assert again.quant == net.quant

    def test_corrupted_crc_detected(self):
        blob = bytearray(serialize_network(small_net(seed=1)))
        blob[-2] ^= 0x40
        with pytest.raises(FormatError):
            deserialize_network(bytes(blob))

    def test_version_1_file_is_format_error(self):
        data = serialize_network(snap_to_grid(small_net((4, 6, 3), seed=22)))
        with pytest.raises(FormatError, match="unsupported version 1"):
            deserialize_network(with_fixed_crc(data[:4] + (1).to_bytes(2, "little") + data[6:]))

    def test_version_2_file_is_format_error(self):
        # Version 2 stored a dense bias and a batch-norm flag per hidden
        # layer, and a bits byte in the quantization block.
        data = serialize_network(snap_to_grid(small_net((4, 6, 3), seed=22)))
        with pytest.raises(FormatError, match="unsupported version 2"):
            deserialize_network(with_fixed_crc(data[:4] + (2).to_bytes(2, "little") + data[6:]))

    def test_no_tensor_name_or_scale_count_is_stored(self):
        # The quantization block is the flag, then one f32 per
        # tensor_shapes entry in layout order: no count, no bits and no names.
        net = snap_to_grid(small_net((4, 6, 3), seed=22))
        data = serialize_network(net)
        at = quant_block_at(net.config)
        block = bytes([1]) + struct.pack(f"<{len(net.quant.scales)}f", *net.quant.scales)
        assert data[at : at + len(block)] == block
        assert len(data) == at + len(block) + 4 * parameter_count(net) + 4

    @pytest.mark.parametrize("value", [2, 7, 0xFF])
    @pytest.mark.parametrize("flag", ["quantization"])  # the one flag byte of any format
    def test_flag_byte_other_than_0_or_1_is_format_error(self, flag, value):
        # Read as true, such a byte would load the network its 1 gives, whose
        # file, and so its fingerprint, would be other bytes.
        net = snap_to_grid(small_net((4, 6, 3), seed=22))
        data = serialize_network(net)
        at = quant_block_at(net.config)
        assert data[at] == 1
        with pytest.raises(FormatError, match=rf"{flag} flag byte {value:#04x} .* offset {at}\)"):
            deserialize_network(with_fixed_crc(data[:at] + bytes([value]) + data[at + 1 :]))

    def test_overflowing_dims_are_format_error(self):
        w = Writer().raw(b"HSNW").u16(3).u32(3)
        for dim in (2**32 - 1, 2**32 - 1, 2):
            w.u32(dim)
        w.u8(0)  # no quant block
        with pytest.raises(FormatError):
            deserialize_network(w.finish())

    @pytest.mark.parametrize(
        "edit",
        ["one_short", "one_extra", "zero_scale", "negative_scale", "nan_scale"],
    )
    def test_quant_block_must_scale_every_tensor_once(self, edit):
        net = snap_to_grid(small_net((4, 6, 3), seed=22))
        blob = bytearray(serialize_network(net))
        scale = quant_block_at(net.config) + 1  # the first scale, layer0.weight's
        if edit == "one_short":
            del blob[scale : scale + 4]
        elif edit == "one_extra":
            blob[scale:scale] = blob[scale : scale + 4]
        else:
            value = {"zero_scale": 0.0, "negative_scale": -1.0, "nan_scale": math.nan}[edit]
            blob[scale : scale + 4] = struct.pack("<f", value)
        with pytest.raises(FormatError):
            deserialize_network(with_fixed_crc(bytes(blob)))

    @pytest.mark.parametrize("dims", [(8, 0, 16, 2), (8, 16, 0)])
    def test_zero_width_layer_is_format_error(self, dims):
        with pytest.raises(FormatError, match="dims must be >= 1"):
            deserialize_network(plain_network_bytes(dims))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("quantized", [False, True], ids=["plain", "quantized"])
    def test_non_finite_tensor_is_format_error(self, quantized, value):
        net = small_net((4, 6, 3), seed=25)
        data = with_first_value(snap_to_grid(net) if quantized else net, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite"):
                deserialize_network(data)

    @pytest.mark.parametrize("edit", ["next_float", "huge"])
    def test_off_grid_tensor_is_format_error(self, edit):
        net = snap_to_grid(small_net((4, 6, 3), seed=26))
        first = named(net)["layer0.weight"].flat[0]
        value = np.nextafter(first, F32(np.inf)) if edit == "next_float" else 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="off the lattice"):
                deserialize_network(with_first_value(net, value))

    def test_header_mutations_are_rejected_or_read_back(self):
        net = snap_to_grid(small_net((4, 6, 3), seed=23))
        data = serialize_network(net)
        rejected = 0
        # The header runs through the quantization block: flag, scales.
        for _, mutated in header_mutations(data, quant_block_at(net.config) + 1 + 4 * len(net.quant.scales)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    net = deserialize_network(mutated)
                except FormatError:
                    rejected += 1
                    continue
            assert serialize_network(net) == mutated  # one encoding per network
        assert rejected

    def test_body_mutations_are_rejected_or_read_back(self):
        data = serialize_network(snap_to_grid(small_net((4, 6, 3), seed=24)))
        outcomes = {"rejected": 0, "read_back": 0}
        for mutated in body_mutations(data, 300, seed=0xB0D1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    net = deserialize_network(mutated)
                except FormatError:
                    outcomes["rejected"] += 1
                    continue
            assert serialize_network(net) == mutated
            outcomes["read_back"] += 1
        assert outcomes["rejected"] and outcomes["read_back"], outcomes

    def test_truncation_detected(self):
        blob = serialize_network(small_net(seed=1))
        with pytest.raises(FormatError):
            deserialize_network(blob[:30])

    def test_random_configs_round_trip(self):
        rng = Prng(1000)
        for trial in range(20):
            dims = [2 + rng.next_u64() % 5 for _ in range(3 + rng.next_u64() % 2)]
            net = small_net(tuple(int(d) for d in dims), seed=trial)
            blob = serialize_network(net)
            assert serialize_network(deserialize_network(blob)) == blob


class TestStructureHelpers:
    def test_replace_head_preserves_body(self):
        net = small_net((5, 6, 6, 4), seed=30)
        wider = replace_head(net, 9, seed=31)
        assert wider.head_dim == 9
        assert wider.config == net.config.with_head(9)
        old, new = named(net), named(wider)
        for name in old:
            if not name.startswith("head."):
                assert np.array_equal(old[name], new[name]), name

    def test_network_bytes_counts_buffers(self):
        net = small_net((4, 6, 3), seed=2)
        # weights 24+18, bn 4*6, head bias 3
        assert parameter_count(net) == 24 + 18 + 24 + 3
        assert network_bytes(net) == 4 * parameter_count(net)


class TestFromTensors:
    """A Network is built from its config and one tensor per tensor_shapes
    entry, and its constructor checks the count, every shape and the
    quantization block's scale count."""

    @pytest.mark.parametrize("deep", [False, True])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_inverts_tensor_items(self, deep, quantized):
        net = small_net((7, 5, 4, 3) if deep else (7, 5, 3), seed=23)
        if quantized:
            net = snap_to_grid(net)
        again = Network(net.config, tuple(t for _, t, _ in tensor_items(net)), net.quant)
        assert serialize_network(again) == serialize_network(net)

    def test_wrong_or_missing_tensor_rejected(self):
        net = small_net((4, 6, 3), seed=2)
        tensors = named(net)
        tensors["layer0.bn_var"] = np.ones(5, dtype=F32)
        with pytest.raises(ContractError, match="layer0.bn_var"):
            Network(net.config, tuple(tensors.values()))
        del tensors["layer0.bn_var"]
        with pytest.raises(ContractError, match="6 tensors for the 7"):
            Network(net.config, tuple(tensors.values()))

    def test_one_quantization_scale_per_tensor(self):
        net = snap_to_grid(small_net((4, 6, 3), seed=2))
        for scales in (net.quant.scales[1:], (*net.quant.scales, 1.0)):
            with pytest.raises(ContractError, match="quantization scales"):
                replace(net, quant=replace(net.quant, scales=scales))


def random_net(seed):
    """A (5, 6, 4, 3) network, every tensor random, its tuple built layer
    by layer by hand: weight, then gamma, beta, running mean and running
    variance; the head's weight and bias last."""
    rng = Prng(seed)
    dims = (5, 6, 4, 3)

    def vec(n):
        return gaussian_array(rng, (n,), 0.0, 1.0)

    tensors = []
    for fan_in, fan_out in zip(dims, dims[1:-1]):
        bn = [vec(fan_out), vec(fan_out), vec(fan_out), np.abs(vec(fan_out)) + F32(0.5)]
        tensors += [gaussian_array(rng, (fan_out, fan_in), 0.0, 1.0), *bn]
    tensors += [gaussian_array(rng, (dims[-1], dims[-2]), 0.0, 1.0), vec(dims[-1])]
    return Network(NetworkConfig(dims), tuple(tensors))
