"""Delta extraction, lossless packing, exact qat-int reconstruction."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import header_mutations, with_fixed_crc
from supersub.container import Writer, crc32c, deflate, inflate
from supersub.delta import (
    KIND_F16_DELTA,
    KIND_F32_VALUE,
    KIND_I16_GRID_DELTA,
    KIND_XOR32_DELTA,
    DeltaEntry,
    MODE_FP16,
    MODE_QAT_INT,
    base_fingerprint_of,
    compression_ratio,
    compute_delta,
    pack,
    quantized_network_bytes,
    reconstruct,
    unpack,
)
from supersub.errors import (
    BaseMismatchError,
    ContractError,
    DeltaModeError,
    FormatError,
    ParameterError,
)
from supersub.network import (
    deserialize_network,
    init_network,
    serialize_network,
    snap_to_grid,
    uniform_config,
)
from supersub.tensor import F32, Prng
from supersub.train import LabelView, TrainConfig, finetune_from_super, train


def build_net(head=3, seed=0, batchnorm=True, dims=(8, 12, 12)):
    config = uniform_config(dims[0], list(dims[1:]), head, batchnorm)
    return init_network(config, seed)


def overflowing_shape_pack(data: bytes) -> bytes:
    """The packed delta with its entries replaced by one of shape (2**32 - 1,) * 4."""
    entries = Writer().u8(0).u32(1).text("layer0.weight").u8(4)
    for _ in range(4):
        entries.u32(2**32 - 1)
    entries.u8(KIND_F32_VALUE)
    return with_fixed_crc(data[:16] + deflate(entries.body()) + bytes(4))


def trailing_junk_pack(data: bytes) -> bytes:
    """The packed delta with 8 junk bytes after its DEFLATE stream, CRC re-fixed."""
    return with_fixed_crc(data[:-4] + b"JUNKJUNK" + bytes(4))


def with_fp16_first_body_entry(d):
    """The DeltaPack with its first body entry replaced by an all-zero fp16 delta."""
    first = d.body_entries[0]
    fp16 = DeltaEntry(first.name, first.shape, KIND_F16_DELTA, np.zeros(first.shape, dtype=np.float16))
    return replace(d, body_entries=(fp16, *d.body_entries[1:]))


@pytest.fixture(scope="module")
def plain_pair(mini_train):
    """Full-precision router plus one genuinely finetuned specialist."""
    config = uniform_config(mini_train.dim, [16, 16], mini_train.manifest.n_super, True)
    base0 = init_network(config, 11)
    base, _ = train(base0, mini_train, LabelView.superclass(),
                    TrainConfig(lr=0.01, epochs=8, batch_size=16, seed=21))
    specialist = finetune_from_super(
        base, 0, mini_train, TrainConfig(lr=0.01, epochs=8, batch_size=16, seed=22)
    )
    return base, specialist


@pytest.fixture(scope="module")
def qat_pair(mini_train):
    """Grid-snapped router and specialist sharing body scales."""
    config = uniform_config(mini_train.dim, [16, 16], mini_train.manifest.n_super, True)
    base0 = init_network(config, 31)
    tcfg = TrainConfig(lr=0.01, epochs=8, batch_size=16, seed=41, qat_bits=8)
    base, _ = train(base0, mini_train, LabelView.superclass(), tcfg)
    specialist = finetune_from_super(
        base, 0, mini_train, TrainConfig(lr=0.01, epochs=8, batch_size=16, seed=42, qat_bits=8)
    )
    return base, specialist


class TestComputeDelta:
    def test_identity_delta_is_all_zero(self):
        net = build_net(seed=7)
        d = compute_delta(net, net, MODE_FP16)
        for entry in d.body_entries:
            assert entry.kind == KIND_F16_DELTA
            assert not entry.payload.any()

    def test_fp16_error_within_half_ulp(self, plain_pair):
        # Element-level bound: |f16(d) - d| <= 2^-11 * max(|d|, 2^-14).
        from supersub.network import body_items

        base, specialist = plain_pair
        for (name, t_base, _), (_, t_sub, _) in zip(body_items(base), body_items(specialist)):
            delta = (t_sub - t_base).astype(F32)
            stored = delta.astype(np.float16).astype(F32)
            bound = np.maximum(np.abs(delta), F32(2**-14)) * F32(2**-11)
            assert np.all(np.abs(stored - delta) <= bound)

    def test_qat_round_trip_bit_exact(self, qat_pair):
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        rebuilt = reconstruct(base, d, base_fingerprint_of(base), 0)
        assert serialize_network(rebuilt) == serialize_network(specialist)

    def test_qat_requires_quantized_networks(self, plain_pair):
        base, specialist = plain_pair
        with pytest.raises(DeltaModeError):
            compute_delta(base, specialist, MODE_QAT_INT)

    def test_qat_delta_fits_int16(self, qat_pair):
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        for entry in d.body_entries:
            if entry.kind == KIND_I16_GRID_DELTA:
                assert entry.payload.dtype == np.int16
                assert int(np.abs(entry.payload).max(initial=0)) <= 254

    def test_body_shape_mismatch_rejected(self):
        a = build_net(seed=1, dims=(8, 12, 12))
        b = build_net(seed=2, dims=(8, 10, 12))
        with pytest.raises(ContractError):
            compute_delta(a, b, MODE_FP16)

    def test_unknown_mode_rejected(self):
        net = build_net(seed=3)
        with pytest.raises(ParameterError):
            compute_delta(net, net, "zstd")


class TestPackUnpack:
    def test_round_trip_identity(self, plain_pair):
        base, specialist = plain_pair
        d = compute_delta(base, specialist, MODE_FP16, superclass_id=1)
        packed = pack(d)
        again = unpack(packed.data)
        assert again.superclass_id == 1
        assert again.mode == MODE_FP16
        assert again.base_fingerprint == d.base_fingerprint
        assert pack(again).data == packed.data

    def test_qat_round_trip_identity(self, qat_pair):
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        packed = pack(d)
        again = unpack(packed.data)
        assert again.head_scales == d.head_scales
        assert pack(again).data == packed.data

    def test_zero_delta_packs_tiny(self):
        net = build_net(seed=9, dims=(32, 64, 64), head=4)
        d = compute_delta(net, net, MODE_FP16)
        packed = pack(d)
        assert packed.packed_size < 0.02 * len(serialize_network(net))

    def test_truncated_stream_rejected_without_partial(self, plain_pair):
        base, specialist = plain_pair
        packed = pack(compute_delta(base, specialist, MODE_FP16))
        with pytest.raises(FormatError):
            unpack(packed.data[: len(packed.data) // 3])

    def test_corrupted_crc_detected(self, plain_pair):
        base, specialist = plain_pair
        data = bytearray(pack(compute_delta(base, specialist, MODE_FP16)).data)
        data[-3] ^= 0x20
        with pytest.raises(FormatError):
            unpack(bytes(data))

    def test_corrupted_compressed_body_detected(self, plain_pair):
        base, specialist = plain_pair
        data = bytearray(pack(compute_delta(base, specialist, MODE_FP16)).data)
        data[30] ^= 0x04
        with pytest.raises(FormatError):
            unpack(bytes(data))

    def test_non_utf8_entry_name_is_format_error(self, plain_pair):
        base, specialist = plain_pair
        data = pack(compute_delta(base, specialist, MODE_FP16)).data
        header, entries = data[:16], bytearray(inflate(data[16:-4]))
        at = entries.index(b"layer0.weight")
        entries[at] = 0xFF
        with pytest.raises(FormatError) as err:
            unpack(with_fixed_crc(header + deflate(bytes(entries)) + bytes(4)))
        assert err.value.offset == at

    def test_overflowing_shape_is_format_error(self, plain_pair):
        base, specialist = plain_pair
        data = pack(compute_delta(base, specialist, MODE_FP16)).data
        with pytest.raises(FormatError):
            unpack(overflowing_shape_pack(data))

    def test_trailing_bytes_after_deflate_stream_are_format_error(self):
        net = build_net(seed=5)
        data = pack(compute_delta(net, net, MODE_FP16)).data
        with pytest.raises(FormatError):
            unpack(trailing_junk_pack(data))

    def test_fingerprint_mismatch_surfaces_at_reconstruct_not_unpack(self, plain_pair):
        base, specialist = plain_pair
        packed = pack(compute_delta(base, specialist, MODE_FP16))
        other_base = build_net(head=2, seed=99, dims=(8, 16, 16))
        again = unpack(packed.data)  # parses fine
        with pytest.raises(BaseMismatchError):
            reconstruct(other_base, again, base_fingerprint_of(other_base), 0)

    def test_many_random_packs_round_trip(self):
        rng = Prng(777)
        for trial in range(15):
            head = 2 + trial % 3
            net_a = build_net(head=head, seed=trial, batchnorm=bool(trial % 2))
            net_b = build_net(head=head, seed=trial + 100, batchnorm=bool(trial % 2))
            d = compute_delta(net_a, net_b, MODE_FP16, superclass_id=trial)
            packed = pack(d)
            assert pack(unpack(packed.data)).data == packed.data


class TestReconstruct:
    def test_zero_delta_reproduces_base_body(self):
        net = build_net(seed=13)
        rebuilt = reconstruct(net, compute_delta(net, net, MODE_FP16), base_fingerprint_of(net), 0)
        for orig, new in zip(net.layers[:-1], rebuilt.layers[:-1]):
            assert np.array_equal(orig.weight, new.weight)
            assert np.array_equal(orig.bias, new.bias)

    def test_fp16_reconstruction_close(self, plain_pair):
        base, specialist = plain_pair
        rebuilt = reconstruct(base, compute_delta(base, specialist, MODE_FP16), base_fingerprint_of(base), 0)
        for orig, new in zip(specialist.layers, rebuilt.layers):
            np.testing.assert_allclose(orig.weight, new.weight, rtol=2e-3, atol=2e-3)

    def test_head_installed_verbatim(self, plain_pair):
        base, specialist = plain_pair
        rebuilt = reconstruct(base, compute_delta(base, specialist, MODE_FP16), base_fingerprint_of(base), 0)
        assert np.array_equal(rebuilt.layers[-1].weight, specialist.layers[-1].weight)
        assert np.array_equal(rebuilt.layers[-1].bias, specialist.layers[-1].bias)

    @pytest.mark.parametrize("pair, mode", [("plain_pair", MODE_FP16), ("qat_pair", MODE_QAT_INT)])
    def test_self_delta_reproduces_bytes(self, request, pair, mode):
        base, _ = request.getfixturevalue(pair)
        d = compute_delta(base, base, mode)
        assert [e.kind for e in d.head_entries] == [KIND_XOR32_DELTA] * 2
        assert serialize_network(reconstruct(base, d, base_fingerprint_of(base), 0)) == serialize_network(base)

    @pytest.mark.parametrize("kind", [KIND_F16_DELTA, KIND_I16_GRID_DELTA])
    def test_head_entry_of_delta_kind_rejected(self, kind):
        net = build_net(seed=29)
        d = compute_delta(net, net, MODE_FP16)
        w = d.head_entries[0]
        bad = DeltaEntry(w.name, w.shape, kind, np.zeros(w.shape, dtype=np.int16), 1.0)
        with pytest.raises(FormatError, match="head entry"):
            reconstruct(net, replace(d, head_entries=(bad, d.head_entries[1])), base_fingerprint_of(net), 0)

    @pytest.mark.parametrize("which, shape", [(0, (3, 5)), (0, ()), (1, (7,)), (0, (0, 12))])
    def test_verbatim_head_must_fit_the_body(self, which, shape):
        net = build_net(seed=31, head=3)
        d = compute_delta(net, net, MODE_FP16)
        heads = list(d.head_entries)
        heads[which] = DeltaEntry(heads[which].name, shape, KIND_F32_VALUE, np.zeros(shape, dtype=F32))
        with pytest.raises(FormatError):
            reconstruct(net, replace(d, head_entries=tuple(heads)), base_fingerprint_of(net), 0)

    @pytest.mark.parametrize("edit", ["missing", "duplicate", "misshapen", "renamed_head"])
    def test_misfit_entries_are_format_errors(self, edit):
        net = build_net(seed=37)
        d = compute_delta(net, net, MODE_FP16)
        body, heads = list(d.body_entries), list(d.head_entries)
        if edit == "missing":
            body.pop()
        elif edit == "duplicate":
            body[-1] = body[0]
        elif edit == "misshapen":
            body[0] = replace(body[0], shape=body[0].shape[::-1], payload=body[0].payload.T)
        else:
            heads[1] = replace(heads[1], name="head.extra")
        d = replace(d, body_entries=tuple(body), head_entries=tuple(heads))
        with pytest.raises(FormatError):
            reconstruct(net, d, base_fingerprint_of(net), 0)

    def test_non_finite_rebuild_is_format_error(self, plain_pair):
        base, specialist = plain_pair
        d = compute_delta(base, specialist, MODE_FP16)
        first = d.body_entries[0]
        payload = first.payload.copy()
        payload.flat[0] = np.nan
        d = replace(d, body_entries=(replace(first, payload=payload), *d.body_entries[1:]))
        with pytest.raises(FormatError, match="non-finite"):
            reconstruct(base, unpack(pack(d).data), base_fingerprint_of(base), 0)

    @pytest.mark.parametrize("factor", [0.0, 2.0, float("nan")])
    def test_grid_entry_scale_must_be_the_base_grid(self, factor):
        net = snap_to_grid(build_net(seed=43), 8)
        d = compute_delta(net, net, MODE_QAT_INT)
        first = d.body_entries[0]
        d = replace(d, body_entries=(replace(first, scale=first.scale * factor), *d.body_entries[1:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="scale"):
                reconstruct(net, unpack(pack(d).data), base_fingerprint_of(net), 0)

    def test_qat_pack_needs_a_quantized_base(self):
        net = snap_to_grid(build_net(seed=47), 8)
        plain = replace(net, quant=None)
        d = replace(compute_delta(net, net, MODE_QAT_INT), base_fingerprint=base_fingerprint_of(plain))
        with pytest.raises(FormatError, match="quantization"):
            reconstruct(plain, d, base_fingerprint_of(plain), 0)

    def test_pack_of_another_superclass_is_format_error(self):
        net = build_net(seed=49)
        d = compute_delta(net, net, MODE_FP16, superclass_id=1)
        with pytest.raises(FormatError, match="superclass 1, not 0"):
            reconstruct(net, d, base_fingerprint_of(net), 0)

    @pytest.mark.parametrize(
        "edit",
        ["zero_bits", "other_bits", "fp16_body_entry", "no_head_scales", "missing_head_scale",
         "duplicate_head_scale", "renamed_head_scale", "zero_head_scale", "nan_head_scale"],
    )
    def test_qat_quantization_block_must_be_valid(self, qat_pair, edit):
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        (w_name, w_scale), bias_scale = d.head_scales
        if edit.endswith("_bits"):
            d = replace(d, qat_bits=0 if edit == "zero_bits" else 7)
        elif edit == "fp16_body_entry":
            d = with_fp16_first_body_entry(d)
        else:
            d = replace(d, head_scales={
                "no_head_scales": None,
                "missing_head_scale": (bias_scale,),
                "duplicate_head_scale": ((w_name, w_scale), (w_name, w_scale)),
                "renamed_head_scale": (("head.weights", w_scale), bias_scale),
                "zero_head_scale": ((w_name, 0.0), bias_scale),
                "nan_head_scale": ((w_name, float("nan")), bias_scale),
            }[edit])
        with pytest.raises(FormatError):
            reconstruct(base, unpack(pack(d).data), base_fingerprint_of(base), 0)

    def test_header_mutations_are_rejected_or_read_back(self, qat_pair):
        base, specialist = qat_pair
        data = pack(compute_delta(base, specialist, MODE_QAT_INT, superclass_id=1)).data
        fingerprint = base_fingerprint_of(base)
        rejected = 0
        for at, mutated in header_mutations(data, 16):
            superclass_byte = 6 <= at < 10
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    rebuilt = reconstruct(base, unpack(mutated), fingerprint, 1)
                except (FormatError, BaseMismatchError) as exc:
                    assert not superclass_byte or "superclass" in str(exc)
                    rejected += 1
                    continue
            assert not superclass_byte, f"a mutated superclass id (byte {at}) was accepted"
            again = deserialize_network(serialize_network(rebuilt))
            assert serialize_network(again) == serialize_network(rebuilt)
        assert rejected


class TestBaseFingerprint:
    @pytest.mark.parametrize("pair", ["plain_pair", "qat_pair"])
    def test_equals_crc_of_the_serialized_body(self, request, pair):
        base, _ = request.getfixturevalue(pair)
        assert base_fingerprint_of(base) == crc32c(serialize_network(base)[:-4])


class TestCompressionAccounting:
    def test_qat_packs_smaller_than_fp16_same_finetune(self, qat_pair):
        base, specialist = qat_pair
        fp16_packed = pack(compute_delta(base, specialist, MODE_FP16))
        qat_packed = pack(compute_delta(base, specialist, MODE_QAT_INT))
        assert qat_packed.packed_size <= fp16_packed.packed_size

    def test_ratio_contract(self, plain_pair):
        base, specialist = plain_pair
        packed = pack(compute_delta(base, specialist, MODE_FP16))
        ratio = compression_ratio(packed, len(serialize_network(specialist)))
        assert 0 < ratio < 1
        with pytest.raises(ParameterError):
            compression_ratio(packed, 0)

    def test_identity_network_ratio_tiny(self):
        net = build_net(seed=17, dims=(32, 64, 64), head=4)
        packed = pack(compute_delta(net, net, MODE_FP16))
        assert compression_ratio(packed, len(serialize_network(net))) < 0.02

    def test_quantized_reference_bytes(self, qat_pair):
        _, specialist = qat_pair
        full = len(serialize_network(specialist))
        weight_elems = sum(layer.weight.size for layer in specialist.layers)
        assert quantized_network_bytes(specialist) == full - 3 * weight_elems


class TestDeltaMagnitude:
    def test_weight_deltas_concentrate_near_zero(self, plain_pair):
        # Finetuned weight deltas stay small relative to the base weights.
        # (Batch-norm running stats legitimately drift by large amounts:
        # they re-estimate the specialist's data distribution.)
        base, specialist = plain_pair
        from supersub.network import body_items

        d = compute_delta(base, specialist, MODE_FP16)
        deltas = np.concatenate(
            [e.payload.astype(np.float64).ravel() for e in d.body_entries
             if e.kind == KIND_F16_DELTA and e.name.endswith(".weight")]
        )
        base_vals = np.concatenate(
            [t.astype(np.float64).ravel() for _, t, is_w in body_items(base) if is_w]
        )
        assert np.abs(deltas).mean() < 0.1 * np.abs(base_vals).mean()
