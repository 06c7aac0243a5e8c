"""Delta extraction, lossless packing, exact qat-int reconstruction."""

import tracemalloc
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import header_mutations, named, with_fixed_crc
from supersub.container import Writer, crc32c, deflate, seal
from supersub.delta import (
    DELTA_MAGIC,
    DELTA_VERSION,
    MODE_FP16,
    MODE_QAT_INT,
    base_fingerprint_of,
    compute_delta,
    pack,
    reconstruct,
    unpack,
)
from supersub.errors import ContractError, FormatError, ParameterError
from supersub.network import (
    HEAD_TENSORS,
    NetworkConfig,
    body_items,
    deserialize_network,
    init_network,
    lattice_indices,
    replace_head,
    serialize_network,
    snap_to_grid,
    tensor_items,
    tensor_shapes,
    write_config,
)
from supersub.report import CompressionRow
from supersub.tensor import F32, Prng
from supersub.train import TrainConfig, finetune_from_super, train

FIXED = 15  # magic, version, superclass id, mode, base fingerprint; then the config


def header_len(d) -> int:
    """Bytes of d's packed plain header: the fixed fields, the config header
    and a qat-int pack's two head scales. The DEFLATE stream follows."""
    w = Writer()
    write_config(w, d.config)
    return FIXED + len(w.body()) + 4 * len(d.head_scales or ())


def inflate(stream: bytes) -> bytes:
    """A whole raw DEFLATE stream, inflated by zlib in one call."""
    return zlib.decompress(stream, wbits=-15)


def payload_of(d) -> bytes:
    """d's packed tensor payload, inflated."""
    return inflate(pack(d)[header_len(d) : -4])


def with_payload(d, payload: bytes) -> bytes:
    """d packed with its payload replaced, CRC re-fixed."""
    return with_fixed_crc(pack(d)[: header_len(d)] + deflate(payload) + bytes(4))


def crafted_pack(config_header: bytes, stream: bytes) -> bytes:
    """An fp16 pack of superclass 0 against base 0 whose config header is
    config_header and whose DEFLATE stream is stream."""
    fixed = Writer().u32(0).u8(0).u32(0).body()
    return seal(DELTA_MAGIC, DELTA_VERSION, fixed + config_header + stream)


def build_net(head=3, seed=0, dims=(8, 12, 12)):
    return init_network(NetworkConfig((*dims, head)), seed)


def overflowing_shape_pack(data: bytes) -> bytes:
    """The packed delta with its config replaced by one whose hidden layer
    is 2**32 - 1 wide, room for a qat-int pack's head scales, and an empty
    payload."""
    header = Writer().raw(data[:FIXED])
    write_config(header, NetworkConfig((8, 2**32 - 1, 2)))
    header.raw(bytes(8))
    return with_fixed_crc(header.body() + deflate(b"") + bytes(4))


def assert_rejected_in_bounded_memory(blob: bytes, match: str) -> None:
    """unpack(blob) is a FormatError matching match, and allocates under 1 MiB on the way."""
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=match):
            unpack(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def trailing_junk_pack(data: bytes) -> bytes:
    """The packed delta with 8 junk bytes after its DEFLATE stream, CRC re-fixed."""
    return with_fixed_crc(data[:-4] + b"JUNKJUNK" + bytes(4))


def verbatim_head_bytes(net) -> int:
    """Bytes of the head tensors, which a pack stores as raw float32."""
    return 4 * sum(t.size for name, t, _ in tensor_items(net) if name in HEAD_TENSORS)


def body_deltas(d):
    """(name, delta) of every body tensor of a DeltaPack, in layout order."""
    names = [name for name, _ in tensor_shapes(d.config)]
    return list(zip(names, d.tensors[: -len(HEAD_TENSORS)]))


def with_tensor(d, index, t):
    """The DeltaPack or Network d with its tensor at index replaced by t."""
    tensors = list(d.tensors)
    tensors[index] = t
    return replace(d, tensors=tuple(tensors))


@pytest.fixture(scope="module")
def zeros_stream():
    """64 MiB of zeros, deflated to about 65 KB."""
    return deflate(bytes(64 << 20))


@pytest.fixture(scope="module")
def plain_pair(mini_train):
    """Full-precision router plus one genuinely finetuned specialist."""
    config = NetworkConfig((mini_train.dim, 16, 16, mini_train.manifest.n_super))
    base0 = init_network(config, 11)
    base, _ = train(base0, mini_train.features, mini_train.super_labels(),
                    TrainConfig(lr=0.01, epochs=8, batch_size=16, seed=21))
    specialist = finetune_from_super(
        base, 0, mini_train, TrainConfig(lr=0.01, epochs=8, batch_size=16, seed=22)
    )
    return base, specialist


@pytest.fixture(scope="module")
def qat_pair(mini_train):
    """Grid-snapped router and specialist sharing body scales."""
    config = NetworkConfig((mini_train.dim, 16, 16, mini_train.manifest.n_super))
    base0 = init_network(config, 31)
    tcfg = TrainConfig(lr=0.01, epochs=8, batch_size=16, seed=41, qat=True)
    base, _ = train(base0, mini_train.features, mini_train.super_labels(), tcfg)
    specialist = finetune_from_super(
        base, 0, mini_train, TrainConfig(lr=0.01, epochs=8, batch_size=16, seed=42, qat=True)
    )
    return base, specialist


def random_body_deltas(d, seed):
    """The DeltaPack with every body delta replaced by seeded random values
    of its mode's element type, each tensor's first elements the extremes:
    the float16 maximum of either sign and -0.0, or int16 +-32767 and 0."""
    prng = Prng(seed)
    tensors = list(d.tensors)
    for i, t in enumerate(tensors[: -len(HEAD_TENSORS)]):
        words = b"".join(prng.next_u64().to_bytes(8, "little") for _ in range(-(-t.size // 4)))
        bits = np.frombuffer(words, dtype="<u2")[: t.size]
        if d.mode == MODE_FP16:
            new = bits.astype(np.uint16).view(np.float16)
            new[~np.isfinite(new)] = np.float16(0.0)
            extremes = [np.finfo(np.float16).max, -np.finfo(np.float16).max, -0.0]
        else:
            new = np.clip(bits.astype(np.uint16).view(np.int16), -32767, 32767).astype(np.int16)
            extremes = [32767, -32767, 0]
        new[: len(extremes)] = extremes[: t.size]
        tensors[i] = new.reshape(t.shape)
    return replace(d, tensors=tuple(tensors))


def reference_body(base, d):
    """The per-tensor rebuild loop that reconstruct's one pass over the flat
    body replaced: the reference it must equal byte for byte."""
    rebuilt = []
    with np.errstate(invalid="ignore", over="ignore"):
        for i, (t_base, delta) in enumerate(zip(base.tensors[: -len(HEAD_TENSORS)], d.tensors)):
            if d.mode == MODE_FP16:
                rebuilt.append((t_base + delta.astype(F32)).astype(F32))
            else:
                s = base.quant.scales[i]
                q_new = lattice_indices(t_base, s) + delta.astype(np.int32)
                rebuilt.append((q_new.astype(F32) * F32(s)).astype(F32))
    return rebuilt


class TestComputeDelta:
    def test_identity_delta_is_all_zero(self):
        net = build_net(seed=7)
        d = compute_delta(net, net, MODE_FP16)
        for _, delta in body_deltas(d):
            assert delta.dtype == np.float16
            assert not delta.any()

    def test_fp16_error_within_half_ulp(self, plain_pair):
        # Element-level bound: |f16(d) - d| <= 2^-11 * max(|d|, 2^-14).
        base, specialist = plain_pair
        for (name, t_base, _), (_, t_sub, _) in zip(body_items(base), body_items(specialist)):
            delta = (t_sub - t_base).astype(F32)
            stored = delta.astype(np.float16).astype(F32)
            bound = np.maximum(np.abs(delta), F32(2**-14)) * F32(2**-11)
            assert np.all(np.abs(stored - delta) <= bound)

    def test_qat_round_trip_bit_exact(self, qat_pair):
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        rebuilt = reconstruct(base, d, base_fingerprint_of(base), 0, specialist.head_dim)
        assert serialize_network(rebuilt) == serialize_network(specialist)

    def test_qat_requires_quantized_networks(self, plain_pair):
        base, specialist = plain_pair
        with pytest.raises(ContractError, match="qat-int deltas need both networks snapped to grids"):
            compute_delta(base, specialist, MODE_QAT_INT)

    def test_qat_requires_shared_body_scales(self):
        base = snap_to_grid(build_net(seed=4))
        sub = snap_to_grid(build_net(seed=4), tuple(2 * s for s in base.quant.body_scales()))
        with pytest.raises(ContractError, match="body quantization scales differ"):
            compute_delta(base, sub, MODE_QAT_INT)

    def test_fp16_delta_past_binary16_max_rejected(self):
        net = build_net(seed=5)
        weight = net.tensors[0].copy()
        weight.flat[0] += F32(70000.0)
        with pytest.raises(ContractError, match=r"layer0\.weight delta does not fit binary16"):
            compute_delta(net, with_tensor(net, 0, weight), MODE_FP16)

    def test_qat_tensor_off_the_shared_grid_rejected(self):
        net = snap_to_grid(build_net(seed=6))
        weight = net.tensors[0].copy()
        weight.flat[0] = np.nextafter(weight.flat[0], F32(np.inf))
        with pytest.raises(ContractError, match=r"specialist layer0\.weight is not on the shared quantization grid"):
            compute_delta(net, with_tensor(net, 0, weight), MODE_QAT_INT)

    def test_qat_grid_delta_past_int16_rejected(self):
        # 40,000 steps up the shared lattice: on the grid, but no int16 delta.
        net = snap_to_grid(build_net(seed=7))
        scale = F32(net.quant.scales[0])
        weight = net.tensors[0].copy()
        weight.flat[0] = F32(lattice_indices(weight.flat[:1], scale)[0] + 40000) * scale
        with pytest.raises(ContractError, match=r"grid delta for layer0\.weight overflows int16"):
            compute_delta(net, with_tensor(net, 0, weight), MODE_QAT_INT)

    def test_qat_delta_fits_int16(self, qat_pair):
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        for _, delta in body_deltas(d):
            assert delta.dtype == np.int16
            assert int(np.abs(delta).max(initial=0)) <= 254

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
        again = unpack(packed)
        assert again.superclass_id == 1
        assert again.mode == MODE_FP16
        assert again.base_fingerprint == d.base_fingerprint
        assert pack(again) == packed

    def test_qat_round_trip_identity(self, qat_pair):
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        packed = pack(d)
        again = unpack(packed)
        assert again.head_scales == d.head_scales
        assert pack(again) == packed

    def test_zero_delta_packs_tiny(self):
        # The head is stored verbatim; the zero body delta adds under 2%.
        net = build_net(seed=9, dims=(32, 64, 64), head=4)
        d = compute_delta(net, net, MODE_FP16)
        packed = pack(d)
        assert len(packed) < verbatim_head_bytes(net) + 0.02 * len(serialize_network(net))

    def test_truncated_stream_rejected_without_partial(self, plain_pair):
        base, specialist = plain_pair
        packed = pack(compute_delta(base, specialist, MODE_FP16))
        with pytest.raises(FormatError):
            unpack(packed[: len(packed) // 3])

    def test_corrupted_crc_detected(self, plain_pair):
        base, specialist = plain_pair
        data = bytearray(pack(compute_delta(base, specialist, MODE_FP16)))
        data[-3] ^= 0x20
        with pytest.raises(FormatError):
            unpack(bytes(data))

    def test_corrupted_compressed_body_detected(self, plain_pair):
        base, specialist = plain_pair
        d = compute_delta(base, specialist, MODE_FP16)
        data = bytearray(pack(d))
        data[header_len(d) + 15] ^= 0x04
        with pytest.raises(FormatError):
            unpack(bytes(data))

    @pytest.mark.parametrize("pair, mode", [("plain_pair", MODE_FP16), ("qat_pair", MODE_QAT_INT)])
    def test_plain_header_holds_config_and_head_scales(self, request, pair, mode):
        # No tensor name, shape or per-tensor body scale: the plain header
        # ends in the config header and the qat-int head scales, and the
        # DEFLATE stream holds the raw payloads alone.
        base, specialist = request.getfixturevalue(pair)
        d = compute_delta(base, specialist, mode)
        header = Writer()
        write_config(header, specialist.config)
        for scale in d.head_scales or ():
            header.f32(scale)
        n_scales = len(HEAD_TENSORS) if mode == MODE_QAT_INT else 0
        n_body = len(d.tensors) - len(HEAD_TENSORS)
        payload = sum(t.size * (2 if i < n_body else 4) for i, t in enumerate(d.tensors))
        assert len(d.head_scales or ()) == n_scales
        assert pack(d)[FIXED : header_len(d)] == header.body()
        assert len(payload_of(d)) == payload

    def test_no_tensor_name_is_stored(self, qat_pair):
        # Names live in network.py's layout only: neither a qat network file
        # nor a pack's plain header or inflated payload spells one.
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        names = {name for net in qat_pair for name, _ in tensor_shapes(net.config)}
        for blob in (serialize_network(base), serialize_network(specialist), pack(d)[: header_len(d)], payload_of(d)):
            assert not [name for name in names if name.encode("utf-8") in blob]

    def test_version_4_pack_is_format_error(self, qat_pair):
        # Version 4 held the config and head scales inside the DEFLATE stream.
        base, specialist = qat_pair
        data = pack(compute_delta(base, specialist, MODE_QAT_INT))
        with pytest.raises(FormatError, match="unsupported version 4"):
            unpack(with_fixed_crc(data[:4] + (4).to_bytes(2, "little") + data[6:]))

    def test_version_3_pack_is_format_error(self, qat_pair):
        # Version 3 stored a batch-norm flag per hidden layer, and a zero
        # delta for each hidden layer's dense bias.
        base, specialist = qat_pair
        data = pack(compute_delta(base, specialist, MODE_QAT_INT))
        with pytest.raises(FormatError, match="unsupported version 3"):
            unpack(with_fixed_crc(data[:4] + (3).to_bytes(2, "little") + data[6:]))

    def test_version_2_pack_is_format_error(self, qat_pair):
        base, specialist = qat_pair
        data = pack(compute_delta(base, specialist, MODE_QAT_INT))
        with pytest.raises(FormatError, match="unsupported version 2"):
            unpack(with_fixed_crc(data[:4] + (2).to_bytes(2, "little") + data[6:]))

    def test_version_1_pack_is_format_error(self, plain_pair):
        base, specialist = plain_pair
        data = pack(compute_delta(base, specialist, MODE_FP16))
        with pytest.raises(FormatError, match="unsupported version 1"):
            unpack(with_fixed_crc(data[:4] + (1).to_bytes(2, "little") + data[6:]))

    def test_overflowing_shape_is_format_error(self, plain_pair):
        base, specialist = plain_pair
        data = pack(compute_delta(base, specialist, MODE_FP16))
        with pytest.raises(FormatError, match="cannot hold"):
            unpack(overflowing_shape_pack(data))

    @pytest.mark.parametrize("after", ["nothing", "the_section"])
    def test_a_section_of_zeros_is_rejected_in_bounded_memory(self, plain_pair, after):
        # The compressed section holds the tensor payload alone. 20 MiB of
        # zeros deflate to about 20 KB; alone or after the whole payload
        # they run past the payload's end, and the reader inflates the
        # payload and one byte.
        base, specialist = plain_pair
        d = compute_delta(base, specialist, MODE_FP16)
        payload = payload_of(d) if after == "the_section" else b""
        blob = with_payload(d, payload + bytes(20 << 20))
        assert_rejected_in_bounded_memory(blob, "runs past")

    @pytest.mark.parametrize(
        "dims, message",
        [(None, "truncated"), ((32, 2**20, 2**20, 4), "cannot hold")],
        ids=["2_30_dims", "past_deflates_ceiling"],
    )
    def test_crafted_header_rejected_in_bounded_memory(self, zeros_stream, dims, message):
        # A dim count of 2**30 - 1, whose dims run past the pack's end; or
        # two 2**20-wide hidden layers, which size a payload of over 2 TiB,
        # past 1032 bytes for each byte of the stream. Neither inflates the
        # 64 MiB of zeros the stream holds.
        header = Writer()
        if dims is None:
            header.u32(2**30 - 1)
        else:
            write_config(header, NetworkConfig(dims))
        blob = crafted_pack(header.body(), zeros_stream)
        assert len(blob) < 66_000
        assert_rejected_in_bounded_memory(blob, message)

    @pytest.mark.parametrize("size", [-1, 1], ids=["one_byte_short", "one_byte_long"])
    @pytest.mark.parametrize("pair, mode", [("plain_pair", MODE_FP16), ("qat_pair", MODE_QAT_INT)])
    def test_a_section_of_another_length_is_format_error(self, request, pair, mode, size):
        # One byte short of the payload the header sizes, or one byte long.
        base, specialist = request.getfixturevalue(pair)
        d = compute_delta(base, specialist, mode)
        payload = payload_of(d)
        payload = payload[:-1] if size < 0 else payload + b"\0"
        with pytest.raises(FormatError, match="ends short" if size < 0 else "runs past"):
            unpack(with_payload(d, payload))

    def test_trailing_bytes_after_deflate_stream_are_format_error(self):
        net = build_net(seed=5)
        data = pack(compute_delta(net, net, MODE_FP16))
        with pytest.raises(FormatError):
            unpack(trailing_junk_pack(data))

    def test_fingerprint_mismatch_surfaces_at_reconstruct_not_unpack(self, plain_pair):
        base, specialist = plain_pair
        packed = pack(compute_delta(base, specialist, MODE_FP16))
        other_base = build_net(head=2, seed=99, dims=(8, 16, 16))
        again = unpack(packed)  # parses fine
        with pytest.raises(FormatError, match="computed against base"):
            reconstruct(other_base, again, base_fingerprint_of(other_base), 0, specialist.head_dim)

    def test_many_random_packs_round_trip(self):
        rng = Prng(777)
        for trial in range(15):
            head = 2 + trial % 3
            net_a = build_net(head=head, seed=trial)
            net_b = build_net(head=head, seed=trial + 100)
            d = compute_delta(net_a, net_b, MODE_FP16, superclass_id=trial)
            packed = pack(d)
            assert pack(unpack(packed)) == packed


class TestReconstruct:
    def test_zero_delta_reproduces_base_body(self):
        net = build_net(seed=13)
        rebuilt = reconstruct(net, compute_delta(net, net, MODE_FP16), base_fingerprint_of(net), 0, net.head_dim)
        for (name, orig, _), (_, new, _) in zip(body_items(net), body_items(rebuilt), strict=True):
            assert np.array_equal(orig, new), name

    def test_fp16_reconstruction_close(self, plain_pair):
        base, specialist = plain_pair
        rebuilt = reconstruct(base, compute_delta(base, specialist, MODE_FP16), base_fingerprint_of(base), 0, specialist.head_dim)
        for (_, orig, is_weight), (_, new, _) in zip(tensor_items(specialist), tensor_items(rebuilt), strict=True):
            if is_weight:
                np.testing.assert_allclose(orig, new, rtol=2e-3, atol=2e-3)

    def test_head_installed_verbatim(self, plain_pair):
        base, specialist = plain_pair
        rebuilt = reconstruct(base, compute_delta(base, specialist, MODE_FP16), base_fingerprint_of(base), 0, specialist.head_dim)
        for name in HEAD_TENSORS:
            assert np.array_equal(named(rebuilt)[name], named(specialist)[name]), name

    @pytest.mark.parametrize("pair, mode", [("plain_pair", MODE_FP16), ("qat_pair", MODE_QAT_INT)])
    def test_self_delta_reproduces_bytes(self, request, pair, mode):
        base, _ = request.getfixturevalue(pair)
        d = compute_delta(base, base, mode)
        assert serialize_network(reconstruct(base, d, base_fingerprint_of(base), 0, base.head_dim)) == serialize_network(base)

    @pytest.mark.parametrize("which, shape", [(0, (3, 5)), (0, ()), (1, (7,)), (0, (0, 12))])
    def test_verbatim_head_must_fit_the_body(self, which, shape):
        # The head's shape is the config's; a payload of any other size
        # leaves the section too short or too long.
        net = build_net(seed=31, head=3)
        d = with_tensor(compute_delta(net, net, MODE_FP16), which - len(HEAD_TENSORS), np.zeros(shape, dtype=F32))
        with pytest.raises(FormatError):
            reconstruct(net, unpack(pack(d)), base_fingerprint_of(net), 0, net.head_dim)

    @pytest.mark.parametrize("edit", ["missing", "duplicate", "misshapen"])
    def test_misfit_entries_are_format_errors(self, edit):
        net = build_net(seed=37)
        d = compute_delta(net, net, MODE_FP16)
        tensors = list(d.tensors)
        if edit == "missing":
            tensors.pop()
        elif edit == "duplicate":
            tensors[len(tensors) - len(HEAD_TENSORS) - 1] = tensors[0]
        else:
            tensors[0] = tensors[0][:-1]
        d = replace(d, tensors=tuple(tensors))
        with pytest.raises(FormatError):
            reconstruct(net, unpack(pack(d)), base_fingerprint_of(net), 0, net.head_dim)

    @pytest.mark.parametrize(
        "config",
        [(8, 10, 12, 3), (8, 12, 12, 12, 5), (9, 12, 12, 3)],
        ids=["hidden_width", "hidden_depth", "input_dim"],
    )
    def test_config_must_share_the_base_body(self, config):
        net = build_net(seed=41)
        d = replace(compute_delta(net, net, MODE_FP16), config=NetworkConfig(config))
        with pytest.raises(FormatError, match="base's body"):
            reconstruct(net, d, base_fingerprint_of(net), 0, d.config.head_dim)

    def test_non_finite_rebuild_is_format_error(self, plain_pair):
        base, specialist = plain_pair
        d = compute_delta(base, specialist, MODE_FP16)
        first = d.tensors[0].copy()
        first.flat[0] = np.nan
        with pytest.raises(FormatError, match="non-finite"):
            reconstruct(base, unpack(pack(with_tensor(d, 0, first))), base_fingerprint_of(base), 0, d.config.head_dim)

    @pytest.mark.parametrize("pair, mode", [("plain_pair", MODE_FP16), ("qat_pair", MODE_QAT_INT)])
    def test_flat_rebuild_equals_the_per_tensor_loop(self, request, pair, mode):
        base, specialist = request.getfixturevalue(pair)
        fingerprint = base_fingerprint_of(base)
        for seed in range(4):
            d = unpack(pack(random_body_deltas(compute_delta(base, specialist, mode), seed)))
            rebuilt = reconstruct(base, d, fingerprint, 0, specialist.head_dim)
            expected = [*reference_body(base, d), *d.tensors[-len(HEAD_TENSORS) :]]
            for (name, _), got, want in zip(tensor_shapes(d.config), rebuilt.tensors, expected, strict=True):
                assert got.dtype == F32 and got.shape == want.shape, (seed, name)
                assert got.tobytes() == want.tobytes(), (seed, name)

    @pytest.mark.parametrize("kind", ["nan", "overflow"])
    @pytest.mark.parametrize("index", [0, 1, 5, 6, 11, 14])
    def test_non_finite_rebuild_names_its_tensor(self, kind, index):
        # A NaN fp16 delta, or an int16 delta whose rebuilt value passes
        # float32 on a body scale of 1e35, in the last element of one body
        # tensor: the error names that tensor, not a neighbour in the flat body.
        # Three hidden layers of five tensors each: 0 to 14 are the body.
        net = build_net(seed=53, dims=(8, 12, 12, 12))
        if kind == "nan":
            d = compute_delta(net, net, MODE_FP16)
            bad = np.float16(np.nan)
        else:
            net = snap_to_grid(net, (1e35,) * len(body_items(net)))
            d = compute_delta(net, net, MODE_QAT_INT)
            bad = np.int16(32767)
        name = tensor_shapes(net.config)[index][0]
        t = d.tensors[index].copy()
        t.flat[-1] = bad
        with pytest.raises(FormatError, match=rf"delta tensor {name} rebuilds to non-finite"):
            reconstruct(net, unpack(pack(with_tensor(d, index, t))), base_fingerprint_of(net), 0, net.head_dim)

    @pytest.mark.parametrize("index", [-2, -1], ids=list(HEAD_TENSORS))
    def test_qat_head_off_its_lattice_is_format_error(self, qat_pair, index):
        # One float32 step off the head scale's lattice: the rebuilt file
        # would be one the HSNW reader rejects.
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        head = d.tensors[index].copy()
        head.flat[0] = np.nextafter(head.flat[0], F32(np.inf))
        with pytest.raises(FormatError, match="off the lattice"):
            reconstruct(base, unpack(pack(with_tensor(d, index, head))), base_fingerprint_of(base), 0, d.config.head_dim)

    def test_qat_pack_needs_a_quantized_base(self):
        net = snap_to_grid(build_net(seed=47))
        plain = replace(net, quant=None)
        d = replace(compute_delta(net, net, MODE_QAT_INT), base_fingerprint=base_fingerprint_of(plain))
        with pytest.raises(FormatError, match="quantization"):
            reconstruct(plain, d, base_fingerprint_of(plain), 0, plain.head_dim)

    def test_pack_of_another_superclass_is_format_error(self):
        net = build_net(seed=49)
        d = compute_delta(net, net, MODE_FP16, superclass_id=1)
        with pytest.raises(FormatError, match="superclass 1, not 0"):
            reconstruct(net, d, base_fingerprint_of(net), 0, net.head_dim)

    @pytest.mark.parametrize("head_dim", [3, 5])
    def test_other_head_width_rejected(self, head_dim):
        # A valid pack of a 4-wide specialist, asked for as one of another width.
        base = build_net(seed=50)
        d = compute_delta(base, replace_head(base, 4, seed=51), MODE_FP16)
        with pytest.raises(FormatError, match=f"head of width 4, not {head_dim}"):
            reconstruct(base, d, base_fingerprint_of(base), 0, head_dim)

    @pytest.mark.parametrize(
        "edit",
        ["fp16_mode", "no_head_scales", "missing_head_scale",
         "duplicate_head_scale", "zero_head_scale", "nan_head_scale"],
    )
    def test_qat_quantization_block_must_be_valid(self, qat_pair, edit):
        base, specialist = qat_pair
        d = compute_delta(base, specialist, MODE_QAT_INT)
        w_scale, bias_scale = d.head_scales
        if edit == "fp16_mode":
            d = replace(d, mode=MODE_FP16)
        else:
            d = replace(d, head_scales={
                "no_head_scales": None,
                "missing_head_scale": (bias_scale,),
                "duplicate_head_scale": (w_scale, w_scale, bias_scale),
                "zero_head_scale": (0.0, bias_scale),
                "nan_head_scale": (float("nan"), bias_scale),
            }[edit])
        with pytest.raises(FormatError):
            reconstruct(base, unpack(pack(d)), base_fingerprint_of(base), 0, d.config.head_dim)

    def test_header_mutations_are_rejected_or_read_back(self, plain_pair, qat_pair):
        # Every byte of the plain header of a pack in either mode: the fixed
        # fields, the config and a qat-int pack's head scales.
        for (base, specialist), mode in ((plain_pair, MODE_FP16), (qat_pair, MODE_QAT_INT)):
            d = compute_delta(base, specialist, mode, superclass_id=1)
            data = pack(d)
            fingerprint = base_fingerprint_of(base)
            rejected = 0
            for at, mutated in header_mutations(data, header_len(d)):
                superclass_byte = 6 <= at < 10
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        rebuilt = reconstruct(base, unpack(mutated), fingerprint, 1, specialist.head_dim)
                    except FormatError as exc:
                        assert not superclass_byte or "superclass" in str(exc)
                        rejected += 1
                        continue
                assert not superclass_byte, f"a mutated superclass id (byte {at}) was accepted"
                again = deserialize_network(serialize_network(rebuilt))
                assert serialize_network(again) == serialize_network(rebuilt)
            assert rejected, mode

    @pytest.mark.parametrize("pair, mode", [("plain_pair", MODE_FP16), ("qat_pair", MODE_QAT_INT)])
    def test_section_mutations_are_rejected_or_read_back(self, request, pair, mode):
        # Each mutant sets one to three bytes of the inflated section, the
        # tensor payload, half of them in its first 32 bytes, to Prng-chosen
        # values.
        base, specialist = request.getfixturevalue(pair)
        d = compute_delta(base, specialist, mode, superclass_id=1)
        payload = payload_of(d)
        fingerprint = base_fingerprint_of(base)
        rng = Prng(0x5EC7 + len(mode))
        outcomes = {"rejected": 0, "read_back": 0}
        for _ in range(150):
            mutated = bytearray(payload)
            reach = 32 if rng.next_u64() % 2 else len(payload)
            for _ in range(1 + rng.next_u64() % 3):
                mutated[rng.next_u64() % reach] = rng.next_u64() % 256
            blob = with_payload(d, bytes(mutated))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    again = unpack(blob)
                    reconstruct(base, again, fingerprint, 1, specialist.head_dim)
                except FormatError:
                    outcomes["rejected"] += 1
                    continue
            assert pack(again) == blob  # one encoding per payload
            outcomes["read_back"] += 1
        assert outcomes["rejected"] and outcomes["read_back"], outcomes


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
        assert len(qat_packed) <= len(fp16_packed)

    def test_ratio_contract(self, plain_pair):
        base, specialist = plain_pair
        packed = pack(compute_delta(base, specialist, MODE_FP16))
        row = CompressionRow("0", MODE_FP16, len(packed), len(serialize_network(specialist)))
        assert 0 < row.ratio < 1

    def test_identity_network_ratio_tiny(self):
        net = build_net(seed=17, dims=(32, 64, 64), head=4)
        packed = pack(compute_delta(net, net, MODE_FP16))
        reference = len(serialize_network(net))
        assert len(packed) / reference < 0.02 + verbatim_head_bytes(net) / reference


class TestDeltaMagnitude:
    def test_weight_deltas_concentrate_near_zero(self, plain_pair):
        # Finetuned weight deltas stay small relative to the base weights.
        # (Batch-norm running stats legitimately drift by large amounts:
        # they re-estimate the specialist's data distribution.)
        base, specialist = plain_pair
        d = compute_delta(base, specialist, MODE_FP16)
        deltas = np.concatenate(
            [t.astype(np.float64).ravel() for name, t in body_deltas(d) if name.endswith(".weight")]
        )
        base_vals = np.concatenate(
            [t.astype(np.float64).ravel() for _, t, is_w in body_items(base) if is_w]
        )
        assert np.abs(deltas).mean() < 0.1 * np.abs(base_vals).mean()
