"""Parameter deltas between a base network and its finetuned specialists.

Two storage modes:

* fp16 — body deltas rounded to binary16 (lossy by about half an ulp per
  element); works for any pair of structurally matching networks.
* qat-int — both networks must be snapped onto shared per-tensor integer
  grids (every body tensor, batch-norm stats included); deltas are exact
  signed 16-bit grid-index differences and reconstruction, done in the
  integer domain, is bit-exact.

Each entry has one kind, and `_KIND_DTYPES` gives the element type its
payload is stored in: verbatim float32 values, binary16 deltas, int16
grid-index deltas (plus the shared scale), or uint32 XOR deltas.

Which tensors form the head, and how a network with the same body and
another head width looks, is network.py's to say (`HEAD_TENSORS`,
`NetworkConfig.with_head`); this module only walks `tensor_items`. Head
tensors are stored without a value delta: the head is reinitialized at a
different width during finetuning, so none exists. When the head shape
happens to match the base (self-deltas, same-width specialists) an XOR
delta is used; otherwise the tensors are stored verbatim. No other kind
is valid for a head entry.

The packed container records a CRC-32C fingerprint of the base network
file; reconstruction against any other base fails loudly instead of
silently producing a plausible-looking network. The caller supplies the
base's fingerprint to `reconstruct`, so a server holding one base takes it
once rather than on every rebuild, and the superclass it wants rebuilt,
which the pack's own superclass id must match. Once the fingerprints
match, entries that do not fit the base (missing, duplicate or misshapen
entries, a head entry of a delta kind, a zero-width head, a qat-int pack
whose grids or head scales do not form a valid quantization block) can
only come from a corrupt or crafted file, so they are FormatErrors.

DeltaPacks are immutable and every function here is pure, so concurrent
use is safe; reconstruction allocates a fresh network and never mutates
the shared base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import Reader, Writer, check_trailing_crc, deflate, inflate
from .errors import (
    BaseMismatchError,
    ContractError,
    DeltaModeError,
    FormatError,
    ParameterError,
)
from .network import (
    HEAD_TENSORS,
    Network,
    QuantInfo,
    from_tensors,
    lattice_indices,
    serialize_network,
    tensor_items,
)
from .tensor import F32, f16_round

DELTA_MAGIC = b"HSDL"
DELTA_VERSION = 1

MODE_FP16 = "fp16"
MODE_QAT_INT = "qat-int"
_MODE_CODES = {MODE_FP16: 0, MODE_QAT_INT: 1}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}

KIND_F32_VALUE = 0  # verbatim float32 tensor (replacement, not a delta)
KIND_F16_DELTA = 1  # binary16 delta against the base tensor
KIND_I16_GRID_DELTA = 2  # signed grid-index delta plus the shared scale
KIND_XOR32_DELTA = 3  # bitwise XOR against the base tensor; exact and compact
# Stored element type of each kind's payload.
_KIND_DTYPES = {
    KIND_F32_VALUE: "<f4", KIND_F16_DELTA: "<f2", KIND_I16_GRID_DELTA: "<i2", KIND_XOR32_DELTA: "<u4"
}


@dataclass(frozen=True)
class DeltaEntry:
    name: str
    shape: tuple[int, ...]
    kind: int
    payload: np.ndarray  # f32 values, f16 deltas, or i16 grid deltas
    scale: float | None = None  # grid-index entries only


@dataclass(frozen=True)
class DeltaPack:
    superclass_id: int
    mode: str
    qat_bits: int
    base_fingerprint: int
    body_entries: tuple[DeltaEntry, ...]
    head_entries: tuple[DeltaEntry, ...]
    # Quantization scales of the specialist's head tensors (qat-int only);
    # needed to rebuild the specialist's quant record bit-exactly.
    head_scales: tuple[tuple[str, float], ...] | None


@dataclass(frozen=True)
class PackedDelta:
    data: bytes
    raw_size: int  # container size had the entry section not been compressed
    packed_size: int  # actual container size on the wire


def base_fingerprint_of(base: Network) -> int:
    """The base network file's own trailing checksum.

    The CRC of a whole container that ends in its own CRC is a constant
    residue, identical for every file, so the fingerprint must cover the
    body only; that is exactly the value already stored in the file's
    trailing field, which this returns.
    """
    return int.from_bytes(serialize_network(base)[-4:], "little")


def _xor_bits(t_sub: np.ndarray, t_base: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(t_sub, dtype="<f4").view(np.uint32)
    b = np.ascontiguousarray(t_base, dtype="<f4").view(np.uint32)
    return (a ^ b).reshape(t_sub.shape)


def _apply_xor(t_base: np.ndarray, payload: np.ndarray) -> np.ndarray:
    base_bits = np.ascontiguousarray(t_base, dtype="<f4").view(np.uint32)
    bits = base_bits ^ np.ascontiguousarray(payload, dtype=np.uint32)
    return bits.view("<f4").reshape(t_base.shape).astype(F32)


def compute_delta(base: Network, sub: Network, mode: str, superclass_id: int = 0) -> DeltaPack:
    """Extract the specialist's difference against the base network."""
    if mode not in _MODE_CODES:
        raise ParameterError(f"unknown delta mode {mode!r}")
    if base.config().with_head(sub.head_dim) != sub.config():
        raise ContractError(f"specialist {sub.config()} does not share the base's body {base.config()}")
    fingerprint = base_fingerprint_of(base)

    qat_bits = 0
    head_scales = None
    if mode == MODE_QAT_INT:
        if base.quant is None or sub.quant is None:
            raise DeltaModeError("qat-int deltas need both networks snapped to grids")
        if base.quant.bits != sub.quant.bits:
            raise DeltaModeError(
                f"bit width mismatch: base {base.quant.bits}, specialist {sub.quant.bits}"
            )
        if base.quant.body_scales() != sub.quant.body_scales():
            raise DeltaModeError("body quantization scales differ; grids are not shared")
        qat_bits = base.quant.bits
        head_scales = tuple(s for s in sub.quant.scales if s[0] in HEAD_TENSORS)

    body: list[DeltaEntry] = []
    head: list[DeltaEntry] = []
    for (name, t_base, _), (_, t_sub, _) in zip(tensor_items(base), tensor_items(sub)):
        if name in HEAD_TENSORS:
            if t_sub.shape == t_base.shape:
                head.append(DeltaEntry(name, t_sub.shape, KIND_XOR32_DELTA, _xor_bits(t_sub, t_base)))
            else:
                # Replaced head at a different width: no base tensor to delta against.
                head.append(DeltaEntry(name, t_sub.shape, KIND_F32_VALUE, t_sub.astype(F32)))
        elif mode == MODE_FP16:
            delta = f16_round((t_sub - t_base).astype(F32)).astype(np.float16)
            body.append(DeltaEntry(name, t_base.shape, KIND_F16_DELTA, delta))
        else:
            s = base.quant.scale_of(name)
            q_base = _exact_grid(t_base, s, f"base {name}")
            q_sub = _exact_grid(t_sub, s, f"specialist {name}")
            diff = q_sub - q_base
            if diff.size and max(abs(int(diff.max())), abs(int(diff.min()))) > 32767:
                raise DeltaModeError(f"grid delta for {name} overflows int16")
            body.append(DeltaEntry(name, t_base.shape, KIND_I16_GRID_DELTA, diff.astype(np.int16), s))
    return DeltaPack(superclass_id, mode, qat_bits, fingerprint, tuple(body), tuple(head), head_scales)


def _exact_grid(t: np.ndarray, scale: float, what: str) -> np.ndarray:
    q = lattice_indices(t, scale)
    if not np.array_equal((q.astype(F32) * F32(scale)).astype(F32), t):
        raise DeltaModeError(f"{what} is not on the shared quantization grid")
    return q


# --- container ---------------------------------------------------------------


def pack(d: DeltaPack) -> PackedDelta:
    """Serialize and DEFLATE-compress; the 16-byte header stays uncompressed."""
    entries = Writer()
    if d.head_scales is None:
        entries.u8(0)
    else:
        entries.u8(len(d.head_scales))
        for name, s in d.head_scales:
            entries.text(name)
            entries.f32(s)
    for group in (d.body_entries, d.head_entries):
        entries.u32(len(group))
        for e in group:
            entries.text(e.name)
            entries.u8(len(e.shape))
            for dim in e.shape:
                entries.u32(dim)
            if e.kind not in _KIND_DTYPES:
                raise ParameterError(f"unknown entry kind {e.kind}")
            entries.u8(e.kind)
            if e.kind == KIND_I16_GRID_DELTA:
                entries.f32(e.scale)
            entries.raw(np.ascontiguousarray(e.payload, dtype=_KIND_DTYPES[e.kind]).tobytes())
    blob = entries.body()
    compressed = deflate(blob)

    w = Writer()
    w.raw(DELTA_MAGIC)
    w.u16(DELTA_VERSION)
    w.u32(d.superclass_id)
    w.u8(_MODE_CODES[d.mode])
    w.u8(d.qat_bits)
    w.u32(d.base_fingerprint)
    w.raw(compressed)
    data = w.finish()
    return PackedDelta(data, raw_size=16 + len(blob) + 4, packed_size=len(data))


def unpack(data: bytes) -> DeltaPack:
    body = check_trailing_crc(data)
    r = Reader(body)
    r.expect_magic(DELTA_MAGIC)
    r.expect_version(DELTA_VERSION)
    superclass_id = r.u32()
    mode_code = r.u8()
    if mode_code not in _MODE_NAMES:
        raise FormatError(f"unknown delta mode code {mode_code}", offset=r.pos - 1)
    qat_bits = r.u8()
    fingerprint = r.u32()
    blob = inflate(body[r.pos :])

    er = Reader(blob)
    head_scales = None
    n_scales = er.u8()
    if n_scales:
        head_scales = tuple((er.text(), er.f32()) for _ in range(n_scales))

    def read_group() -> tuple[DeltaEntry, ...]:
        count = er.u32()
        out = []
        for _ in range(count):
            name = er.text()
            ndim = er.u8()
            shape = tuple(er.u32() for _ in range(ndim))
            kind = er.u8()
            dtype = _KIND_DTYPES.get(kind)
            if dtype is None:
                raise FormatError(f"unknown entry kind {kind}", offset=er.pos - 1)
            scale = er.f32() if kind == KIND_I16_GRID_DELTA else None
            n = math.prod(shape) * np.dtype(dtype).itemsize
            payload = np.frombuffer(er.raw(n), dtype=dtype).reshape(shape).copy()
            out.append(DeltaEntry(name, shape, kind, payload, scale))
        return tuple(out)

    body_entries = read_group()
    head_entries = read_group()
    er.expect_end()
    return DeltaPack(
        superclass_id, _MODE_NAMES[mode_code], qat_bits, fingerprint, body_entries, head_entries, head_scales
    )


# --- reconstruction ----------------------------------------------------------


def reconstruct(base: Network, d: DeltaPack, base_fingerprint: int, superclass_id: int) -> Network:
    """Rebuild superclass_id's specialist: body = base + delta, head by XOR or verbatim.

    `base_fingerprint` is `base_fingerprint_of(base)`, which the caller
    takes once per base; a pack computed against another base raises
    BaseMismatchError, and a pack of another superclass FormatError.
    qat-int reconstruction works in the integer domain —
    recover the base's grid indices, add the stored index deltas, rescale —
    which reproduces the stored specialist bit for bit. Entries that do not
    fit the base (a grid entry whose scale is not the base's shared grid
    included), and tensors that rebuild to NaN or infinity, are
    FormatErrors: no pack computed against this base holds them.
    """
    if base_fingerprint != d.base_fingerprint:
        raise BaseMismatchError(
            f"delta was computed against base {d.base_fingerprint:#010x}, "
            f"got network with fingerprint {base_fingerprint:#010x}"
        )
    if d.superclass_id != superclass_id:
        raise FormatError(f"delta holds superclass {d.superclass_id}, not {superclass_id}")
    if d.mode == MODE_QAT_INT and (base.quant is None or d.qat_bits != base.quant.bits):
        raise FormatError(f"qat-int pack of {d.qat_bits} bits does not fit the base's quantization grids")
    items = tensor_items(base)
    n_body = len(items) - len(HEAD_TENSORS)
    body = {e.name: e for e in d.body_entries}
    head = {e.name: e for e in d.head_entries}
    if len(body) != len(d.body_entries) or len(body) != n_body:
        raise FormatError(
            f"delta has {len(d.body_entries)} body entries, base has {n_body} body tensors"
        )
    if set(head) != set(HEAD_TENSORS):
        raise FormatError(f"unexpected head entries {sorted(head)}")

    rebuilt: dict[str, np.ndarray] = {}
    scales: list[tuple[str, float]] = []
    for name, t_base, _ in items:
        is_head = name in HEAD_TENSORS
        e = head[name] if is_head else body.get(name)
        if e is None:
            raise FormatError(f"delta is missing body entry {name}")
        if is_head and e.kind == KIND_F32_VALUE:
            # A replaced head may change width, never rank or fan-in.
            if not e.shape or e.shape[1:] != t_base.shape[1:]:
                raise FormatError(f"verbatim {name} shape {e.shape} does not fit base {t_base.shape}")
        elif is_head and e.kind != KIND_XOR32_DELTA:
            raise FormatError(f"head entry {name} has kind {e.kind}; only xor or verbatim is valid")
        elif e.shape != t_base.shape:
            raise FormatError(f"entry {name} shape {e.shape} != base shape {t_base.shape}")
        if e.kind == KIND_F16_DELTA:
            t = (t_base + e.payload.astype(F32)).astype(F32)
        elif e.kind == KIND_I16_GRID_DELTA:
            if base.quant is None or e.scale != base.quant.scale_of(name):
                raise FormatError(f"grid entry {name} has scale {e.scale}, not the base's shared grid")
            q_new = lattice_indices(t_base, e.scale) + e.payload.astype(np.int32)
            t = (q_new.astype(F32) * F32(e.scale)).astype(F32)
            scales.append((name, e.scale))
        elif e.kind == KIND_XOR32_DELTA:
            t = _apply_xor(t_base, e.payload)
        else:
            t = e.payload.astype(F32)
        if not np.isfinite(t).all():
            raise FormatError(f"delta entry {name} rebuilds to non-finite values")
        rebuilt[name] = t

    quant = None
    if d.mode == MODE_QAT_INT:
        quant = QuantInfo(d.qat_bits, (*scales, *(d.head_scales or ())))
        quant.check([name for name, _, _ in items])
    try:
        config = base.config().with_head(len(rebuilt[HEAD_TENSORS[0]]))
        return from_tensors(config, rebuilt, quant)
    except (ContractError, ParameterError) as exc:
        raise FormatError(f"head entries do not form a head of width >= 1: {exc}") from exc


# --- reporting helpers --------------------------------------------------------


def compression_ratio(packed: PackedDelta, reference_model_bytes: int) -> float:
    """Packed bytes over the matching-precision specialist model bytes."""
    if reference_model_bytes <= 0:
        raise ParameterError(f"reference size must be > 0, got {reference_model_bytes}")
    return packed.packed_size / reference_model_bytes


def quantized_network_bytes(net: Network) -> int:
    """Size of the network container had weights been stored as int8.

    This is the reference for qat-int compression ratios: identical layout
    to the float32 container, with each weight element taking one byte
    (per-tensor scales are already carried in the header's quant block).
    """
    full = len(serialize_network(net))
    weight_elems = sum(layer.weight.size for layer in net.layers)
    return full - 3 * weight_elems

