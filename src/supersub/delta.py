"""Parameter deltas between a base network and its finetuned specialists.

Two storage modes:

* fp16 — body deltas rounded to binary16 (lossy by about half an ulp per
  element); works for any pair of structurally matching networks.
* qat-int — both networks must be snapped onto shared per-tensor integer
  grids (every body tensor, batch-norm stats included); deltas are exact
  signed 16-bit grid-index differences and reconstruction, done in the
  integer domain, is bit-exact.

A pack follows network.py's tensor layout rather than describing it: it
holds the specialist's `NetworkConfig`, and one tensor per
`tensor_shapes(config)` entry in that order, the body as deltas of the
mode's element type and the head (`HEAD_TENSORS`) verbatim, because the
head is reinitialized at another width during finetuning and has no base
tensor to delta against. No tensor name, shape or per-tensor body scale is
stored: the body is the base's, and so are its qat-int grids. A qat-int
pack adds only the specialist's two head scales. The config and head
scales sit in the pack's plain header and only the tensor payload is
DEFLATE-compressed, so the header fixes the payload's length before any
of it is inflated.

The packed container records a CRC-32C fingerprint of the base network
file; reconstruction against any other base fails loudly instead of
silently producing a plausible-looking network. The caller supplies the
base's fingerprint to `reconstruct`, so a server holding one base takes it
once rather than on every rebuild, and the superclass it wants rebuilt,
which the pack's own superclass id must match.

DeltaPacks are immutable and every function here is pure, so concurrent
use is safe; reconstruction allocates a fresh network and never mutates
the shared base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import Reader, Writer, deflate, inflate, open_container, seal, stored_checksum
from .errors import ContractError, FormatError, ParameterError
from .network import (
    HEAD_TENSORS,
    Network,
    NetworkConfig,
    QuantInfo,
    exact_lattice_indices,
    lattice_indices,
    read_config,
    read_tensors,
    serialize_network,
    split_flat,
    tensor_items,
    tensor_shapes,
    tensors_size,
    write_config,
    write_tensors,
)
from .tensor import F32, f16_round

DELTA_MAGIC = b"HSDL"
DELTA_VERSION = 5

MODE_FP16 = "fp16"
MODE_QAT_INT = "qat-int"
_MODE_CODES = {MODE_FP16: 0, MODE_QAT_INT: 1}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}
# Stored element type of each mode's body deltas.
_BODY_DTYPES = {MODE_FP16: "<f2", MODE_QAT_INT: "<i2"}


@dataclass(frozen=True)
class DeltaPack:
    superclass_id: int
    mode: str
    base_fingerprint: int
    config: NetworkConfig  # the specialist's
    # One array per tensor_shapes(config) entry: body deltas (float16 or
    # int16 grid-index deltas), then the head tensors verbatim.
    tensors: tuple[np.ndarray, ...]
    # The specialist's head scales in HEAD_TENSORS order (qat-int only);
    # needed to rebuild the specialist's quant record bit-exactly.
    head_scales: tuple[float, ...] | None


def base_fingerprint_of(base: Network) -> int:
    """The base network file's own trailing checksum.

    The CRC of a whole container that ends in its own CRC is a constant
    residue, identical for every file, so the fingerprint must cover the
    body only; that is exactly the value already stored in the file's
    trailing field, which this returns.
    """
    return stored_checksum(serialize_network(base))


def compute_delta(base: Network, sub: Network, mode: str, superclass_id: int = 0) -> DeltaPack:
    """Extract the specialist's difference against the base network."""
    if mode not in _MODE_CODES:
        raise ParameterError(f"unknown delta mode {mode!r}")
    if base.config.with_head(sub.head_dim) != sub.config:
        raise ContractError(f"specialist {sub.config} does not share the base's body {base.config}")
    fingerprint = base_fingerprint_of(base)

    head_scales = None
    if mode == MODE_QAT_INT:
        if base.quant is None or sub.quant is None:
            raise ContractError("qat-int deltas need both networks snapped to grids")
        if base.quant.body_scales() != sub.quant.body_scales():
            raise ContractError("body quantization scales differ; grids are not shared")
        head_scales = sub.quant.head_scales()

    tensors: list[np.ndarray] = []
    for i, ((name, t_base, _), (_, t_sub, _)) in enumerate(zip(tensor_items(base), tensor_items(sub))):
        if name in HEAD_TENSORS:
            tensors.append(t_sub)
        elif mode == MODE_FP16:
            try:
                delta = f16_round((t_sub - t_base).astype(F32))
            except OverflowError as exc:
                raise ContractError(f"{name} delta does not fit binary16 ({exc}); use qat-int") from exc
            tensors.append(delta.astype(np.float16))
        else:
            s = base.quant.scales[i]
            diff = _exact_grid(t_sub, s, f"specialist {name}") - _exact_grid(t_base, s, f"base {name}")
            if diff.size and max(abs(int(diff.max())), abs(int(diff.min()))) > 32767:
                raise ContractError(f"grid delta for {name} overflows int16")
            tensors.append(diff.astype(np.int16))
    return DeltaPack(superclass_id, mode, fingerprint, sub.config, tuple(tensors), head_scales)


def _exact_grid(t: np.ndarray, scale: float, what: str) -> np.ndarray:
    q = exact_lattice_indices(t, scale)
    if q is None:
        raise ContractError(f"{what} is not on the shared quantization grid")
    return q


# --- container ---------------------------------------------------------------


def pack(d: DeltaPack) -> bytes:
    """Serialize; only the tensor payload is DEFLATE-compressed, after a
    plain header that sizes it."""
    payload = Writer()
    write_tensors(payload, d.tensors, _BODY_DTYPES[d.mode])
    w = Writer()
    w.u32(d.superclass_id)
    w.u8(_MODE_CODES[d.mode])
    w.u32(d.base_fingerprint)
    write_config(w, d.config)
    for s in d.head_scales or ():
        w.f32(s)
    w.raw(deflate(payload.body()))
    return seal(DELTA_MAGIC, DELTA_VERSION, w.body())


def unpack(data: bytes) -> DeltaPack:
    """Parse a packed delta; needs no base, so a pack can be read on its own.

    The plain header's config and mode fix the payload's length, so the
    payload inflates in one call bounded by it; a stream that runs on past
    it, or ends before it, is a FormatError.
    """
    r = open_container(data, DELTA_MAGIC, DELTA_VERSION)
    superclass_id = r.u32()
    mode_code = r.u8()
    if mode_code not in _MODE_NAMES:
        raise FormatError(f"unknown delta mode code {mode_code}", offset=r.pos - 1)
    mode = _MODE_NAMES[mode_code]
    fingerprint = r.u32()
    config = read_config(r)
    head_scales = tuple(r.f32() for _ in HEAD_TENSORS) if mode == MODE_QAT_INT else None
    dtype = _BODY_DTYPES[mode]
    payload = inflate(r.data[r.pos :], tensors_size(config, dtype))
    tensors = read_tensors(Reader(payload), config, dtype)
    return DeltaPack(superclass_id, mode, fingerprint, config, tensors, head_scales)


# --- reconstruction ----------------------------------------------------------


def reconstruct(base: Network, d: DeltaPack, base_fingerprint: int, superclass_id: int, head_dim: int) -> Network:
    """Rebuild superclass_id's specialist, of head width head_dim (its
    subclass count): body = base + delta, head verbatim.

    `base_fingerprint` is `base_fingerprint_of(base)`, which the caller
    takes once per base; a pack computed against another base raises
    FormatError. qat-int reconstruction works in the integer domain —
    recover the base's grid indices, add the stored index deltas, rescale —
    which reproduces the stored specialist bit for bit. Either mode runs
    one pass over the body laid end to end, each element against its own
    tensor's scale, and the rebuilt body tensors are views of that one
    array. No pack computed against this base holds another superclass, a
    head of another width, a config that does not share the base's body, a
    qat-int mode for a base without grids, head scales that are not finite
    and positive, a qat-int head off the lattice of its scale, or a delta
    that rebuilds to NaN or infinity, so each is a FormatError, as the HSNW
    reader would find it in the rebuilt file. A qat-int specialist takes its
    body scales from the base.
    """
    if base_fingerprint != d.base_fingerprint:
        raise FormatError(
            f"delta was computed against base {d.base_fingerprint:#010x}, "
            f"got network with fingerprint {base_fingerprint:#010x}"
        )
    if d.superclass_id != superclass_id:
        raise FormatError(f"delta holds superclass {d.superclass_id}, not {superclass_id}")
    if d.config.head_dim != head_dim:
        raise FormatError(f"delta holds a head of width {d.config.head_dim}, not {head_dim}")
    if d.mode == MODE_QAT_INT and base.quant is None:
        raise FormatError("qat-int pack needs a base with quantization grids")
    if d.config.with_head(base.head_dim) != base.config:
        raise FormatError(f"delta holds specialist {d.config}, which does not share the base's body {base.config}")

    quant = None
    if d.mode == MODE_QAT_INT:
        quant = QuantInfo((*base.quant.body_scales(), *d.head_scales))
        quant.check()
    body = base.tensors[: -len(HEAD_TENSORS)]
    head = d.tensors[len(body) :]
    flat_base = np.concatenate([t.ravel() for t in body])
    flat_delta = np.concatenate([t.ravel() for t in d.tensors[: len(body)]])
    # A corrupt delta (a signalling NaN, a sum past float32) rebuilds to
    # NaN or infinity, which the check below rejects, not to a warning.
    with np.errstate(invalid="ignore", over="ignore"):
        if quant is None:
            flat = flat_base + flat_delta.astype(F32)
        else:
            scales = np.repeat(np.array(quant.body_scales(), dtype=F32), [t.size for t in body])
            flat = (lattice_indices(flat_base, scales) + flat_delta).astype(F32) * scales
    rebuilt = [*split_flat(flat, tensor_shapes(d.config)[: len(body)]), *head]
    if not (np.isfinite(flat).all() and all(np.isfinite(t).all() for t in head)):
        name = next(name for (name, _), t in zip(tensor_shapes(d.config), rebuilt) if not np.isfinite(t).all())
        raise FormatError(f"delta tensor {name} rebuilds to non-finite values")
    if quant is not None:
        for name, t, s in zip(HEAD_TENSORS, head, quant.head_scales()):
            if exact_lattice_indices(t, s) is None:
                raise FormatError(f"delta tensor {name} is off the lattice of its head scale")
    return Network(d.config, tuple(rebuilt), quant)

