"""Feedforward network: parameters, forward/backward, quantization, file IO.

Every hidden layer is dense -> batch norm -> relu, its dense layer without
a bias (batch centering would cancel one; beta is the shift); the head is
a bare dense layer, weight and bias, feeding a softmax cross-entropy loss.
All math runs through the fixed-order float32 kernels in tensor.py so
training is bit-reproducible.

A Network is its tensor layout: a config and one array per
`tensor_shapes(config)` entry, in that order, plus the quantization block
if it was snapped. The constructor checks the count, every shape and one
scale per tensor, and the layer-walking code here reads the tuple through
one private generator, `_layers`.

Only this module knows three rules; other modules ask it. The tensor
layout: `tensor_shapes(config)` names every tensor and its shape in file
order, for `Network`, `tensor_items`, and `write_tensors`,
`read_tensors` and `tensors_size`, which with `write_config` and
`read_config` give the HSNW and HSDL containers one config header and one
payload order, and HSDL the size of its payload. The
body/head split: the head is `HEAD_TENSORS`, the body `body_items`, and
`NetworkConfig.with_head` keeps a body under another head width. The grid
rule: every grid is `QAT_BITS` wide, and `QatConfig.scale` gives a tensor
its pinned body scale if it has one, else its own live scale, for
fake-quantized forwards and `snap_to_grid`;
`exact_lattice_indices` is the one test that a tensor sits on the lattice
of its scale, for the HSNW reader and qat-int deltas alike.
Quantization scales follow the same layout: `QuantInfo.scales` and
`QatConfig.body_scales` are positional, one scale per `tensor_shapes` entry,
and an HSNW file stores them as bare floats in that order, with no names
and no bit width.

Networks are immutable: `Network.__post_init__` marks every tensor
read-only (its `writeable` flag, no copy), so a write into a
network's arrays raises ValueError, and networks and their tensors are
shared, never copied, across threads too.
A gradient is a Network as well, of the network's own config. A training
forward returns the batch-norm running-stat updates inside its cache, and
sgd_step builds the next network from the stepped tensors and those updates.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import tensor
from .container import Reader, Writer, open_container, seal
from .errors import ContractError, FormatError, ParameterError
from .tensor import F32, Prng, matmul, ordered_axis0_sum, relu, softmax_rows

NETWORK_MAGIC = b"HSNW"
NETWORK_VERSION = 3
HEAD_TENSORS = ("head.weight", "head.bias")  # the head's (weight, bias), last in every layout
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9
QAT_BITS = 8  # the width of every quantization grid


@dataclass(frozen=True)
class NetworkConfig:
    layer_dims: tuple[int, ...]  # input, hidden..., output

    def __post_init__(self):
        if len(self.layer_dims) < 3:
            raise ParameterError("need at least one hidden layer")
        if any(d < 1 for d in self.layer_dims):
            raise ParameterError(f"all dims must be >= 1, got {self.layer_dims}")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def head_dim(self) -> int:
        return self.layer_dims[-1]

    def with_head(self, width: int) -> "NetworkConfig":
        """The same body with a head of another width."""
        return replace(self, layer_dims=(*self.layer_dims[:-1], width))


@dataclass(frozen=True)
class QuantInfo:
    """Records that every tensor sits on its per-tensor quantization lattice."""

    scales: tuple[float, ...]  # one per tensor_shapes entry, in that order

    def body_scales(self) -> tuple[float, ...]:
        """The scales of the body tensors, in layout order."""
        return self.scales[: -len(HEAD_TENSORS)]

    def head_scales(self) -> tuple[float, ...]:
        """The scales of the HEAD_TENSORS, in that order."""
        return self.scales[-len(HEAD_TENSORS) :]

    def check(self) -> None:
        """FormatError unless every scale is finite and positive."""
        if not all(math.isfinite(s) and s > 0 for s in self.scales):
            raise FormatError("quantization scales must be finite and positive")


@dataclass(frozen=True)
class Network:
    """A network is its tensor layout: one array per `tensor_shapes(config)`
    entry, in that order, and the quantization block if it was snapped.
    Every tensor is made read-only."""

    config: NetworkConfig
    tensors: tuple[np.ndarray, ...]
    quant: QuantInfo | None = None

    def __post_init__(self):
        shapes = tensor_shapes(self.config)
        if len(self.tensors) != len(shapes):
            raise ContractError(f"{len(self.tensors)} tensors for the {len(shapes)} of {self.config}")
        for (name, shape), t in zip(shapes, self.tensors):
            if t.shape != shape:
                raise ContractError(f"{name}: got shape {t.shape}, the config needs shape {shape}")
        if self.quant is not None and len(self.quant.scales) != len(shapes):
            raise ContractError(f"{len(self.quant.scales)} quantization scales for {len(shapes)} tensors")
        for t in self.tensors:
            t.setflags(write=False)

    @property
    def head_dim(self) -> int:
        return self.config.head_dim

    @property
    def input_dim(self) -> int:
        return self.config.input_dim


def _layers(ts):
    """(weight, None, (gamma, beta, running mean, running var)) of each
    hidden layer, then (weight, bias, None) of the head, from a network's
    tensors in layout order."""
    for i in range(0, len(ts) - len(HEAD_TENSORS), 5):
        yield ts[i], None, ts[i + 1 : i + 5]
    yield ts[-2], ts[-1], None


def init_network(config: NetworkConfig, seed: int) -> Network:
    """He-initialized weights, identity batch norm with stats (0, 1), a
    zero head bias."""
    rng = Prng(seed)
    tensors = []
    dims = config.layer_dims
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        sigma = (2.0 / fan_in) ** 0.5
        ones, zeros = np.ones(fan_out, dtype=F32), np.zeros(fan_out, dtype=F32)
        tensors.append(tensor.gaussian_array(rng, (fan_out, fan_in), 0.0, sigma))
        tensors += [ones, zeros, zeros, ones] if i < len(dims) - 2 else [zeros]
    return Network(config, tuple(tensors))


def replace_head(net: Network, head_dim: int, seed: int) -> Network:
    """Body tensors kept bit-exact; head reinitialized at the new width."""
    fan_in = net.config.layer_dims[-2]
    rng = Prng(seed)
    sigma = (2.0 / fan_in) ** 0.5
    head = (tensor.gaussian_array(rng, (head_dim, fan_in), 0.0, sigma), np.zeros(head_dim, dtype=F32))
    return Network(net.config.with_head(head_dim), (*net.tensors[: -len(HEAD_TENSORS)], *head))


def parameter_count(net: Network) -> int:
    return sum(t.size for t in net.tensors)


def network_bytes(net: Network) -> int:
    """Resident float32 bytes of all parameters and batch-norm buffers."""
    return 4 * parameter_count(net)


@lru_cache(maxsize=64)
def tensor_shapes(config: NetworkConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, shape) of every tensor of a network of this config, in file
    order: hidden layer by hidden layer its weight, then batch-norm gamma,
    beta, running mean and running variance; the head's weight and bias
    last."""
    dims = config.layer_dims
    shapes = []
    for i in range(len(dims) - 2):
        n = dims[i + 1]
        shapes.append((f"layer{i}.weight", (n, dims[i])))
        shapes += [(f"layer{i}.bn_{k}", (n,)) for k in ("gamma", "beta", "mean", "var")]
    return (*shapes, *zip(HEAD_TENSORS, ((dims[-1], dims[-2]), (dims[-1],))))


def tensor_items(net: Network) -> list[tuple[str, np.ndarray, bool]]:
    """(name, tensor, is_weight) for every tensor, in tensor_shapes order."""
    return [(name, t, name.endswith(".weight")) for (name, _), t in zip(tensor_shapes(net.config), net.tensors)]


def body_items(net: Network) -> list[tuple[str, np.ndarray, bool]]:
    """tensor_items without the HEAD_TENSORS."""
    return tensor_items(net)[: -len(HEAD_TENSORS)]


# --- quantization -----------------------------------------------------------


_QMAX = (1 << (QAT_BITS - 1)) - 1  # the largest grid index


def quantize_scale(t: np.ndarray) -> float:
    """Symmetric per-tensor scale; an all-zero tensor gets scale 1."""
    amax = F32(np.max(np.abs(t))) if t.size else F32(0.0)
    if amax == 0:
        return 1.0
    return float(amax / F32(_QMAX))


def quantize_with_scale(t: np.ndarray, scale: float) -> np.ndarray:
    """Round to the integer grid (half away from zero), clamp to +-_QMAX,
    rescale; in float32 throughout, with no integer cast that a magnitude
    could wrap, and an exact zero as +0.0."""
    scaled, q = _nearest_coordinates(t, scale)
    np.minimum(q, F32(_QMAX), out=q)
    np.copysign(q, scaled, out=q)
    q *= F32(scale)
    q += F32(0.0)  # -0.0 + 0.0 is +0.0
    return q


def _nearest_coordinates(t: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """(t / scale, the magnitude of its nearest lattice coordinate, half away
    from zero), both float32: the one rounding rule of every grid."""
    scaled = np.asarray(t, dtype=F32) / F32(scale)
    magnitude = np.abs(scaled)
    magnitude += F32(0.5)
    return scaled, np.floor(magnitude, out=magnitude)


def lattice_indices(t: np.ndarray, scale: float) -> np.ndarray:
    """Nearest lattice coordinate of each element (half away from zero)."""
    scaled, magnitude = _nearest_coordinates(t, scale)
    return np.copysign(magnitude, scaled, out=magnitude).astype(np.int32)


def exact_lattice_indices(t: np.ndarray, scale) -> np.ndarray | None:
    """t's lattice indices if every element of t sits exactly on the lattice
    of its scale, else None: the one grid test, shared by the HSNW reader
    and qat-int deltas. scale is one float, or an array of one scale per
    element of t. t must be finite. An element more than 2**30 steps out
    counts as off the lattice, so its index never overflows int32."""
    s = F32(scale)
    if not (np.abs(t) * F32(2.0**-30) <= s).all():  # exact, and cannot overflow
        return None
    q = lattice_indices(t, scale)
    return q if (q.astype(F32) * s == t).all() else None


@dataclass(frozen=True)
class QatConfig:
    """Fake-quantization of the weights in forward passes, and the grid rule.

    body_scales pins the body tensors, in layout order, to a base
    network's grids (shared-grid finetuning); every other tensor, the head
    always, gets its own live scale, derived from its current values.
    """

    body_scales: tuple[float, ...] | None = None

    def scale(self, i: int, t: np.ndarray) -> float:
        """The pinned body scale of layout entry i if it has one, else t's live scale."""
        if self.body_scales is not None and i < len(self.body_scales):
            return self.body_scales[i]
        return quantize_scale(t)


def effective_weights(net: Network, qat: QatConfig) -> list[np.ndarray]:
    """Weights as seen by fake-quantized forward passes: their grid projections."""
    return [
        quantize_with_scale(t, qat.scale(i, t))
        for i, (_, t, is_weight) in enumerate(tensor_items(net))
        if is_weight
    ]


def snap_to_grid(net: Network, body_scales: tuple[float, ...] | None = None) -> Network:
    """Project every tensor onto its integer grid and record the scales.

    The whole network is stored quantized, not just the weights: the head
    bias and the batch-norm tensors land on their own per-tensor lattices
    so that delta extraction yields exact integer differences everywhere.
    Weights are snapped by `quantize_with_scale`, the fake quantization
    they trained against, so they clamp to its grid; the other tensors
    round without clamping, because running statistics legitimately drift
    far outside the base network's range and clamping them would wreck
    inference. Running variances are floored at one
    lattice step to stay positive. Scales follow `QatConfig(body_scales).scale`:
    body_scales pins the body lattices to a base network's (shared grids
    for delta extraction); the head always uses its own live scales
    because its shape differs from any base network.
    """
    if body_scales is not None and len(body_scales) != len(body_items(net)):
        raise ContractError(f"{len(body_scales)} body scales for {len(body_items(net))} body tensors")
    qat = QatConfig(body_scales)
    scales: list[float] = []
    tensors: list[np.ndarray] = []
    for i, (name, t, is_weight) in enumerate(tensor_items(net)):
        s = qat.scale(i, t)
        scales.append(s)
        if is_weight:
            tensors.append(quantize_with_scale(t, s))
            continue
        q = lattice_indices(t, s)
        if name.endswith(".bn_var"):
            q = np.maximum(q, 1)  # running variance must stay positive
        tensors.append((q.astype(F32) * F32(s)).astype(F32))
    return Network(net.config, tuple(tensors), QuantInfo(tuple(scales)))


# --- forward / backward ------------------------------------------------------


@dataclass
class LayerCache:
    x: np.ndarray  # layer input
    pre_act: np.ndarray  # post-bn, pre-relu (or logits for the head)
    xhat: np.ndarray | None  # bn-normalized input, training mode only
    sigma: np.ndarray | None  # sqrt(var + eps) used to normalize
    bn_update: tuple[np.ndarray, np.ndarray] | None  # new running (mean, var)


@dataclass
class ForwardCache:
    layer_caches: list[LayerCache]
    eff_weights: list[np.ndarray]
    training: bool


def forward(
    net: Network,
    batch: np.ndarray,
    training: bool = False,
    qat: QatConfig | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network over a batch of rows; returns logits and the cache.

    Training mode normalizes with batch statistics and stashes the momentum
    update for the running stats in the cache; inference mode uses the
    stored running statistics, making each row's output independent of the
    rest of the batch, bit for bit.
    """
    batch = tensor.as_float(batch)
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise ContractError(
            f"batch shape {batch.shape} does not match input dim {net.input_dim}"
        )
    m = batch.shape[0]
    grid = None if qat is None else effective_weights(net, qat)
    weights: list[np.ndarray] = []
    caches: list[LayerCache] = []
    a = batch
    for i, (weight, bias, bn) in enumerate(_layers(net.tensors)):
        weights.append(weight if grid is None else grid[i])
        z = matmul(a, weights[i].T)
        xhat = sigma = bn_update = None
        if bn is None:
            z = z + bias  # the head
        else:
            gamma, beta, running_mean, running_var = bn
            if training:
                if m < 2:
                    raise ContractError("batch-norm training needs batch size >= 2")
                mu = ordered_axis0_sum(z) / F32(m)
                centered = z - mu
                var = ordered_axis0_sum(centered * centered) / F32(m)
                sigma = np.sqrt(var + F32(BN_EPSILON))
                xhat = centered / sigma
                new_mean = F32(BN_MOMENTUM) * running_mean + F32(1 - BN_MOMENTUM) * mu
                new_var = F32(BN_MOMENTUM) * running_var + F32(1 - BN_MOMENTUM) * var
                bn_update = (new_mean, new_var)
            else:
                sigma = np.sqrt(running_var + F32(BN_EPSILON))
                xhat = (z - running_mean) / sigma
            z = gamma * xhat + beta
        caches.append(LayerCache(a, z, xhat if training else None, sigma, bn_update))
        a = z if bn is None else relu(z)
    return tensor.check_finite(a, "forward logits"), ForwardCache(caches, weights, training)


def backward(net: Network, cache: ForwardCache, probs: np.ndarray, labels) -> Network:
    """Gradient of mean cross-entropy w.r.t. every parameter, as a Network.

    probs is `softmax_rows` of the logits of the training forward that
    filled cache; the caller takes it once, for its loss too.

    The gradient network has the config of net, each tensor holding the
    gradient of the matching parameter. A batch-norm layer's running-stat
    slots hold zeros, their true gradient: a training-mode forward never
    reads them.

    With fake-quantized forward weights the gradients pass straight through
    to the full-precision masters: input gradients use the effective
    weights, parameter gradients land on the master tensors unchanged.
    """
    if not cache.training:
        raise ContractError("backward needs a cache from a training-mode forward")
    m, n = len(cache.layer_caches[0].x), net.head_dim
    if np.shape(probs) != (m, n):
        raise ContractError(f"probabilities of shape {np.shape(probs)} for a batch of {m} rows and {n} classes")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (m,):
        raise ContractError(f"{labels.shape[0] if labels.ndim else 0} labels for batch of {m}")
    if np.any(labels < 0) or np.any(labels >= n):
        raise ContractError(f"labels outside 0..{n - 1}")

    onehot = np.zeros_like(probs)
    onehot[np.arange(m), labels] = F32(1.0)
    d_out = (probs - onehot) / F32(m)

    layers = list(_layers(net.tensors))
    grads: list[list[np.ndarray]] = []  # per layer, head first
    for i in range(len(layers) - 1, -1, -1):
        _, _, bn = layers[i]
        lc = cache.layer_caches[i]
        if bn is None:
            d_rest = [ordered_axis0_sum(d_out)]  # the head bias
        else:
            d_out = d_out * (lc.pre_act > 0)  # relu mask
            zeros = np.zeros_like(bn[0])  # the running-stat slots
            d_rest = [ordered_axis0_sum(d_out * lc.xhat), ordered_axis0_sum(d_out), zeros, zeros]
            d_xhat = d_out * bn[0]
            mean_dxhat = ordered_axis0_sum(d_xhat) / F32(m)
            mean_dxhat_xhat = ordered_axis0_sum(d_xhat * lc.xhat) / F32(m)
            d_out = (d_xhat - mean_dxhat - lc.xhat * mean_dxhat_xhat) / lc.sigma
        grads.append([matmul(d_out.T, lc.x), *d_rest])
        if i > 0:
            d_out = matmul(d_out, cache.eff_weights[i])
    return Network(net.config, tuple(t for layer in reversed(grads) for t in layer))


def sgd_step(net: Network, grads: Network, lr: float, cache: ForwardCache) -> Network:
    """theta <- theta - lr * g for every trainable tensor; each batch-norm
    layer's running mean and variance become the momentum update in its
    LayerCache. cache must come from a training-mode forward of net: one
    of inference mode, or of another depth, is a ContractError."""
    if grads.config != net.config:
        raise ContractError(f"gradient of {grads.config} does not match network {net.config}")
    if not cache.training or len(cache.layer_caches) != len(net.config.layer_dims) - 1:
        raise ContractError("sgd_step needs the cache of a training-mode forward of this network")
    lr32 = F32(lr)

    def step(t, g):
        return (t - lr32 * g).astype(F32, copy=False)

    tensors: list[np.ndarray] = []
    layers = zip(_layers(net.tensors), _layers(grads.tensors), cache.layer_caches)
    for (weight, bias, bn), (d_weight, d_bias, d_bn), lc in layers:
        tensors.append(step(weight, d_weight))
        if bn is None:
            tensors.append(step(bias, d_bias))
        else:
            tensors += [step(bn[0], d_bn[0]), step(bn[1], d_bn[1]), *lc.bn_update]
    return Network(net.config, tuple(tensors))


# --- gradient checking -------------------------------------------------------


def _forward_loss_f64(tensors, batch: np.ndarray, labels: np.ndarray) -> float:
    """Independent float64 reference loss (training-mode batch norm) of a
    network's tensors, in layout order.

    Deliberately written with plain numpy reductions rather than the
    fixed-order kernels: this is the oracle side of the gradient check.
    """
    a = np.asarray(batch, dtype=np.float64)
    m = a.shape[0]
    for weight, bias, bn in _layers(tensors):
        z = a @ weight.T.astype(np.float64)
        if bn is None:
            a = z + bias.astype(np.float64)  # the head
        else:
            mu = z.mean(axis=0)
            var = ((z - mu) ** 2).mean(axis=0)
            xhat = (z - mu) / np.sqrt(var + BN_EPSILON)
            a = np.maximum(bn[0].astype(np.float64) * xhat + bn[1].astype(np.float64), 0.0)
    shifted = a - a.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    picked = probs[np.arange(m), labels]
    return float(-np.log(picked + tensor.CE_EPSILON).mean())


def _param_views(config: NetworkConfig, tensors) -> list[np.ndarray]:
    """The trainable ones of a network's tensors, in gradient order: all but
    the running statistics."""
    return [t for (n, _), t in zip(tensor_shapes(config), tensors) if not n.endswith((".bn_mean", ".bn_var"))]


def gradient_check(net: Network, batch: np.ndarray, labels, eps: float = 1e-4) -> float:
    """Max relative error between analytic gradients and central differences.

    Runs the production forward/backward code path on a float64 twin of the
    network and differences an independently written float64 loss: at
    float32, rounding noise alone (~1e-7 absolute) would swamp the
    comparison for any small gradient component. The differences perturb
    private float64 copies of the tensors, which only that loss reads: the
    twin, like every network, is read-only. Full-precision networks only;
    fake-quantized forwards are piecewise-constant and have no meaningful
    pointwise derivative.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    if parameter_count(net) > 10_000:
        raise ContractError("gradient_check is limited to networks with <= 10000 parameters")
    labels = np.asarray(labels, dtype=np.int64)
    batch64 = np.asarray(batch, dtype=np.float64)

    work = Network(net.config, tuple(t.astype(np.float64) for t in net.tensors))
    logits, cache = forward(work, batch64, training=True)
    grads = backward(work, cache, softmax_rows(logits), labels)

    probe = [t.copy() for t in work.tensors]
    worst = 0.0
    for p, g in zip(_param_views(net.config, probe), _param_views(net.config, grads.tensors)):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(flat_p.size):
            original = float(flat_p[idx])
            flat_p[idx] = original + eps
            loss_plus = _forward_loss_f64(probe, batch64, labels)
            flat_p[idx] = original - eps
            loss_minus = _forward_loss_f64(probe, batch64, labels)
            flat_p[idx] = original
            cd = (loss_plus - loss_minus) / (2.0 * eps)
            a = float(flat_g[idx])
            rel = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
            worst = max(worst, rel)
    return worst


# --- file format --------------------------------------------------------------


def write_config(w: Writer, config: NetworkConfig) -> None:
    """The config header HSNW and HSDL share: dim count, dims."""
    w.u32(len(config.layer_dims))
    for d in config.layer_dims:
        w.u32(d)


def read_config(r: Reader) -> NetworkConfig:
    """Inverse of write_config; a header NetworkConfig rejects is a FormatError."""
    n_dims = r.u32()
    dims = struct.unpack(f"<{n_dims}I", r.raw(4 * n_dims))
    try:
        return NetworkConfig(dims)
    except ParameterError as exc:
        raise FormatError(f"bad network header: {exc}", offset=r.pos) from exc


def write_tensors(w: Writer, tensors: list[np.ndarray] | tuple[np.ndarray, ...], body_dtype: str = "<f4") -> None:
    """One raw payload per tensor, in tensor_shapes order: body tensors as
    body_dtype, the HEAD_TENSORS (last) as float32."""
    n_body = len(tensors) - len(HEAD_TENSORS)
    for i, t in enumerate(tensors):
        w.raw(np.ascontiguousarray(t, dtype=body_dtype if i < n_body else "<f4").tobytes())


def _payload_parts(config: NetworkConfig, body_dtype: str):
    """(shapes, dtype, byte count) of the body's payload, then the head's."""
    shapes = tensor_shapes(config)
    n_body = len(shapes) - len(HEAD_TENSORS)
    for part, dtype in ((shapes[:n_body], np.dtype(body_dtype)), (shapes[n_body:], np.dtype("<f4"))):
        yield part, dtype, dtype.itemsize * sum(math.prod(shape) for _, shape in part)


def tensors_size(config: NetworkConfig, body_dtype: str = "<f4") -> int:
    """Bytes write_tensors writes for a network of this config."""
    return sum(size for _, _, size in _payload_parts(config, body_dtype))


def read_tensors(r: Reader, config: NetworkConfig, body_dtype: str = "<f4") -> tuple[np.ndarray, ...]:
    """Inverse of write_tensors for a network of this config: the body in
    one read and the head in another, each split into its tensors."""
    tensors = []
    for part, dtype, size in _payload_parts(config, body_dtype):
        tensors += split_flat(np.frombuffer(r.raw(size), dtype=dtype).astype(dtype.type), part)
    return tuple(tensors)


def split_flat(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive runs of flat, one per (name, shape) of shapes."""
    views, end = [], 0
    for _, shape in shapes:
        start, end = end, end + math.prod(shape)
        views.append(flat[start:end].reshape(shape))
    return views


def serialize_network(net: Network) -> bytes:
    w = Writer()
    write_config(w, net.config)
    if net.quant is None:
        w.u8(0)
    else:
        w.u8(1)
        for s in net.quant.scales:
            w.f32(s)
    write_tensors(w, net.tensors)
    return seal(NETWORK_MAGIC, NETWORK_VERSION, w.body())


def deserialize_network(data: bytes) -> Network:
    """Parse an HSNW file. A non-finite tensor, or a tensor of a quantized
    network off the lattice its scale records, is a FormatError."""
    r = open_container(data, NETWORK_MAGIC, NETWORK_VERSION)
    config = read_config(r)
    quant = None
    if r.flag("quantization"):
        quant = QuantInfo(tuple(r.f32() for _ in tensor_shapes(config)))
        quant.check()
    tensors = read_tensors(r, config)
    r.expect_end()
    # One pass over all tensors, each element against its tensor's scale: a
    # loop over the tensors costs about five times as much per load.
    flat = np.concatenate([t.ravel() for t in tensors])
    if not np.isfinite(flat).all():
        raise FormatError("network tensors hold non-finite values")
    if quant is not None:
        scales = np.repeat(np.asarray(quant.scales, dtype=F32), [t.size for t in tensors])
        if exact_lattice_indices(flat, scales) is None:
            raise FormatError("a network tensor is off the lattice of its quantization scale")
    return Network(config, tensors, quant)


def save_network(net: Network, path) -> None:
    with open(path, "wb") as f:
        f.write(serialize_network(net))


def load_network(path) -> Network:
    with open(path, "rb") as f:
        return deserialize_network(f.read())
