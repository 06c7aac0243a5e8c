"""Feedforward network: parameters, forward/backward, quantization, file IO.

Hidden layers are dense -> optional batch-norm -> relu; the head is a bare
dense layer feeding a softmax cross-entropy loss. All math runs through the
fixed-order float32 kernels in tensor.py so training is bit-reproducible.

Only this module knows three rules; other modules ask it. The tensor
layout: `tensor_shapes(config)` names every tensor and its shape in file
order, for `tensor_items`, `from_tensors`, and `write_tensors` and
`read_tensors`, which with `write_config` and `read_config` give the HSNW
and HSDL containers one config header and one payload order. The
body/head split: the head is `HEAD_TENSORS`, the body `body_items`, and
`NetworkConfig.with_head` keeps a body under another head width. The grid
rule: `QatConfig.scale` gives a tensor its pinned body scale if it has one,
else its own live scale, for fake-quantized forwards and `snap_to_grid`.
Quantization scales follow the same layout: `QuantInfo.scales` and
`QatConfig.body_scales` are positional, one scale per `tensor_shapes` entry,
and an HSNW file stores them as bare floats in that order, with no names.

Networks are immutable: nothing writes into a network's arrays, so
networks and their layers are shared, never copied, across threads too.
A gradient is a Network as well: backward returns one with the network's
own layer layout, and sgd_step pairs the two layer by layer. Batch-norm
running statistics are returned inside the forward cache and committed by
the training loop, not by forward itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import tensor
from .container import Reader, Writer, check_trailing_crc
from .errors import ContractError, DimensionError, FormatError, ParameterError
from .tensor import F32, Prng, matmul, ordered_axis0_sum, relu, softmax_rows

NETWORK_MAGIC = b"HSNW"
NETWORK_VERSION = 2
HEAD_TENSORS = ("head.weight", "head.bias")  # the head's (weight, bias), last in every layout
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.9


@dataclass(frozen=True)
class NetworkConfig:
    layer_dims: tuple[int, ...]  # input, hidden..., output
    batchnorm: tuple[bool, ...]  # one flag per hidden layer

    def __post_init__(self):
        if len(self.layer_dims) < 3:
            raise ParameterError("need at least one hidden layer")
        if any(d < 1 for d in self.layer_dims):
            raise ParameterError(f"all dims must be >= 1, got {self.layer_dims}")
        if len(self.batchnorm) != len(self.layer_dims) - 2:
            raise ParameterError(
                f"{len(self.batchnorm)} batchnorm flags for {len(self.layer_dims) - 2} hidden layers"
            )

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def head_dim(self) -> int:
        return self.layer_dims[-1]

    def with_head(self, width: int) -> "NetworkConfig":
        """The same body with a head of another width."""
        return replace(self, layer_dims=(*self.layer_dims[:-1], width))


def uniform_config(input_dim: int, hidden_dims: list[int], head_dim: int, batchnorm: bool) -> NetworkConfig:
    dims = (input_dim, *hidden_dims, head_dim)
    return NetworkConfig(dims, tuple(batchnorm for _ in hidden_dims))


@dataclass(frozen=True)
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass(frozen=True)
class LayerParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    bn: BatchNormParams | None


@dataclass(frozen=True)
class QuantInfo:
    """Records that every tensor sits on its per-tensor quantization lattice."""

    bits: int
    scales: tuple[float, ...]  # one per tensor_shapes entry, in that order

    def body_scales(self) -> tuple[float, ...]:
        """The scales of the body tensors, in layout order."""
        return self.scales[: -len(HEAD_TENSORS)]

    def head_scales(self) -> tuple[float, ...]:
        """The scales of the HEAD_TENSORS, in that order."""
        return self.scales[-len(HEAD_TENSORS) :]

    def check(self) -> None:
        """FormatError unless this block has 2..8 bits and every scale is
        finite and positive."""
        if not 2 <= self.bits <= 8:
            raise FormatError(f"quantization block has {self.bits} bits, not 2..8")
        if not all(math.isfinite(s) and s > 0 for s in self.scales):
            raise FormatError("quantization scales must be finite and positive")


@dataclass(frozen=True)
class Network:
    layers: tuple[LayerParams, ...]  # hidden layers then head (head has bn=None)
    quant: QuantInfo | None = None

    @property
    def head_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    def config(self) -> NetworkConfig:
        dims = [self.input_dim] + [layer.weight.shape[0] for layer in self.layers]
        flags = tuple(layer.bn is not None for layer in self.layers[:-1])
        return NetworkConfig(tuple(dims), flags)


def init_network(config: NetworkConfig, seed: int) -> Network:
    """He-initialized weights, zero biases, identity batch-norm, stats (0, 1)."""
    rng = Prng(seed)
    layers = []
    n_layers = len(config.layer_dims) - 1
    for i in range(n_layers):
        fan_in = config.layer_dims[i]
        fan_out = config.layer_dims[i + 1]
        sigma = (2.0 / fan_in) ** 0.5
        weight = tensor.gaussian_array(rng, (fan_out, fan_in), 0.0, sigma)
        bias = np.zeros(fan_out, dtype=F32)
        bn = None
        if i < n_layers - 1 and config.batchnorm[i]:
            bn = BatchNormParams(
                gamma=np.ones(fan_out, dtype=F32),
                beta=np.zeros(fan_out, dtype=F32),
                running_mean=np.zeros(fan_out, dtype=F32),
                running_var=np.ones(fan_out, dtype=F32),
            )
        layers.append(LayerParams(weight, bias, bn))
    return Network(tuple(layers))


def replace_head(net: Network, head_dim: int, seed: int) -> Network:
    """Body layers kept bit-exact; head reinitialized at the new width."""
    body = net.layers[:-1]
    fan_in = net.layers[-1].weight.shape[1]
    rng = Prng(seed)
    sigma = (2.0 / fan_in) ** 0.5
    head = LayerParams(
        tensor.gaussian_array(rng, (head_dim, fan_in), 0.0, sigma),
        np.zeros(head_dim, dtype=F32),
        None,
    )
    return Network((*body, head), None)


def parameter_count(net: Network) -> int:
    return sum(t.size for _, t, _ in tensor_items(net))


def network_bytes(net: Network) -> int:
    """Resident float32 bytes of all parameters and batch-norm buffers."""
    return 4 * parameter_count(net)


@lru_cache(maxsize=64)
def tensor_shapes(config: NetworkConfig) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, shape) of every tensor of a network of this config, in file
    order: layer by layer weight, bias, then any batch-norm gamma, beta,
    running mean and running variance; the head last."""
    dims = config.layer_dims
    shapes = []
    for i, has_bn in enumerate(config.batchnorm):
        n = dims[i + 1]
        shapes += [(f"layer{i}.weight", (n, dims[i])), (f"layer{i}.bias", (n,))]
        if has_bn:
            shapes += [(f"layer{i}.bn_{k}", (n,)) for k in ("gamma", "beta", "mean", "var")]
    return (*shapes, *zip(HEAD_TENSORS, ((dims[-1], dims[-2]), (dims[-1],))))


def tensor_items(net: Network) -> list[tuple[str, np.ndarray, bool]]:
    """(name, tensor, is_weight) for every tensor, in tensor_shapes order."""
    tensors = []
    for layer in net.layers:
        tensors += [layer.weight, layer.bias]
        if layer.bn is not None:
            tensors += [layer.bn.gamma, layer.bn.beta, layer.bn.running_mean, layer.bn.running_var]
    shapes = tensor_shapes(net.config())
    return [(name, t, name.endswith(".weight")) for (name, _), t in zip(shapes, tensors)]


def body_items(net: Network) -> list[tuple[str, np.ndarray, bool]]:
    """tensor_items without the HEAD_TENSORS."""
    return tensor_items(net)[: -len(HEAD_TENSORS)]


def from_tensors(
    config: NetworkConfig, tensors: dict[str, np.ndarray], quant: QuantInfo | None = None
) -> Network:
    """Inverse of tensor_items: the network of this config holding these tensors."""
    ordered = []
    for name, shape in tensor_shapes(config):
        t = tensors.get(name)
        if t is None or t.shape != shape:
            got = "nothing" if t is None else f"shape {t.shape}"
            raise ContractError(f"{name}: got {got}, the config needs shape {shape}")
        ordered.append(t)
    it = iter(ordered)
    layers = []
    for has_bn in (*config.batchnorm, False):
        weight, bias = next(it), next(it)
        bn = BatchNormParams(next(it), next(it), next(it), next(it)) if has_bn else None
        layers.append(LayerParams(weight, bias, bn))
    return Network(tuple(layers), quant)


# --- quantization -----------------------------------------------------------


def quantize_scale(t: np.ndarray, bits: int) -> float:
    """Symmetric per-tensor scale; an all-zero tensor gets scale 1."""
    if not 2 <= bits <= 8:
        raise ParameterError(f"bits must be in [2, 8], got {bits}")
    amax = F32(np.max(np.abs(t))) if t.size else F32(0.0)
    if amax == 0:
        return 1.0
    return float(amax / F32((1 << (bits - 1)) - 1))


def quantize_with_scale(t: np.ndarray, scale: float, bits: int) -> np.ndarray:
    """Round to the integer grid (half away from zero), clamp, rescale."""
    q = grid_indices(t, scale, bits)
    return (q.astype(F32) * F32(scale)).astype(F32)


def lattice_indices(t: np.ndarray, scale: float) -> np.ndarray:
    """Nearest lattice coordinate of each element (half away from zero)."""
    scaled = np.asarray(t, dtype=F32) / F32(scale)
    q = np.copysign(np.floor(np.abs(scaled) + F32(0.5)), scaled)
    return q.astype(np.int32)


def grid_indices(t: np.ndarray, scale: float, bits: int) -> np.ndarray:
    """Integer grid coordinates of each element, clamped to the bit range."""
    qmax = (1 << (bits - 1)) - 1
    return np.clip(lattice_indices(t, scale), -qmax, qmax).astype(np.int32)


@dataclass(frozen=True)
class QatConfig:
    """Fake-quantization of the weights in forward passes, and the grid rule.

    body_scales pins the body tensors, in layout order, to a base
    network's grids (shared-grid finetuning); every other tensor, the head
    always, gets its own live scale, derived from its current values.
    """

    bits: int
    body_scales: tuple[float, ...] | None = None

    def scale(self, i: int, t: np.ndarray) -> float:
        """The pinned body scale of layout entry i if it has one, else t's live scale."""
        if self.body_scales is not None and i < len(self.body_scales):
            return self.body_scales[i]
        return quantize_scale(t, self.bits)


def effective_weights(net: Network, qat: QatConfig | None) -> list[np.ndarray]:
    """Weights as seen by forward passes: masters, or their grid projections."""
    if qat is None:
        return [layer.weight for layer in net.layers]
    return [
        quantize_with_scale(t, qat.scale(i, t), qat.bits)
        for i, (_, t, is_weight) in enumerate(tensor_items(net))
        if is_weight
    ]


def snap_to_grid(net: Network, bits: int, body_scales: tuple[float, ...] | None = None) -> Network:
    """Project every tensor onto its integer grid and record the scales.

    The whole network is stored quantized, not just the weights: biases and
    batch-norm tensors land on their own per-tensor lattices so that delta
    extraction yields exact integer differences everywhere. Weights clamp
    to the fake-quantization grid they trained against; the other tensors
    round without clamping, because running statistics legitimately drift
    far outside the base network's range and clamping them would wreck
    inference. Running variances are floored at one lattice step to stay
    positive. Scales follow `QatConfig(bits, body_scales).scale`:
    body_scales pins the body lattices to a base network's (shared grids
    for delta extraction); the head always uses its own live scales
    because its shape differs from any base network.
    """
    if body_scales is not None and len(body_scales) != len(body_items(net)):
        raise ContractError(f"{len(body_scales)} body scales for {len(body_items(net))} body tensors")
    qat = QatConfig(bits, body_scales)
    scales: list[float] = []
    new_tensors: dict[str, np.ndarray] = {}
    for i, (name, t, is_weight) in enumerate(tensor_items(net)):
        s = qat.scale(i, t)
        scales.append(s)
        q = grid_indices(t, s, bits) if is_weight else lattice_indices(t, s)
        if name.endswith(".bn_var"):
            q = np.maximum(q, 1)  # running variance must stay positive
        new_tensors[name] = (q.astype(F32) * F32(s)).astype(F32)
    return from_tensors(net.config(), new_tensors, QuantInfo(bits, tuple(scales)))


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
    logits: np.ndarray
    eff_weights: list[np.ndarray]
    training: bool
    batch_size: int


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
        raise DimensionError(
            f"batch shape {batch.shape} does not match input dim {net.input_dim}"
        )
    m = batch.shape[0]
    weights = effective_weights(net, qat)
    caches: list[LayerCache] = []
    a = batch
    for i, layer in enumerate(net.layers):
        z = matmul(a, weights[i].T) + layer.bias
        is_head = i == len(net.layers) - 1
        xhat = sigma = bn_update = None
        if layer.bn is not None:
            if training:
                if m < 2:
                    raise ContractError("batch-norm training needs batch size >= 2")
                mu = ordered_axis0_sum(z) / F32(m)
                centered = z - mu
                var = ordered_axis0_sum(centered * centered) / F32(m)
                sigma = np.sqrt(var + F32(BN_EPSILON))
                xhat = centered / sigma
                new_mean = F32(BN_MOMENTUM) * layer.bn.running_mean + F32(1 - BN_MOMENTUM) * mu
                new_var = F32(BN_MOMENTUM) * layer.bn.running_var + F32(1 - BN_MOMENTUM) * var
                bn_update = (new_mean, new_var)
            else:
                sigma = np.sqrt(layer.bn.running_var + F32(BN_EPSILON))
                xhat = (z - layer.bn.running_mean) / sigma
            z = layer.bn.gamma * xhat + layer.bn.beta
        caches.append(LayerCache(a, z, xhat if training else None, sigma, bn_update))
        a = z if is_head else relu(z)
    logits = tensor.check_finite(a, "forward logits")
    return logits, ForwardCache(caches, logits, weights, training, m)


def backward(net: Network, cache: ForwardCache, labels) -> Network:
    """Gradient of mean cross-entropy w.r.t. every parameter, as a Network.

    The gradient network has the layers of net, each tensor holding the
    gradient of the matching parameter. A batch-norm layer's running-stat
    slots hold zeros, their true gradient: a training-mode forward never
    reads them.

    With fake-quantized forward weights the gradients pass straight through
    to the full-precision masters: input gradients use the effective
    weights, parameter gradients land on the master tensors unchanged.

    On batch-norm layers the dense bias is a degenerate direction (batch
    centering cancels it exactly; beta provides the shift), so its gradient
    is pinned to exact zeros and the bias stays at its zero initialization.
    """
    if not cache.training:
        raise ContractError("backward needs a cache from a training-mode forward")
    labels = np.asarray(labels, dtype=np.int64)
    m = cache.batch_size
    if labels.shape != (m,):
        raise ContractError(f"{labels.shape[0] if labels.ndim else 0} labels for batch of {m}")
    n = net.head_dim
    if np.any(labels < 0) or np.any(labels >= n):
        raise ContractError(f"labels outside 0..{n - 1}")

    probs = softmax_rows(cache.logits)
    onehot = np.zeros_like(probs)
    onehot[np.arange(m), labels] = F32(1.0)
    d_out = (probs - onehot) / F32(m)

    grads: list[LayerParams] = []
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        lc = cache.layer_caches[i]
        if i < len(net.layers) - 1:
            d_out = d_out * (lc.pre_act > 0)  # relu mask
        d_bn = None
        if layer.bn is not None:
            zeros = np.zeros_like(layer.bias)  # the pinned bias and the running-stat slots
            d_bn = BatchNormParams(
                ordered_axis0_sum(d_out * lc.xhat), ordered_axis0_sum(d_out), zeros, zeros
            )
            d_xhat = d_out * layer.bn.gamma
            mean_dxhat = ordered_axis0_sum(d_xhat) / F32(m)
            mean_dxhat_xhat = ordered_axis0_sum(d_xhat * lc.xhat) / F32(m)
            d_out = (d_xhat - mean_dxhat - lc.xhat * mean_dxhat_xhat) / lc.sigma
            d_bias = zeros
        else:
            d_bias = ordered_axis0_sum(d_out)
        d_weight = matmul(d_out.T, lc.x)
        grads.append(LayerParams(d_weight, d_bias, d_bn))
        if i > 0:
            d_out = matmul(d_out, cache.eff_weights[i])
    return Network(tuple(reversed(grads)))


def sgd_step(net: Network, grads: Network, lr: float) -> Network:
    """theta <- theta - lr * g for every parameter; running stats untouched."""
    if len(grads.layers) != len(net.layers):
        raise ContractError(f"{len(grads.layers)} gradient layers for {len(net.layers)} layers")
    lr32 = F32(lr)

    def step(t: np.ndarray, g: np.ndarray) -> np.ndarray:
        if t.shape != g.shape:
            raise ContractError(f"gradient shape {g.shape} does not match parameter {t.shape}")
        return (t - lr32 * g).astype(F32)

    layers = []
    for layer, g in zip(net.layers, grads.layers):
        bn = layer.bn
        if bn is not None:
            if g.bn is None:
                raise ContractError("missing batch-norm gradients for a batch-norm layer")
            bn = BatchNormParams(
                step(bn.gamma, g.bn.gamma), step(bn.beta, g.bn.beta), bn.running_mean, bn.running_var
            )
        layers.append(LayerParams(step(layer.weight, g.weight), step(layer.bias, g.bias), bn))
    return Network(tuple(layers), None)


def apply_bn_updates(net: Network, cache: ForwardCache) -> Network:
    """Commit the running-stat momentum updates captured by a training forward."""
    layers = []
    for layer, lc in zip(net.layers, cache.layer_caches):
        if layer.bn is not None and lc.bn_update is not None:
            new_mean, new_var = lc.bn_update
            bn = BatchNormParams(layer.bn.gamma, layer.bn.beta, new_mean, new_var)
            layers.append(replace(layer, bn=bn))
        else:
            layers.append(layer)
    return Network(tuple(layers), net.quant)


# --- gradient checking -------------------------------------------------------


def _forward_loss_f64(net: Network, batch: np.ndarray, labels: np.ndarray) -> float:
    """Independent float64 reference loss (training-mode batch norm).

    Deliberately written with plain numpy reductions rather than the
    fixed-order kernels: this is the oracle side of the gradient check.
    """
    a = np.asarray(batch, dtype=np.float64)
    m = a.shape[0]
    for i, layer in enumerate(net.layers):
        z = a @ layer.weight.T.astype(np.float64) + layer.bias.astype(np.float64)
        if layer.bn is not None:
            mu = z.mean(axis=0)
            var = ((z - mu) ** 2).mean(axis=0)
            xhat = (z - mu) / np.sqrt(var + BN_EPSILON)
            z = layer.bn.gamma.astype(np.float64) * xhat + layer.bn.beta.astype(np.float64)
        a = z if i == len(net.layers) - 1 else np.maximum(z, 0.0)
    shifted = a - a.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    picked = probs[np.arange(m), labels]
    return float(-np.log(picked + tensor.CE_EPSILON).mean())


def _param_views(net: Network) -> list[np.ndarray]:
    """Trainable tensors, in gradient order: all but the running statistics."""
    return [t for n, t, _ in tensor_items(net) if not n.endswith((".bn_mean", ".bn_var"))]


def _cast_network(net: Network, dtype) -> Network:
    return from_tensors(net.config(), {n: t.astype(dtype) for n, t, _ in tensor_items(net)})


def gradient_check(net: Network, batch: np.ndarray, labels, eps: float = 1e-4) -> float:
    """Max relative error between analytic gradients and central differences.

    Runs the production forward/backward code path on a float64 twin of the
    network and differences an independently written float64 loss: at
    float32, rounding noise alone (~1e-7 absolute) would swamp the
    comparison for any small gradient component. Full-precision networks
    only; fake-quantized forwards are piecewise-constant and have no
    meaningful pointwise derivative.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    if parameter_count(net) > 10_000:
        raise ContractError("gradient_check is limited to networks with <= 10000 parameters")
    labels = np.asarray(labels, dtype=np.int64)
    batch64 = np.asarray(batch, dtype=np.float64)

    work = _cast_network(net, np.float64)
    _, cache = forward(work, batch64, training=True)
    grads = backward(work, cache, labels)

    worst = 0.0
    for p, g in zip(_param_views(work), _param_views(grads)):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(flat_p.size):
            original = float(flat_p[idx])
            flat_p[idx] = original + eps
            loss_plus = _forward_loss_f64(work, batch64, labels)
            flat_p[idx] = original - eps
            loss_minus = _forward_loss_f64(work, batch64, labels)
            flat_p[idx] = original
            cd = (loss_plus - loss_minus) / (2.0 * eps)
            a = float(flat_g[idx])
            rel = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
            worst = max(worst, rel)
    return worst


# --- file format --------------------------------------------------------------


def write_config(w: Writer, config: NetworkConfig) -> None:
    """The config header HSNW and HSDL share: dim count, dims, batch-norm flags."""
    w.u32(len(config.layer_dims))
    for d in config.layer_dims:
        w.u32(d)
    for flag in config.batchnorm:
        w.u8(1 if flag else 0)


def read_config(r: Reader) -> NetworkConfig:
    """Inverse of write_config; a header NetworkConfig rejects is a FormatError."""
    n_dims = r.u32()
    dims = tuple(r.u32() for _ in range(n_dims))
    flags = tuple(bool(r.u8()) for _ in range(n_dims - 2))
    try:
        return NetworkConfig(dims, flags)
    except ParameterError as exc:
        raise FormatError(f"bad network header: {exc}", offset=r.pos) from exc


def write_tensors(w: Writer, tensors: list[np.ndarray] | tuple[np.ndarray, ...], body_dtype: str = "<f4") -> None:
    """One raw payload per tensor, in tensor_shapes order: body tensors as
    body_dtype, the HEAD_TENSORS (last) as float32."""
    n_body = len(tensors) - len(HEAD_TENSORS)
    for i, t in enumerate(tensors):
        w.raw(np.ascontiguousarray(t, dtype=body_dtype if i < n_body else "<f4").tobytes())


def read_tensors(r: Reader, config: NetworkConfig, body_dtype: str = "<f4") -> dict[str, np.ndarray]:
    """Inverse of write_tensors for a network of this config, keyed by name."""
    tensors = {}
    for name, shape in tensor_shapes(config):
        dtype = np.dtype("<f4" if name in HEAD_TENSORS else body_dtype)
        raw = r.raw(dtype.itemsize * math.prod(shape))
        tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype.type)
    return tensors


def serialize_network(net: Network) -> bytes:
    w = Writer()
    w.raw(NETWORK_MAGIC)
    w.u16(NETWORK_VERSION)
    write_config(w, net.config())
    if net.quant is None:
        w.u8(0)
    else:
        w.u8(1)
        w.u8(net.quant.bits)
        for s in net.quant.scales:
            w.f32(s)
    write_tensors(w, [t for _, t, _ in tensor_items(net)])
    return w.finish()


def deserialize_network(data: bytes) -> Network:
    body = check_trailing_crc(data)
    r = Reader(body)
    r.expect_magic(NETWORK_MAGIC)
    r.expect_version(NETWORK_VERSION)
    config = read_config(r)
    quant = None
    if r.u8():
        quant = QuantInfo(r.u8(), tuple(r.f32() for _ in tensor_shapes(config)))
        quant.check()
    tensors = read_tensors(r, config)
    r.expect_end()
    return from_tensors(config, tensors, quant)


def save_network(net: Network, path) -> None:
    with open(path, "wb") as f:
        f.write(serialize_network(net))


def load_network(path) -> Network:
    with open(path, "rb") as f:
        return deserialize_network(f.read())
