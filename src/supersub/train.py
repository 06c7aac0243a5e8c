"""Mini-batch SGD training over the three label views, plus finetuning.

A label view projects the dataset's global subclass labels onto the space a
particular network predicts: the superclass view for the router, the
all-subclasses view for the monolithic baseline, and the per-superclass
local view for specialists.

Training is deterministic per seed: shuffling comes from the splitmix64
generator and all arithmetic runs through the fixed-order float32 kernels,
so two runs with the same inputs produce bit-identical networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network as net_mod
from .data import Dataset
from .errors import ContractError, ParameterError
from .network import Network, QatConfig, apply_bn_updates, backward, forward, sgd_step, snap_to_grid
from .tensor import Prng, child_seed, cross_entropy, softmax_rows

_HEAD_SEED_TAG = 0x48454144  # "HEAD"


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    batch_size: int
    seed: int
    qat_bits: int | None = None  # None trains in float; 2..8 trains on that grid

    def __post_init__(self):
        if self.lr <= 0:
            raise ParameterError(f"lr must be > 0, got {self.lr}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.qat_bits is not None and not 2 <= self.qat_bits <= 8:
            raise ParameterError(f"qat_bits must be in [2, 8], got {self.qat_bits}")


@dataclass(frozen=True)
class LabelView:
    """Which label space a training run predicts."""

    kind: str  # "superclass" | "all_subclasses" | "subclass_of"
    super_index: int | None = None

    @staticmethod
    def superclass() -> "LabelView":
        return LabelView("superclass")

    @staticmethod
    def all_subclasses() -> "LabelView":
        return LabelView("all_subclasses")

    @staticmethod
    def subclass_of(super_index: int) -> "LabelView":
        return LabelView("subclass_of", super_index)


def resolve_view(ds: Dataset, view: LabelView) -> tuple[np.ndarray, np.ndarray, int]:
    """(features, projected labels, class count) for a label view."""
    manifest = ds.manifest
    if view.kind == "superclass":
        return ds.features, ds.super_labels(), manifest.n_super
    if view.kind == "all_subclasses":
        return ds.features, ds.sub_labels.copy(), manifest.n_sub
    if view.kind == "subclass_of":
        i = view.super_index
        if i is None or not 0 <= i < manifest.n_super:
            raise IndexError(f"superclass index {i} out of range 0..{manifest.n_super - 1}")
        sub = ds.restrict_to_super(i)
        local = sub.sub_labels - manifest.sub_offset(i)
        return sub.features, local, manifest.subclass_count(i)
    raise ParameterError(f"unknown label view {view.kind!r}")


def train(net: Network, ds: Dataset, view: LabelView, config: TrainConfig) -> tuple[Network, list[float]]:
    """Epochs of shuffled mini-batch SGD; returns the network and loss history.

    With config.qat_bits the forward passes fake-quantize every weight on its
    live grid, and the returned network is snapped onto those grids.
    """
    bits = config.qat_bits
    qat = None if bits is None else QatConfig.live(net, bits)
    trained, history = _sgd(net, ds, view, config, qat)
    return (trained if bits is None else snap_to_grid(trained, bits)), history


def _sgd(
    net: Network, ds: Dataset, view: LabelView, config: TrainConfig, qat: QatConfig | None
) -> tuple[Network, list[float]]:
    """The SGD loop shared by train and finetune; returns the master weights."""
    features, labels, n_classes = resolve_view(ds, view)
    if net.head_dim != n_classes:
        raise ContractError(
            f"head width {net.head_dim} does not match {n_classes} classes of view {view.kind}"
        )
    if config.epochs == 0:
        return net, []
    n = features.shape[0]
    if n == 0:
        raise ContractError("cannot train on an empty dataset")

    rng = Prng(config.seed)
    current = net
    history: list[float] = []
    order = list(range(n))
    for _ in range(config.epochs):
        rng.shuffle(order)
        batch_losses: list[float] = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if len(idx) < 2:
                continue  # batch-norm statistics need at least two rows
            xb = features[idx]
            yb = labels[idx]
            logits, cache = forward(current, xb, training=True, qat=qat)
            batch_losses.append(cross_entropy(softmax_rows(logits), yb))
            grads = backward(current, cache, yb)
            current = sgd_step(current, grads, config.lr)
            current = apply_bn_updates(current, cache)
        if not batch_losses:
            raise ContractError(f"batch_size {config.batch_size} yields no usable batches for {n} rows")
        history.append(sum(batch_losses) / len(batch_losses))
    return current, history


def finetune_from_super(
    super_net: Network,
    super_index: int,
    ds: Dataset,
    config: TrainConfig,
) -> Network:
    """Specialize the router network to one superclass's subclasses.

    The body is copied bit-exactly; the head is reinitialized at the
    superclass's subclass count and everything then trains on that
    superclass's rows with local labels. With config.qat_bits the body is
    fake-quantized on the base network's grids (shared scales) and the fresh
    head on its own live grid, and the specialist comes back snapped onto
    those grids, so its weight delta against the base is an exact integer
    difference.
    """
    manifest = ds.manifest
    if not 0 <= super_index < manifest.n_super:
        raise IndexError(f"superclass index {super_index} out of range 0..{manifest.n_super - 1}")
    k = manifest.subclass_count(super_index)
    specialized = net_mod.replace_head(super_net, k, child_seed(config.seed, _HEAD_SEED_TAG))

    bits = config.qat_bits
    qat = None if bits is None else QatConfig.shared_body(super_net, bits)
    tuned, _ = _sgd(specialized, ds, LabelView.subclass_of(super_index), config, qat)
    if bits is None:
        return tuned
    return snap_to_grid(tuned, bits, body_scales=dict(super_net.quant.body_scales()))
