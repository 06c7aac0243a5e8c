"""Mini-batch SGD training over the three label views, plus finetuning.

A label view projects the dataset's global subclass labels onto the space a
particular network predicts: the superclass view for the router, the
all-subclasses view for the monolithic baseline, and the per-superclass
local view for specialists.

Training is deterministic per seed: shuffling comes from the splitmix64
generator and all arithmetic runs through the fixed-order float32 kernels,
so two runs with the same inputs produce bit-identical networks.

Every network trains through one loop, `_sgd`; its body is the training
step: forward, one softmax for the loss and `backward`, one `sgd_step`.
Given a `QatConfig` the loop fake-quantizes the forward weights by that config's grid rule and returns
the network snapped onto the same grids. `train` gives every tensor its
live grid; `finetune_from_super` pins the body to the router's grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network as net_mod
from .data import Dataset
from .errors import ContractError, ParameterError
from .network import Network, QatConfig, backward, forward, sgd_step, snap_to_grid
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
        if not 0 < self.lr < math.inf:
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
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
    qat = None if config.qat_bits is None else QatConfig(config.qat_bits)
    return _sgd(net, ds, view, config, qat)


def _sgd(
    net: Network, ds: Dataset, view: LabelView, config: TrainConfig, qat: QatConfig | None
) -> tuple[Network, list[float]]:
    """The SGD loop shared by train and finetune. Without qat it returns the
    master weights; with qat it fake-quantizes the forward weights by qat's
    grid rule and returns the network snapped onto the same grids."""
    features, labels, n_classes = resolve_view(ds, view)
    if net.head_dim != n_classes:
        raise ContractError(
            f"head width {net.head_dim} does not match {n_classes} classes of view {view.kind}"
        )
    n = features.shape[0]
    if n == 0 and config.epochs:
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
            probs = softmax_rows(logits)
            batch_losses.append(cross_entropy(probs, yb))
            current = sgd_step(current, backward(current, cache, probs, yb), config.lr, cache)
        if not batch_losses:
            raise ContractError(f"batch_size {config.batch_size} yields no usable batches for {n} rows")
        history.append(sum(batch_losses) / len(batch_losses))
    if qat is None:
        return current, history
    return snap_to_grid(current, qat.bits, qat.body_scales), history


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

    qat = None
    if config.qat_bits is not None:
        if super_net.quant is None or super_net.quant.bits != config.qat_bits:
            raise ContractError("base network carries no matching quantization info")
        qat = QatConfig(config.qat_bits, super_net.quant.body_scales())
    return _sgd(specialized, ds, LabelView.subclass_of(super_index), config, qat)[0]
