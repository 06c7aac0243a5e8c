"""Mini-batch SGD training, plus finetuning.

`train` takes the rows and the labels its network's head predicts: the
superclass labels for the router, the global subclass labels for the
monolithic baseline, a superclass's local labels (`Dataset.rows_of_super`)
for a specialist. The head width is the one statement of the class count.

Training is deterministic per seed: shuffling comes from the splitmix64
generator and all arithmetic runs through the fixed-order float32 kernels,
so two runs with the same inputs produce bit-identical networks.

Every network trains through one loop, `_sgd`; its body is the training
step: forward, one softmax for the loss and `backward`, one `sgd_step`.
Given a `QatConfig` the loop fake-quantizes the forward weights by that
config's grid rule and returns the network snapped onto the same grids.
`train` gives every tensor its live grid; `finetune_from_super` pins the
body to the router's grids.
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
    qat: bool = False  # train on the QAT_BITS grids instead of in float

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")


def train(
    net: Network, features: np.ndarray, labels: np.ndarray, config: TrainConfig
) -> tuple[Network, list[float]]:
    """Epochs of shuffled mini-batch SGD on the rows `features` with class
    labels 0..net.head_dim-1; returns the network and loss history.

    With config.qat the forward passes fake-quantize every weight on its
    live grid, and the returned network is snapped onto those grids.
    """
    return _sgd(net, features, labels, config, QatConfig() if config.qat else None)


def _sgd(
    net: Network, features: np.ndarray, labels: np.ndarray, config: TrainConfig, qat: QatConfig | None
) -> tuple[Network, list[float]]:
    """The SGD loop shared by train and finetune. Without qat it returns the
    master weights; with qat it fake-quantizes the forward weights by qat's
    grid rule and returns the network snapped onto the same grids."""
    n = features.shape[0]
    if len(labels) != n:
        raise ContractError(f"{len(labels)} labels for {n} rows")
    if n and not 0 <= labels.min() <= labels.max() < net.head_dim:
        raise ContractError(f"labels outside 0..{net.head_dim - 1} of head width {net.head_dim}")
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
    return snap_to_grid(current, qat.body_scales), history


def finetune_from_super(
    super_net: Network,
    super_index: int,
    ds: Dataset,
    config: TrainConfig,
) -> Network:
    """Specialize the router network to one superclass's subclasses.

    The body is copied bit-exactly; the head is reinitialized at the
    superclass's subclass count and everything then trains on that
    superclass's rows with local labels. With config.qat the body is
    fake-quantized on the base network's grids (shared scales) and the fresh
    head on its own live grid, and the specialist comes back snapped onto
    those grids, so its weight delta against the base is an exact integer
    difference.
    """
    features, labels = ds.rows_of_super(super_index)
    k = ds.manifest.subclass_count(super_index)
    specialized = net_mod.replace_head(super_net, k, child_seed(config.seed, _HEAD_SEED_TAG))

    qat = None
    if config.qat:
        if super_net.quant is None:
            raise ContractError("base network carries no quantization grids")
        qat = QatConfig(super_net.quant.body_scales())
    return _sgd(specialized, features, labels, config, qat)[0]
