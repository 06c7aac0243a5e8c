"""Two-stage inference and the evaluation harness.

There is one inference rule: the router picks a superclass, then that
superclass's specialist picks the subclass. Both engines expose the same
three members (`super_net`, `manifest`, `specialist_for`) and differ only
in where a specialist comes from. `ModelRegistry` keeps every specialist
resident; `EfficientSession` keeps the router resident and rebuilds the
current specialist from its packed delta, charging every load and rebuild
to a cost ledger. With exact (qat-int) deltas both engines emit identical
predictions; the ledger is where they differ.

Evaluation is single-threaded here; results are defined as an ordered
reduction over the test rows, so a sharded implementation merging partial
reports in index order would reproduce them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import network as net_mod
from .data import Dataset
from .delta import base_fingerprint_of, reconstruct, unpack
from .errors import ContractError, ParameterError
from .hierarchy import HierarchyManifest
from .network import Network, forward

MODE_LOWERBOUND = "lowerbound"
MODE_UPPERBOUND = "upperbound_oracle"
MODE_TWO_STAGE_VANILLA = "two_stage_vanilla"
MODE_TWO_STAGE_EFFICIENT = "two_stage_efficient"
MODE_UPPERBOUND_SCRATCH = "upperbound_scratch"


@dataclass
class CostLedger:
    """Monotone counters for one serving session."""

    bytes_loaded: int = 0
    peak_resident_bytes: int = 0
    reconstruction_adds: int = 0
    specialist_switches: int = 0


def _check_router(router: Network, manifest: HierarchyManifest) -> None:
    if router.head_dim != manifest.n_super:
        raise ContractError(f"router head {router.head_dim} != {manifest.n_super} superclasses")


def _validate_specialists(
    manifest: HierarchyManifest, specialists: dict[int, Network], input_dim: int
) -> None:
    missing = [i for i in range(manifest.n_super) if i not in specialists]
    if missing:
        raise ContractError(f"missing specialists for superclasses {missing}")
    for i, net in specialists.items():
        if net.head_dim != manifest.subclass_count(i):
            raise ContractError(
                f"specialist {i} head width {net.head_dim} != "
                f"{manifest.subclass_count(i)} subclasses"
            )
        if net.input_dim != input_dim:
            raise ContractError(f"specialist {i} input dim {net.input_dim} != {input_dim}")


@dataclass(frozen=True)
class ModelRegistry:
    """Vanilla serving state: router plus all specialists resident."""

    super_net: Network
    specialists: dict[int, Network]
    manifest: HierarchyManifest

    def __post_init__(self):
        _check_router(self.super_net, self.manifest)
        _validate_specialists(self.manifest, self.specialists, self.super_net.input_dim)

    def specialist_for(self, super_index: int) -> Network:
        return self.specialists[self.manifest.check_super(super_index)]


class EfficientSession:
    """One-resident-network serving over packed deltas.

    Holds the router (`super_net`, the base every delta was computed
    against) plus at most one reconstructed specialist: a single-slot
    cache. A query for the cached superclass costs nothing; any other
    loads that superclass's packed delta and rebuilds the specialist. Only
    once the rebuilt specialist has passed its checks does the miss charge
    the pack's byte size, one switch and one add per body element, so a
    rejected pack charges nothing. The router's fingerprint, which every
    rebuild checks the pack against, is taken once, at construction.

    Single-owner state: give each thread its own session (the base network
    may be shared read-only).
    """

    def __init__(self, base: Network, packed_deltas: dict[int, bytes], manifest: HierarchyManifest):
        _check_router(base, manifest)
        missing = [i for i in range(manifest.n_super) if i not in packed_deltas]
        if missing:
            raise ContractError(f"missing packed deltas for superclasses {missing}")
        self.super_net = base
        self.packed_deltas = packed_deltas
        self.manifest = manifest
        self.ledger = CostLedger()
        self._base_bytes = net_mod.network_bytes(base)
        self._body_elements = sum(t.size for _, t, _ in net_mod.body_items(base))
        self._base_fingerprint = base_fingerprint_of(base)
        self._cached_super: int | None = None
        self._cached_net: Network | None = None
        self.ledger.peak_resident_bytes = self._base_bytes

    def specialist_for(self, super_index: int) -> Network:
        """Fetch (rebuilding on a cache miss) the specialist for a superclass."""
        if self._cached_super == super_index:
            return self._cached_net
        k = self.manifest.subclass_count(super_index)
        blob = self.packed_deltas[super_index]
        specialist = reconstruct(self.super_net, unpack(blob), self._base_fingerprint, super_index, k)
        self.ledger.bytes_loaded += len(blob)
        self.ledger.specialist_switches += 1
        self.ledger.reconstruction_adds += self._body_elements
        resident = self._base_bytes + net_mod.network_bytes(specialist) + len(blob)
        self.ledger.peak_resident_bytes = max(self.ledger.peak_resident_bytes, resident)
        self._cached_super = super_index
        self._cached_net = specialist
        return specialist


def _argmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row argmax; ties break to the lowest class index."""
    return np.argmax(logits, axis=1).astype(np.int64)


def route_batch(router: Network, features: np.ndarray) -> np.ndarray:
    logits, _ = forward(router, features, training=False)
    return _argmax_rows(logits)


def _local_predictions(specialist: Network, features: np.ndarray) -> np.ndarray:
    logits, _ = forward(specialist, features, training=False)
    return _argmax_rows(logits)


def _infer(engine: ModelRegistry | EfficientSession, x: np.ndarray) -> tuple[int, int]:
    """Single-row two-stage inference: route, then ask the engine's specialist."""
    x = np.asarray(x, dtype=np.float32)
    router = engine.super_net
    if x.ndim != 1 or x.shape[0] != router.input_dim:
        raise ContractError(f"feature row has shape {x.shape}, expected ({router.input_dim},)")
    s = int(route_batch(router, x[None, :])[0])
    local = int(_local_predictions(engine.specialist_for(s), x[None, :])[0])
    return s, engine.manifest.sub_offset(s) + local


def infer_vanilla(registry: ModelRegistry, x: np.ndarray) -> tuple[int, int]:
    """Single-row two-stage inference with all specialists resident."""
    return _infer(registry, x)


def infer_efficient(session: EfficientSession, x: np.ndarray) -> tuple[int, int]:
    """Single-row two-stage inference through the one-resident-model session;
    what it charged shows in session.ledger."""
    return _infer(session, x)


# --- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    mode: str
    super_names: tuple[str, ...]
    per_super_accuracy: tuple[float, ...]  # percent, subclass-level, by superclass
    per_super_counts: tuple[int, ...]
    macro_accuracy: float  # percent; mean of per-superclass accuracies
    micro_accuracy: float  # percent; plain fraction over all rows
    confusion: tuple[tuple[int, ...], ...]  # [true][pred] superclass counts
    n_test: int

    @property
    def stage1_accuracy(self) -> float:
        """Percent of rows whose (derived) superclass decision was correct."""
        return 100.0 * sum(row[i] for i, row in enumerate(self.confusion)) / self.n_test


@dataclass(frozen=True)
class EvalResult:
    report: EvalReport
    pred_supers: np.ndarray
    pred_subs: np.ndarray
    ledger: CostLedger | None = None


def confusion_matrix(pred_supers, true_supers, n_super: int) -> np.ndarray:
    pred = np.asarray(pred_supers, dtype=np.int64)
    true = np.asarray(true_supers, dtype=np.int64)
    if pred.shape != true.shape:
        raise ContractError(f"{pred.shape} predictions vs {true.shape} labels")
    for labels, what in ((pred, "prediction"), (true, "label")):
        if labels.size and (labels.min() < 0 or labels.max() >= n_super):
            bad = int(labels[(labels < 0) | (labels >= n_super)][0])
            raise IndexError(f"{what} {bad} out of range for {n_super} superclasses")
    matrix = np.zeros((n_super, n_super), dtype=np.int64)
    np.add.at(matrix, (true, pred), 1)
    return matrix


def build_report(
    mode: str,
    manifest: HierarchyManifest,
    true_subs: np.ndarray,
    pred_supers: np.ndarray,
    pred_subs: np.ndarray,
) -> EvalReport:
    if not len(true_subs):
        raise ContractError("cannot evaluate an empty test set")
    true_supers = manifest.super_of(true_subs)
    matrix = confusion_matrix(pred_supers, true_supers, manifest.n_super)
    correct = pred_subs == true_subs
    per_acc = []
    per_count = []
    for i in range(manifest.n_super):
        mask = true_supers == i
        count = int(mask.sum())
        per_count.append(count)
        per_acc.append(100.0 * float(correct[mask].sum()) / count if count else 0.0)
    macro = sum(per_acc) / len(per_acc)
    micro = 100.0 * float(correct.sum()) / len(true_subs)
    return EvalReport(
        mode=mode,
        super_names=tuple(manifest.super_names()),
        per_super_accuracy=tuple(per_acc),
        per_super_counts=tuple(per_count),
        macro_accuracy=macro,
        micro_accuracy=micro,
        confusion=tuple(tuple(int(c) for c in row) for row in matrix),
        n_test=len(true_subs),
    )


def _evaluate_routed(mode: str, specialist_for, test: Dataset, routed: np.ndarray) -> EvalResult:
    """Stage 2 over the whole test set, given the superclass of every row.

    Rows run in batches of identically routed consecutive rows. Row outputs
    are batch-independent bit for bit, so grouping changes nothing about the
    predictions; it only batches the forward passes.
    """
    manifest = test.manifest
    pred_subs = np.empty(len(routed), dtype=np.int64)
    starts = np.flatnonzero(np.diff(routed, prepend=-1)).tolist()
    for start, end in zip(starts, starts[1:] + [len(routed)]):
        s = int(routed[start])
        local = _local_predictions(specialist_for(s), test.features[start:end])
        pred_subs[start:end] = manifest.sub_offset(s) + local
    report = build_report(mode, manifest, test.sub_labels, routed, pred_subs)
    return EvalResult(report, routed, pred_subs)


def evaluate_lowerbound(net: Network, test: Dataset) -> EvalResult:
    """Monolithic all-subclasses network; superclass decision is derived."""
    if net.head_dim != test.manifest.n_sub:
        raise ContractError(
            f"lowerbound head {net.head_dim} != {test.manifest.n_sub} subclasses"
        )
    pred_subs = _local_predictions(net, test.features)
    pred_supers = test.manifest.super_of(pred_subs)
    report = build_report(MODE_LOWERBOUND, test.manifest, test.sub_labels, pred_supers, pred_subs)
    return EvalResult(report, pred_supers, pred_subs)


def evaluate_upperbound(
    specialists: dict[int, Network], test: Dataset, mode: str = MODE_UPPERBOUND
) -> EvalResult:
    """Oracle routing: the true superclass selects the specialist. The two
    oracle modes differ only in the specialists: finetuned or from scratch."""
    if mode not in (MODE_UPPERBOUND, MODE_UPPERBOUND_SCRATCH):
        raise ParameterError(f"{mode!r} is not an oracle-routed mode")
    _validate_specialists(test.manifest, specialists, test.dim)
    return _evaluate_routed(mode, specialists.__getitem__, test, test.super_labels())


def evaluate_two_stage(registry: ModelRegistry, test: Dataset) -> EvalResult:
    """Vanilla two-stage inference over the whole test set, in row order."""
    routed = route_batch(registry.super_net, test.features)
    return _evaluate_routed(MODE_TWO_STAGE_VANILLA, registry.specialist_for, test, routed)


def evaluate_efficient(session: EfficientSession, test: Dataset) -> EvalResult:
    """Efficient two-stage inference; ledger reflects the test-order trace."""
    routed = route_batch(session.super_net, test.features)
    result = _evaluate_routed(MODE_TWO_STAGE_EFFICIENT, session.specialist_for, test, routed)
    return replace(result, ledger=replace(session.ledger))
