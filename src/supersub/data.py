"""Synthetic hierarchical dataset generation and the HSDS dataset container.

The generator draws a two-level Gaussian hierarchy: superclass centers,
subclass centers scattered around them, and samples scattered around the
subclass centers. With super_sep well above noise_sigma the superclass
problem is near-perfectly separable by construction while subclasses stay
confusable, which is exactly the regime the rest of the pipeline studies.

An HSDS file holds the feature dim, the row count, the manifest as JSON,
the features and the labels; the subclass count is the manifest's alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .container import Reader, Writer, check_trailing_crc
from .errors import ContractError, FormatError, ParameterError, ValidationError
from .hierarchy import HierarchyManifest, make_manifest, parse_manifest

DATASET_MAGIC = b"HSDS"
DATASET_VERSION = 2


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometry and sizing of a generated hierarchy; fully determined by seed."""

    subs_per_super: tuple[int, ...]  # subclass count of each superclass
    dim: int
    super_sep: float
    sub_sep: float
    noise_sigma: float
    n_train_per_sub: int
    n_test_per_sub: int
    seed: int

    @property
    def n_super(self) -> int:
        return len(self.subs_per_super)

    def __post_init__(self):
        if self.n_super < 2:
            raise ParameterError(f"need at least 2 superclasses, got {self.n_super}")
        if any(k < 2 for k in self.subs_per_super):
            raise ParameterError("every superclass needs at least 2 subclasses")
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if not math.inf > self.super_sep > self.sub_sep > 0:
            raise ParameterError(
                f"need finite super_sep > sub_sep > 0, got {self.super_sep} vs {self.sub_sep}"
            )
        if not 0 < self.noise_sigma < math.inf:
            raise ParameterError(f"noise_sigma must be finite and > 0, got {self.noise_sigma}")
        if self.n_train_per_sub < 0 or self.n_test_per_sub < 0:
            raise ParameterError("per-subclass sample counts must be >= 0")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus global subclass labels under a manifest."""

    features: np.ndarray  # (N, dim) float32
    sub_labels: np.ndarray  # (N,) int64, global subclass indices
    manifest: HierarchyManifest

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ContractError(f"features must be 2-D, got shape {self.features.shape}")
        if len(self.sub_labels) != self.features.shape[0]:
            raise ContractError(
                f"{len(self.sub_labels)} labels for {self.features.shape[0]} rows"
            )
        n_sub = self.manifest.n_sub
        if len(self.sub_labels) and (
            self.sub_labels.min() < 0 or self.sub_labels.max() >= n_sub
        ):
            raise ContractError(f"labels outside 0..{n_sub - 1}")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def super_labels(self) -> np.ndarray:
        """Superclass index of every row, derived through the manifest."""
        return self.manifest.super_of(self.sub_labels)

    def rows_of_super(self, super_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Features of one superclass's rows and their local labels 0..k-1,
        the labels of that superclass's specialist."""
        offset = self.manifest.sub_offset(super_index)
        mask = self.super_labels() == super_index
        return self.features[mask], self.sub_labels[mask] - offset


def _default_manifest(spec: SyntheticSpec) -> HierarchyManifest:
    supers = []
    for s in range(spec.n_super):
        name = f"super_{s:02d}"
        subs = [f"{name}/sub_{k:02d}" for k in range(spec.subs_per_super[s])]
        supers.append((name, subs))
    return make_manifest(supers)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Generate (train, test) datasets; byte-identical for identical specs.

    Draw order is pinned: superclass centers, then subclass center offsets,
    then train samples, then test samples, everything row-major. Each of
    the four is one draw of all its rows, in the order a draw per row would
    take them. Train and test are disjoint by construction because they
    come from separate draws.
    """
    manifest = _default_manifest(spec)
    rng = tensor.Prng(spec.seed)

    super_centers = tensor.gaussian_array(rng, (spec.n_super, spec.dim), 0.0, spec.super_sep)
    offsets = tensor.gaussian_array(rng, (manifest.n_sub, spec.dim), 0.0, spec.sub_sep)
    sub_centers = super_centers[np.repeat(np.arange(spec.n_super), spec.subs_per_super)] + offsets

    def draw_split(per_sub: int) -> Dataset:
        labels = np.repeat(np.arange(manifest.n_sub, dtype=np.int64), per_sub)
        features = tensor.gaussian_array(rng, (len(labels), spec.dim), 0.0, spec.noise_sigma)
        features += sub_centers[labels]  # each row's center + noise, in float32
        return Dataset(features, labels, manifest)

    train = draw_split(spec.n_train_per_sub)
    test = draw_split(spec.n_test_per_sub)
    return train, test


def serialize_dataset(ds: Dataset) -> bytes:
    w = Writer()
    w.raw(DATASET_MAGIC)
    w.u16(DATASET_VERSION)
    w.u32(ds.dim)
    w.u64(ds.n_rows)
    w.text(ds.manifest.to_json())
    w.raw(np.ascontiguousarray(ds.features, dtype="<f4").tobytes())
    w.raw(np.ascontiguousarray(ds.sub_labels, dtype="<u4").tobytes())
    return w.finish()


def deserialize_dataset(data: bytes) -> Dataset:
    body = check_trailing_crc(data)
    r = Reader(body)
    r.expect_magic(DATASET_MAGIC)
    r.expect_version(DATASET_VERSION)
    dim = r.u32()
    n_rows = r.u64()
    offset = r.pos
    try:
        manifest = parse_manifest(r.text())
    except ValidationError as exc:
        raise FormatError(f"invalid manifest: {exc}", offset=offset) from exc
    features = r.raw(n_rows * dim * 4)
    labels_at = r.pos
    labels = np.frombuffer(r.raw(n_rows * 4), dtype="<u4").astype(np.int64)
    r.expect_end()
    bad = np.flatnonzero(labels >= manifest.n_sub)
    if bad.size:
        at = int(bad[0])
        raise FormatError(f"label {labels[at]} outside 0..{manifest.n_sub - 1}", offset=labels_at + 4 * at)
    # Reshaped once the labels bound n_rows: dim 0 reads no feature bytes.
    features = np.frombuffer(features, dtype="<f4").reshape(n_rows, dim)
    return Dataset(features.astype(tensor.F32), labels, manifest)


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "wb") as f:
        f.write(serialize_dataset(ds))


def load_dataset(path) -> Dataset:
    with open(path, "rb") as f:
        return deserialize_dataset(f.read())
