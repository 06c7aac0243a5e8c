"""Superclass/subclass label hierarchy: manifest parsing and index algebra.

Global subclass indices are positions in the concatenation of all subclass
lists in manifest order; that single canonical ordering ties together every
label space in the system (router labels, specialist-local labels,
monolithic all-subclass labels).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class HierarchyManifest:
    """Ordered superclass -> subclass name mapping. Immutable once built."""

    superclasses: tuple[tuple[str, tuple[str, ...]], ...]
    _offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate(self.superclasses)
        offsets = []
        total = 0
        for _, subs in self.superclasses:
            offsets.append(total)
            total += len(subs)
        object.__setattr__(self, "_offsets", tuple(offsets))

    @property
    def n_super(self) -> int:
        return len(self.superclasses)

    @property
    def n_sub(self) -> int:
        return self._offsets[-1] + len(self.superclasses[-1][1])

    def super_names(self) -> list[str]:
        return [name for name, _ in self.superclasses]

    def subclass_count(self, super_index: int) -> int:
        return len(self.superclasses[self.check_super(super_index)][1])

    def sub_offset(self, super_index: int) -> int:
        """Global index of the first subclass of a superclass."""
        return self._offsets[self.check_super(super_index)]

    def check_super(self, super_index: int) -> int:
        """The one superclass-index check: a negative index is no alias."""
        if not 0 <= super_index < self.n_super:
            raise IndexError(f"superclass index {super_index} out of range 0..{self.n_super - 1}")
        return super_index

    def super_of(self, sub_index: int | np.ndarray) -> int | np.ndarray:
        """Superclass index of a global subclass index, or of each in an int array."""
        idx = np.asarray(sub_index)
        out_of_range = (idx < 0) | (idx >= self.n_sub)
        if out_of_range.any():
            bad = idx[out_of_range].flat[0]
            raise IndexError(f"subclass index {bad} out of range 0..{self.n_sub - 1}")
        supers = np.searchsorted(self._offsets, idx, side="right") - 1
        return int(supers) if supers.ndim == 0 else supers.astype(np.int64)

    def to_json(self) -> str:
        doc = {
            "superclasses": [
                {"name": name, "subclasses": list(subs)} for name, subs in self.superclasses
            ]
        }
        return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)


def make_manifest(superclasses: list[tuple[str, list[str]]]) -> HierarchyManifest:
    return HierarchyManifest(tuple((name, tuple(subs)) for name, subs in superclasses))


def parse_manifest(text: str) -> HierarchyManifest:
    """Parse the JSON manifest document; validates all hierarchy invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "superclasses" not in doc:
        raise ValidationError('manifest must be an object with a "superclasses" list')
    entries = doc["superclasses"]
    if not isinstance(entries, list):
        raise ValidationError('"superclasses" must be a list')
    parsed = []
    for entry in entries:
        if not isinstance(entry, dict) or "name" not in entry or "subclasses" not in entry:
            raise ValidationError('each superclass needs "name" and "subclasses"')
        name = entry["name"]
        subs = entry["subclasses"]
        if not isinstance(name, str) or not isinstance(subs, list) or not all(
            isinstance(s, str) for s in subs
        ):
            raise ValidationError(f"malformed superclass entry: {entry!r}")
        parsed.append((name, tuple(subs)))
    return HierarchyManifest(tuple(parsed))


def _validate(superclasses) -> None:
    if len(superclasses) < 2:
        raise ValidationError(f"need at least 2 superclasses, got {len(superclasses)}")
    seen_super: set[str] = set()
    seen_sub: set[str] = set()
    for name, subs in superclasses:
        if name in seen_super:
            raise ValidationError(f"duplicate superclass name: {name!r}")
        seen_super.add(name)
        if len(subs) < 2:
            raise ValidationError(f"superclass {name!r} has {len(subs)} subclasses, need >= 2")
        for sub in subs:
            if sub in seen_sub:
                raise ValidationError(f"duplicate subclass name: {sub!r}")
            seen_sub.add(sub)
