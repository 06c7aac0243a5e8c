"""Manifest parsing, validation, and the global subclass index algebra."""

import json

import numpy as np
import pytest

from supersub.errors import ValidationError
from supersub.hierarchy import make_manifest, parse_manifest

# Ten named superclasses with the subclass counts of a realistic taxonomy:
# 253 subclasses total, heavily imbalanced.
TAXONOMY_COUNTS = {
    "Bird": 52,
    "Boat": 6,
    "Car": 10,
    "Cat": 8,
    "Dog": 116,
    "Fruit": 7,
    "Fungus": 7,
    "Insect": 27,
    "Monkey": 13,
    "Truck": 7,
}


def taxonomy_manifest_doc() -> str:
    supers = [
        {"name": name, "subclasses": [f"{name}/sub_{k:03d}" for k in range(count)]}
        for name, count in TAXONOMY_COUNTS.items()
    ]
    return json.dumps({"superclasses": supers})


class TestParseManifest:
    def test_bird_has_52_subclasses(self):
        manifest = parse_manifest(taxonomy_manifest_doc())
        bird = manifest.super_names().index("Bird")
        assert manifest.subclass_count(bird) == 52

    def test_ten_superclasses_sum_to_253(self):
        manifest = parse_manifest(taxonomy_manifest_doc())
        assert manifest.n_super == 10
        assert manifest.n_sub == 253
        assert sum(manifest.subclass_count(i) for i in range(10)) == 253

    def test_global_indices_follow_concatenation_order(self):
        manifest = make_manifest([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
        assert [manifest.super_of(i) for i in range(4)] == [0, 0, 1, 1]
        assert manifest.sub_offset(0) == 0
        assert manifest.sub_offset(1) == 2

    def test_duplicate_superclass_named_in_error(self):
        doc = json.dumps(
            {
                "superclasses": [
                    {"name": "A", "subclasses": ["a1", "a2"]},
                    {"name": "A", "subclasses": ["b1", "b2"]},
                ]
            }
        )
        with pytest.raises(ValidationError, match="'A'"):
            parse_manifest(doc)

    def test_duplicate_subclass_named_in_error(self):
        doc = json.dumps(
            {
                "superclasses": [
                    {"name": "A", "subclasses": ["x", "a2"]},
                    {"name": "B", "subclasses": ["x", "b2"]},
                ]
            }
        )
        with pytest.raises(ValidationError, match="'x'"):
            parse_manifest(doc)

    def test_too_few_subclasses_rejected(self):
        with pytest.raises(ValidationError):
            make_manifest([("A", ["a1"]), ("B", ["b1", "b2"])])

    def test_too_few_superclasses_rejected(self):
        with pytest.raises(ValidationError):
            make_manifest([("A", ["a1", "a2"])])

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            parse_manifest("{not json")

    def test_round_trip_through_json(self):
        manifest = parse_manifest(taxonomy_manifest_doc())
        again = parse_manifest(manifest.to_json())
        assert again == manifest


class TestSuperOf:
    def test_first_element(self):
        manifest = make_manifest([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
        assert manifest.super_of(0) == 0

    def test_concatenation_boundary(self):
        manifest = make_manifest([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
        assert manifest.super_of(2) == 1

    def test_partition_property(self):
        manifest = parse_manifest(taxonomy_manifest_doc())
        for s in range(manifest.n_super):
            start = manifest.sub_offset(s)
            for k in range(manifest.subclass_count(s)):
                assert manifest.super_of(start + k) == s

    def test_out_of_range_rejected(self):
        manifest = make_manifest([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
        with pytest.raises(IndexError):
            manifest.super_of(4)
        with pytest.raises(IndexError):
            manifest.super_of(-1)

    def test_array_matches_scalar(self):
        manifest = parse_manifest(taxonomy_manifest_doc())
        subs = np.arange(manifest.n_sub, dtype=np.int64)[::-1]
        supers = manifest.super_of(subs)
        assert supers.dtype == np.int64
        assert supers.tolist() == [manifest.super_of(int(s)) for s in subs]
        assert isinstance(manifest.super_of(5), int)
        assert manifest.super_of(np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_array_out_of_range_rejected(self):
        manifest = make_manifest([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
        with pytest.raises(IndexError, match="index 4 "):
            manifest.super_of(np.asarray([0, 3, 4, -1]))
