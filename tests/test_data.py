"""Synthetic generation determinism/geometry and the dataset container."""

import struct
import warnings

import numpy as np
import pytest

from conftest import body_mutations, header_mutations, mini_spec, with_fixed_crc
from supersub.data import (
    Dataset,
    SyntheticSpec,
    deserialize_dataset,
    generate_synthetic,
    load_dataset,
    save_dataset,
    serialize_dataset,
)
from supersub.errors import FormatError, ParameterError
from supersub.hierarchy import make_manifest
from supersub.tensor import F32


class TestSyntheticSpec:
    def test_separation_ordering_enforced(self):
        nan, inf = float("nan"), float("inf")
        for super_sep, sub_sep in ((1.0, 2.0), (inf, 1.5), (nan, 1.5), (6.0, nan), (inf, inf), (6.0, -inf)):
            with pytest.raises(ParameterError, match="super_sep"):
                mini_spec(super_sep=super_sep, sub_sep=sub_sep)

    def test_noise_must_be_positive(self):
        for sigma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="noise_sigma"):
                mini_spec(noise_sigma=sigma)

    def test_subs_per_super_length_checked(self):
        with pytest.raises(ParameterError):
            mini_spec(subs_per_super=(2, 2, 2))


class TestGenerateSynthetic:
    def test_row_counts_exact(self):
        spec = mini_spec(n_train_per_sub=5)
        train, test = generate_synthetic(spec)
        assert train.n_rows == 4 * 5
        assert test.n_rows == 4 * 8
        counts = np.bincount(train.sub_labels, minlength=4)
        assert list(counts) == [5, 5, 5, 5]

    def test_same_seed_byte_identical(self):
        a_train, a_test = generate_synthetic(mini_spec())
        b_train, b_test = generate_synthetic(mini_spec())
        assert a_train.features.tobytes() == b_train.features.tobytes()
        assert a_test.features.tobytes() == b_test.features.tobytes()
        assert np.array_equal(a_train.sub_labels, b_train.sub_labels)

    def test_different_seed_differs(self):
        a, _ = generate_synthetic(mini_spec())
        b, _ = generate_synthetic(mini_spec(seed=0xBEEF))
        assert a.features.tobytes() != b.features.tobytes()

    def test_nearest_centroid_oracle_separates_superclasses(self):
        # With super_sep/noise at 6:1 the superclass problem is near-trivial:
        # a nearest-superclass-centroid classifier fit on train must clear 99%.
        spec = mini_spec(n_super=4, subs_per_super=(3, 3, 3, 3), dim=16,
                         n_train_per_sub=30, n_test_per_sub=25)
        train, test = generate_synthetic(spec)
        train_supers = train.super_labels()
        centroids = np.stack([
            train.features[train_supers == s].mean(axis=0) for s in range(spec.n_super)
        ])
        test_supers = test.super_labels()
        dists = ((test.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        pred = dists.argmin(axis=1)
        accuracy = (pred == test_supers).mean()
        assert accuracy >= 0.99

    def test_partition_property_random_specs(self):
        for seed in range(5):
            spec = mini_spec(n_super=2 + seed % 3,
                             subs_per_super=tuple([2 + seed % 2] * (2 + seed % 3)),
                             seed=seed, n_train_per_sub=3, n_test_per_sub=2)
            train, _ = generate_synthetic(spec)
            manifest = train.manifest
            assert sum(manifest.subclass_count(i) for i in range(manifest.n_super)) == manifest.n_sub


class TestDatasetContainer:
    def test_round_trip_bit_exact(self, mini_train):
        data = serialize_dataset(mini_train)
        again = deserialize_dataset(data)
        assert again.features.tobytes() == mini_train.features.tobytes()
        assert np.array_equal(again.sub_labels, mini_train.sub_labels)
        assert again.manifest == mini_train.manifest
        assert serialize_dataset(again) == data

    def test_file_round_trip(self, tmp_path, mini_train):
        path = tmp_path / "ds.hsds"
        save_dataset(mini_train, path)
        again = load_dataset(path)
        assert serialize_dataset(again) == serialize_dataset(mini_train)

    def test_corrupted_checksum_detected(self, mini_train):
        data = bytearray(serialize_dataset(mini_train))
        data[-1] ^= 0xFF
        with pytest.raises(FormatError):
            deserialize_dataset(bytes(data))

    def test_corrupted_payload_detected(self, mini_train):
        data = bytearray(serialize_dataset(mini_train))
        data[len(data) // 2] ^= 0x10
        with pytest.raises(FormatError):
            deserialize_dataset(bytes(data))

    def test_truncation_detected(self, mini_train):
        data = serialize_dataset(mini_train)
        with pytest.raises(FormatError):
            deserialize_dataset(data[: len(data) // 2])

    def test_bad_magic_detected(self, mini_train):
        data = bytearray(serialize_dataset(mini_train))
        data[0:4] = b"XXXX"
        with pytest.raises(FormatError):
            deserialize_dataset(bytes(data))

    def test_non_utf8_manifest_is_format_error(self, mini_train):
        data = bytearray(serialize_dataset(mini_train))
        at = data.index(b"super_00")
        data[at] = 0xFF
        with pytest.raises(FormatError) as err:
            deserialize_dataset(with_fixed_crc(bytes(data)))
        assert err.value.offset == at

    def test_invalid_manifest_is_format_error(self, mini_train):
        data = serialize_dataset(mini_train)
        # Same length, still valid JSON, but two subclasses now share a name.
        renamed = data.replace(b'"super_00/sub_01"', b'"super_00/sub_00"')
        assert renamed != data
        with pytest.raises(FormatError) as err:
            deserialize_dataset(with_fixed_crc(renamed))
        assert "duplicate subclass name" in str(err.value)
        assert err.value.offset == data.index(b'{"superclasses"') - 4

    def test_out_of_range_label_is_format_error(self, mini_train):
        data = serialize_dataset(mini_train)
        at = len(data) - 8  # the last label, just before the CRC
        bad = data[:at] + (999).to_bytes(4, "little") + data[at + 4 :]
        with pytest.raises(FormatError) as err:
            deserialize_dataset(with_fixed_crc(bad))
        assert err.value.offset == at

    def test_header_mutations_are_rejected_or_read_back(self, mini_test):
        data = serialize_dataset(mini_test)
        # magic, version, dim, row count, manifest length, manifest
        manifest_end = 4 + 2 + 4 + 8 + 4 + len(mini_test.manifest.to_json())
        rejected = 0
        for _, mutated in header_mutations(data, manifest_end):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    ds = deserialize_dataset(mutated)
                except FormatError:
                    rejected += 1
                    continue
            assert ds.features.tobytes() == mini_test.features.tobytes()
            assert np.array_equal(ds.sub_labels, mini_test.sub_labels)
            assert serialize_dataset(deserialize_dataset(serialize_dataset(ds))) == serialize_dataset(ds)
        assert rejected

    def test_body_mutations_are_rejected_or_read_back(self, mini_test):
        data = serialize_dataset(mini_test)
        outcomes = {"rejected": 0, "read_back": 0}
        for mutated in body_mutations(data, 300, seed=0xB0D2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    ds = deserialize_dataset(mutated)
                except FormatError:
                    outcomes["rejected"] += 1
                    continue
            assert serialize_dataset(deserialize_dataset(serialize_dataset(ds))) == serialize_dataset(ds)
            outcomes["read_back"] += 1
        assert outcomes["rejected"] and outcomes["read_back"], outcomes

    @pytest.mark.parametrize("n_rows", [2**40, 2**63, 2**64 - 1])
    def test_row_count_past_the_file_is_format_error(self, mini_test, n_rows):
        # With dim 0 the features take no bytes, so only the labels bound n_rows.
        data = serialize_dataset(mini_test)
        with pytest.raises(FormatError, match="truncated"):
            deserialize_dataset(with_fixed_crc(data[:6] + struct.pack("<IQ", 0, n_rows) + data[18:]))

    def test_header_holds_no_subclass_count(self, mini_test):
        # magic, version, dim, row count, then the manifest's length prefix
        data = serialize_dataset(mini_test)
        manifest = mini_test.manifest.to_json().encode("utf-8")
        assert data[6:22] == struct.pack("<IQI", mini_test.dim, mini_test.n_rows, len(manifest))
        assert data[22 : 22 + len(manifest)] == manifest

    def test_version_1_file_is_format_error(self, mini_test):
        data = serialize_dataset(mini_test)
        with pytest.raises(FormatError, match="unsupported version 1"):
            deserialize_dataset(with_fixed_crc(data[:4] + (1).to_bytes(2, "little") + data[6:]))

    def test_empty_dataset_round_trips(self):
        manifest = make_manifest([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
        empty = Dataset(np.zeros((0, 5), dtype=F32), np.zeros(0, dtype=np.int64), manifest)
        again = deserialize_dataset(serialize_dataset(empty))
        assert again.n_rows == 0
        assert again.dim == 5
        assert again.manifest == manifest

    def test_round_trip_many_random_specs(self):
        for seed in range(25):
            spec = SyntheticSpec(
                n_super=2 + seed % 3,
                subs_per_super=tuple([2 + (seed + 1) % 3] * (2 + seed % 3)),
                dim=1 + seed % 6,
                super_sep=5.0 + seed,
                sub_sep=1.0,
                noise_sigma=0.5,
                n_train_per_sub=1 + seed % 4,
                n_test_per_sub=1,
                seed=seed * 977,
            )
            train, test = generate_synthetic(spec)
            for ds in (train, test):
                blob = serialize_dataset(ds)
                assert serialize_dataset(deserialize_dataset(blob)) == blob


class TestDatasetViews:
    def test_super_labels_derived(self, mini_train):
        manifest = mini_train.manifest
        expected = np.asarray([manifest.super_of(int(s)) for s in mini_train.sub_labels])
        assert np.array_equal(mini_train.super_labels(), expected)

    def test_rows_of_super(self, mini_train):
        features, labels = mini_train.rows_of_super(1)
        rows = np.flatnonzero(mini_train.super_labels() == 1)
        assert np.array_equal(features, mini_train.features[rows])
        assert np.array_equal(labels, mini_train.sub_labels[rows] - mini_train.manifest.sub_offset(1))
