"""Inference engines, cost ledger accounting, and the evaluation harness."""

import numpy as np
import pytest

from supersub import runtime
from supersub.data import Dataset
from supersub.delta import MODE_QAT_INT, base_fingerprint_of, compute_delta, pack
from supersub.errors import ContractError, FormatError, ParameterError
from supersub.hierarchy import make_manifest
from supersub.network import (
    NetworkConfig,
    init_network,
    network_bytes,
    snap_to_grid,
)
from supersub.runtime import (
    EfficientSession,
    ModelRegistry,
    confusion_matrix,
    evaluate_efficient,
    evaluate_lowerbound,
    evaluate_two_stage,
    evaluate_upperbound,
    infer_efficient,
    infer_vanilla,
    build_report,
)
from supersub.tensor import F32, Prng, gaussian_array
from supersub.train import TrainConfig, finetune_from_super, train
from test_network import manual_net


@pytest.fixture(scope="module")
def mini_models(mini_train):
    """Plain router + finetuned specialists + lowerbound on the mini data."""
    manifest = mini_train.manifest
    cfg = NetworkConfig((mini_train.dim, 16, 16, manifest.n_super))
    router0 = init_network(cfg, 101)
    router, _ = train(router0, mini_train.features, mini_train.super_labels(),
                      TrainConfig(lr=0.01, epochs=12, batch_size=16, seed=102))
    specialists = {
        i: finetune_from_super(router, i, mini_train,
                               TrainConfig(lr=0.01, epochs=12, batch_size=16, seed=103 + i))
        for i in range(manifest.n_super)
    }
    lower_cfg = NetworkConfig((mini_train.dim, 16, 16, manifest.n_sub))
    lower, _ = train(init_network(lower_cfg, 104), mini_train.features, mini_train.sub_labels,
                     TrainConfig(lr=0.01, epochs=12, batch_size=16, seed=105))
    return router, specialists, lower


@pytest.fixture(scope="module")
def mini_registry(mini_models, mini_train):
    router, specialists, _ = mini_models
    return ModelRegistry(router, specialists, mini_train.manifest)


@pytest.fixture(scope="module")
def qat_session_parts(mini_train):
    """Snapped router + packed qat-int deltas for an exact efficient runtime."""
    manifest = mini_train.manifest
    cfg = NetworkConfig((mini_train.dim, 16, 16, manifest.n_super))
    tcfg = TrainConfig(lr=0.01, epochs=12, batch_size=16, seed=201, qat=True)
    base, _ = train(init_network(cfg, 200), mini_train.features, mini_train.super_labels(), tcfg)
    specialists = {}
    packed = {}
    for i in range(manifest.n_super):
        ft_cfg = TrainConfig(lr=0.01, epochs=12, batch_size=16, seed=202 + i, qat=True)
        specialists[i] = finetune_from_super(base, i, mini_train, ft_cfg)
        packed[i] = pack(compute_delta(base, specialists[i], MODE_QAT_INT, superclass_id=i))
    return base, specialists, packed


class TestModelRegistry:
    def test_missing_specialist_rejected_at_construction(self, mini_models, mini_train):
        router, specialists, _ = mini_models
        partial = dict(specialists)
        del partial[1]
        with pytest.raises(ContractError):
            ModelRegistry(router, partial, mini_train.manifest)

    def test_wrong_head_width_rejected(self, mini_models, mini_train):
        router, specialists, lower = mini_models
        bad = dict(specialists)
        bad[0] = lower  # head width n_sub, not subclass count
        with pytest.raises(ContractError):
            ModelRegistry(router, bad, mini_train.manifest)


class TestInferVanilla:
    def test_routing_containment(self, mini_registry, mini_test):
        manifest = mini_registry.manifest
        for row in mini_test.features[:40]:
            s, sub = infer_vanilla(mini_registry, row)
            assert manifest.super_of(sub) == s

    def test_random_inputs_stay_contained(self, mini_registry):
        manifest = mini_registry.manifest
        rng = Prng(999)
        for _ in range(25):
            row = gaussian_array(rng, (mini_registry.super_net.input_dim,), 0.0, 5.0)
            s, sub = infer_vanilla(mini_registry, row)
            assert manifest.super_of(sub) == s

    def test_feature_width_checked(self, mini_registry):
        with pytest.raises(ContractError, match=r"feature row has shape \(3,\), expected"):
            infer_vanilla(mini_registry, np.zeros(3, dtype=F32))

    def test_subclass_centroids_recovered(self, mini_registry, mini_train):
        # Points at per-subclass train centroids classify as that subclass.
        manifest = mini_train.manifest
        hits = 0
        for sub_idx in range(manifest.n_sub):
            mask = mini_train.sub_labels == sub_idx
            centroid = mini_train.features[mask].mean(axis=0)
            _, pred = infer_vanilla(mini_registry, centroid)
            hits += pred == sub_idx
        assert hits == manifest.n_sub


class TestEfficientSession:
    def test_cache_makes_repeat_queries_free(self, qat_session_parts, mini_train):
        base, _, packed = qat_session_parts
        session = EfficientSession(base, packed, mini_train.manifest)
        session.specialist_for(0)
        loaded_after_first = session.ledger.bytes_loaded
        assert loaded_after_first == len(packed[0])
        session.specialist_for(0)
        assert session.ledger.bytes_loaded == loaded_after_first
        assert session.ledger.specialist_switches == 1

    def test_trace_charges_sum_of_switched_deltas(self, qat_session_parts, mini_train):
        base, _, packed = qat_session_parts
        session = EfficientSession(base, packed, mini_train.manifest)
        trace = [0, 0, 1, 1, 0, 1]
        for s in trace:
            session.specialist_for(s)
        expected = len(packed[0]) + len(packed[1]) + len(packed[0]) + len(packed[1])
        assert session.ledger.bytes_loaded == expected
        assert session.ledger.specialist_switches == 4

    def test_replaying_trace_twice_doubles_bytes(self, qat_session_parts, mini_train):
        base, _, packed = qat_session_parts
        trace = [0, 1]  # first and last superclass differ
        session = EfficientSession(base, packed, mini_train.manifest)
        for s in trace:
            session.specialist_for(s)
        once = session.ledger.bytes_loaded
        session2 = EfficientSession(base, packed, mini_train.manifest)
        for s in trace + trace:
            session2.specialist_for(s)
        assert session2.ledger.bytes_loaded == 2 * once

    def test_peak_resident_bound(self, qat_session_parts, mini_train):
        base, specialists, packed = qat_session_parts
        session = EfficientSession(base, packed, mini_train.manifest)
        for s in (0, 1, 0):
            session.specialist_for(s)
        bound = (
            network_bytes(base)
            + max(network_bytes(n) for n in specialists.values())
            + max(len(b) for b in packed.values())
        )
        assert session.ledger.peak_resident_bytes <= bound

    def test_base_fingerprint_taken_once_per_session(self, qat_session_parts, mini_train, monkeypatch):
        base, _, packed = qat_session_parts
        calls = []

        def counted(net):
            calls.append(net)
            return base_fingerprint_of(net)

        monkeypatch.setattr(runtime, "base_fingerprint_of", counted)
        session = EfficientSession(base, packed, mini_train.manifest)
        for s in (0, 1, 0, 1, 1, 0):
            session.specialist_for(s)
        assert session.ledger.specialist_switches == 5
        assert len(calls) == 1 and calls[0] is base

    def test_rejected_pack_charges_nothing(self, qat_session_parts, mini_train):
        base, _, packed = qat_session_parts
        swapped = {s: packed[(s + 1) % len(packed)] for s in packed}
        session = EfficientSession(base, swapped, mini_train.manifest)
        with pytest.raises(FormatError, match="superclass 1, not 0"):
            session.specialist_for(0)
        assert session.ledger == EfficientSession(base, packed, mini_train.manifest).ledger
        session.packed_deltas.update(packed)
        session.specialist_for(0)
        fresh = EfficientSession(base, packed, mini_train.manifest)
        fresh.specialist_for(0)
        assert session.ledger == fresh.ledger
        assert (session.ledger.bytes_loaded, session.ledger.specialist_switches) == (len(packed[0]), 1)

    def test_missing_delta_rejected_at_construction(self, qat_session_parts, mini_train):
        base, _, packed = qat_session_parts
        partial = dict(packed)
        del partial[0]
        with pytest.raises(ContractError):
            EfficientSession(base, partial, mini_train.manifest)

    def test_wrong_base_detected(self, qat_session_parts, mini_train):
        _, _, packed = qat_session_parts
        cfg = NetworkConfig((mini_train.dim, 16, 16, mini_train.manifest.n_super))
        stranger = snap_to_grid(init_network(cfg, 900))
        session = EfficientSession(stranger, packed, mini_train.manifest)
        with pytest.raises(FormatError, match="computed against base"):
            session.specialist_for(0)

    def test_infer_efficient_matches_vanilla_bit_exact(self, qat_session_parts, mini_train, mini_test):
        base, specialists, packed = qat_session_parts
        registry = ModelRegistry(base, specialists, mini_train.manifest)
        session = EfficientSession(base, packed, mini_train.manifest)
        for row in mini_test.features[:30]:
            assert infer_vanilla(registry, row) == infer_efficient(session, row)

    def test_ledger_delta_reports_charges(self, qat_session_parts, mini_train, mini_test):
        base, _, packed = qat_session_parts
        session = EfficientSession(base, packed, mini_train.manifest)
        ledger = session.ledger
        s, _ = infer_efficient(session, mini_test.features[0])
        assert ledger.specialist_switches == 1
        assert ledger.bytes_loaded == len(packed[s])
        charged = (ledger.bytes_loaded, ledger.reconstruction_adds, ledger.specialist_switches)
        infer_efficient(session, mini_test.features[0])
        assert (ledger.bytes_loaded, ledger.reconstruction_adds, ledger.specialist_switches) == charged


@pytest.mark.parametrize("engine", ["vanilla", "efficient"])
@pytest.mark.parametrize("where", ["minus_one", "n_super"])
def test_specialist_for_rejects_out_of_range_superclass(qat_session_parts, mini_train, engine, where):
    # Both engines ask the manifest's one superclass-index check, so -1 is no
    # alias for the last superclass, and a rejected index charges nothing.
    base, specialists, packed = qat_session_parts
    manifest = mini_train.manifest
    if engine == "vanilla":
        server = ModelRegistry(base, specialists, manifest)
    else:
        server = EfficientSession(base, packed, manifest)
    with pytest.raises(IndexError, match="out of range"):
        server.specialist_for(-1 if where == "minus_one" else manifest.n_super)
    if engine == "efficient":
        assert server.ledger == EfficientSession(base, packed, manifest).ledger


def perfect_setup():
    """Hand-built nets that classify a one-hot dataset perfectly."""
    manifest = make_manifest([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
    eye = np.eye(4, dtype=F32) * 10
    features = np.vstack([eye] * 3)
    labels = np.asarray([0, 1, 2, 3] * 3, dtype=np.int64)
    ds = Dataset(features, labels, manifest)

    lower = manual_net([np.eye(4), np.eye(4)])
    router = manual_net([np.eye(4), [[1, 1, 0, 0], [0, 0, 1, 1]]])
    spec_a = manual_net([np.eye(4), [[1, 0, 0, 0], [0, 1, 0, 0]]])
    spec_b = manual_net([np.eye(4), [[0, 0, 1, 0], [0, 0, 0, 1]]])
    return ds, lower, router, {0: spec_a, 1: spec_b}


class TestEvaluate:
    def test_perfect_classifier_diagonal_and_100(self):
        ds, lower, router, specialists = perfect_setup()
        res = evaluate_lowerbound(lower, ds)
        assert res.report.macro_accuracy == 100.0
        assert res.report.micro_accuracy == 100.0
        for i, row in enumerate(res.report.confusion):
            for j, c in enumerate(row):
                assert c == (6 if i == j else 0)

        reg = ModelRegistry(router, specialists, ds.manifest)
        res2 = evaluate_two_stage(reg, ds)
        assert res2.report.macro_accuracy == 100.0
        assert res2.report.stage1_accuracy == 100.0

    def test_upperbound_uses_oracle_routing(self):
        ds, _, _, specialists = perfect_setup()
        res = evaluate_upperbound(specialists, ds)
        assert res.report.macro_accuracy == 100.0
        assert np.array_equal(res.pred_supers, ds.super_labels())

    def test_upperbound_reports_either_oracle_mode_only(self):
        ds, _, _, specialists = perfect_setup()
        oracle = evaluate_upperbound(specialists, ds)
        scratch = evaluate_upperbound(specialists, ds, runtime.MODE_UPPERBOUND_SCRATCH)
        assert (oracle.report.mode, scratch.report.mode) == ("upperbound_oracle", "upperbound_scratch")
        assert np.array_equal(oracle.pred_subs, scratch.pred_subs)
        with pytest.raises(ParameterError):
            evaluate_upperbound(specialists, ds, runtime.MODE_TWO_STAGE_VANILLA)

    def test_mode_ordering_on_mini_golden(self, mini_models, mini_registry, mini_test):
        router, specialists, lower = mini_models
        upper = evaluate_upperbound(specialists, mini_test)
        two_stage = evaluate_two_stage(mini_registry, mini_test)
        lower_res = evaluate_lowerbound(lower, mini_test)
        assert upper.report.macro_accuracy >= two_stage.report.macro_accuracy
        assert two_stage.report.macro_accuracy >= lower_res.report.macro_accuracy - 1e-9

    def test_efficient_evaluation_collects_ledger(self, qat_session_parts, mini_train, mini_test):
        base, specialists, packed = qat_session_parts
        session = EfficientSession(base, packed, mini_train.manifest)
        res = evaluate_efficient(session, mini_test)
        assert res.ledger == session.ledger and res.ledger is not session.ledger  # a copy
        assert res.ledger.bytes_loaded > 0
        registry = ModelRegistry(base, specialists, mini_train.manifest)
        vanilla = evaluate_two_stage(registry, mini_test)
        assert np.array_equal(res.pred_subs, vanilla.pred_subs)
        assert np.array_equal(res.pred_supers, vanilla.pred_supers)

    def test_empty_test_set_rejected(self, mini_models, mini_registry, qat_session_parts, mini_test):
        _, specialists, lower = mini_models
        base, _, packed = qat_session_parts
        empty = Dataset(mini_test.features[:0], mini_test.sub_labels[:0], mini_test.manifest)
        session = EfficientSession(base, packed, mini_test.manifest)
        for evaluate in (
            lambda: evaluate_two_stage(mini_registry, empty),
            lambda: evaluate_efficient(session, empty),
            lambda: evaluate_upperbound(specialists, empty),
            lambda: evaluate_lowerbound(lower, empty),
        ):
            with pytest.raises(ContractError, match="empty test set"):
                evaluate()
        assert session.ledger.specialist_switches == 0

    def test_lowerbound_head_checked(self, mini_models, mini_test):
        router, _, _ = mini_models
        with pytest.raises(ContractError):
            evaluate_lowerbound(router, mini_test)


class TestConfusionMatrix:
    def test_diagonal_when_perfect(self):
        m = confusion_matrix([0, 1, 2], [0, 1, 2], 3)
        assert np.array_equal(m, np.eye(3, dtype=np.int64))

    def test_row_sums_match_truth_counts(self):
        true = [0, 0, 1, 1, 1, 2]
        pred = [0, 1, 1, 1, 0, 2]
        m = confusion_matrix(pred, true, 3)
        assert list(m.sum(axis=1)) == [2, 3, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            confusion_matrix([0, 3], [0, 1], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            confusion_matrix([0], [0, 1], 2)


class TestReportMath:
    def test_macro_differs_from_micro_on_unbalanced_predictions(self):
        manifest = make_manifest([("A", ["a1", "a2"]), ("B", ["b1", "b2"])])
        # 4 rows of A (all correct), 2 rows of B (all wrong).
        true_subs = np.asarray([0, 0, 1, 1, 2, 3], dtype=np.int64)
        pred_subs = np.asarray([0, 0, 1, 1, 3, 2], dtype=np.int64)
        pred_supers = np.asarray([0, 0, 0, 0, 1, 1], dtype=np.int64)
        report = build_report("two_stage_vanilla", manifest, true_subs, pred_supers, pred_subs)
        assert report.per_super_accuracy == (100.0, 0.0)
        assert report.macro_accuracy == 50.0
        assert report.micro_accuracy == pytest.approx(100.0 * 4 / 6)
