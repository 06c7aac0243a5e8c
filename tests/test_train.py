"""Training loop contracts: the labels each network trains on, determinism, finetuning, QAT."""

import importlib

import numpy as np
import pytest

from supersub.delta import MODE_QAT_INT, base_fingerprint_of, compute_delta, pack, reconstruct, unpack
from supersub.errors import ContractError, ParameterError
from supersub.network import (
    QatConfig,
    body_items,
    effective_weights,
    forward,
    init_network,
    quantize_with_scale,
    serialize_network,
    snap_to_grid,
    uniform_config,
)
from supersub.train import TrainConfig, finetune_from_super, train


def router_config(ds, hidden=(16, 16)):
    return uniform_config(ds.dim, list(hidden), ds.manifest.n_super, True)


def router_data(ds):
    return ds.features, ds.super_labels()


def tcfg(seed, epochs=10, qat_bits=None):
    return TrainConfig(lr=0.01, epochs=epochs, batch_size=16, seed=seed, qat_bits=qat_bits)


class TestTrainConfig:
    def test_rejects_bad_values(self):
        for lr in (0.0, -0.1, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ParameterError, match="lr"):
                TrainConfig(lr=lr, epochs=1, batch_size=1, seed=0)
        with pytest.raises(ParameterError):
            TrainConfig(lr=0.1, epochs=-1, batch_size=1, seed=0)
        with pytest.raises(ParameterError):
            TrainConfig(lr=0.1, epochs=1, batch_size=0, seed=0)
        with pytest.raises(ParameterError):
            TrainConfig(lr=0.1, epochs=1, batch_size=1, seed=0, qat_bits=1)
        with pytest.raises(ParameterError):
            TrainConfig(lr=0.1, epochs=1, batch_size=1, seed=0, qat_bits=9)


class TestLabelViews:
    """The router trains on superclass labels, the monolithic baseline on
    global subclass labels, a specialist on one superclass's local labels."""

    def test_superclass_view(self, mini_train):
        labels = mini_train.super_labels()
        assert set(int(v) for v in labels) == {0, 1}
        net = init_network(router_config(mini_train), 3)
        _, history = train(net, mini_train.features, labels, tcfg(4, epochs=1))
        assert len(history) == 1

    def test_all_subclasses_view(self, mini_train):
        labels = mini_train.sub_labels
        assert labels.max() == mini_train.manifest.n_sub - 1
        net = init_network(uniform_config(mini_train.dim, [16], mini_train.manifest.n_sub, True), 3)
        _, history = train(net, mini_train.features, labels, tcfg(4, epochs=1))
        assert len(history) == 1

    def test_subclass_view_filters_and_reindexes(self, mini_train):
        features, labels = mini_train.rows_of_super(1)
        assert features.shape[0] == len(labels) == 40
        assert set(int(v) for v in labels) == {0, 1}

    def test_invalid_super_index(self, mini_train):
        for index in (9, -1):
            with pytest.raises(IndexError, match=f"superclass index {index} out of range"):
                mini_train.rows_of_super(index)


class TestTrain:
    def test_zero_epochs_identity_and_empty_history(self, mini_train):
        net = init_network(router_config(mini_train), 5)
        out, history = train(net, *router_data(mini_train), tcfg(6, epochs=0))
        assert history == []
        assert serialize_network(out) == serialize_network(net)

    def test_head_width_contract(self, mini_train):
        net = init_network(router_config(mini_train), 5)  # head 2
        with pytest.raises(ContractError, match="outside 0..1"):
            train(net, mini_train.features, mini_train.sub_labels, tcfg(6))
        with pytest.raises(ContractError, match="outside 0..1"):
            train(net, mini_train.features, mini_train.super_labels() - 1, tcfg(6))

    def test_label_count_contract(self, mini_train):
        net = init_network(router_config(mini_train), 5)
        with pytest.raises(ContractError, match="labels for"):
            train(net, mini_train.features, mini_train.super_labels()[:-1], tcfg(6, epochs=0))

    def test_deterministic_bit_identical(self, mini_train):
        net = init_network(router_config(mini_train), 7)
        a, hist_a = train(net, *router_data(mini_train), tcfg(8, epochs=5))
        b, hist_b = train(net, *router_data(mini_train), tcfg(8, epochs=5))
        assert serialize_network(a) == serialize_network(b)
        assert hist_a == hist_b

    def test_loss_halves_on_mini_golden(self, mini_train):
        net = init_network(router_config(mini_train), 9)
        _, history = train(net, *router_data(mini_train), tcfg(10, epochs=12))
        assert all(np.isfinite(history))
        assert history[-1] < 0.5 * history[0]

    def test_loss_history_length_matches_epochs(self, mini_train):
        net = init_network(router_config(mini_train), 11)
        _, history = train(net, *router_data(mini_train), tcfg(12, epochs=4))
        assert len(history) == 4

    def test_qat_returns_network_on_its_grid(self, mini_train):
        net = init_network(router_config(mini_train), 29)
        trained, _ = train(net, *router_data(mini_train), tcfg(30, epochs=3, qat_bits=8))
        assert trained.quant is not None and trained.quant.bits == 8
        assert serialize_network(snap_to_grid(trained, 8)) == serialize_network(trained)

    def test_one_softmax_per_step(self, mini_train, monkeypatch):
        # A step takes the softmax of its logits once, for the loss and the
        # gradient alike, and calls sgd_step once.
        calls = {"softmax_rows": 0, "sgd_step": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in map(importlib.import_module, ("supersub.tensor", "supersub.network", "supersub.train")):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name)))
        net = init_network(router_config(mini_train), 13)
        config = tcfg(14, epochs=3)
        train(net, *router_data(mini_train), config)
        rows = len(mini_train.features)
        steps = config.epochs * sum(min(config.batch_size, rows - s) >= 2 for s in range(0, rows, config.batch_size))
        assert calls == {"softmax_rows": steps, "sgd_step": steps}

    def test_does_not_mutate_input_network(self, mini_train):
        net = init_network(router_config(mini_train), 13)
        before = serialize_network(net)
        train(net, *router_data(mini_train), tcfg(14, epochs=2))
        assert serialize_network(net) == before


class TestFinetune:
    def test_zero_epochs_preserves_body_bit_exact(self, mini_train):
        base = init_network(router_config(mini_train), 15)
        tuned = finetune_from_super(base, 0, mini_train, tcfg(16, epochs=0))
        assert tuned.head_dim == mini_train.manifest.subclass_count(0)
        for (name, old, _), (_, new, _) in zip(body_items(base), body_items(tuned), strict=True):
            assert np.array_equal(old, new), name

    def test_does_not_mutate_base_network(self, mini_train):
        base = init_network(router_config(mini_train), 19)
        before = serialize_network(base)
        finetune_from_super(base, 1, mini_train, tcfg(20, epochs=2))
        assert serialize_network(base) == before

    def test_invalid_superclass_index(self, mini_train):
        base = init_network(router_config(mini_train), 17)
        with pytest.raises(IndexError):
            finetune_from_super(base, 5, mini_train, tcfg(18))

    def test_finetuned_specialist_reaches_high_local_accuracy(self, mini_train, mini_test):
        # The specialist advantage over the monolithic baseline is a
        # golden-scale property (asserted in the acceptance suite); at mini
        # scale just require that finetuning produces a working specialist.
        base0 = init_network(router_config(mini_train), 19)
        base, _ = train(base0, *router_data(mini_train), tcfg(20, epochs=12))
        specialist = finetune_from_super(base, 0, mini_train, tcfg(21, epochs=12))
        features, labels = mini_test.rows_of_super(0)
        logits, _ = forward(specialist, features)
        assert float((logits.argmax(axis=1) == labels).mean()) >= 0.6

    def test_qat_requires_snapped_base(self, mini_train):
        base = init_network(router_config(mini_train), 24)
        with pytest.raises(ContractError):
            finetune_from_super(base, 0, mini_train, tcfg(25, qat_bits=8))

    def test_qat_effective_weights_live_on_grid(self, mini_train):
        base0 = init_network(router_config(mini_train), 26)
        base, _ = train(base0, *router_data(mini_train), tcfg(27, epochs=3, qat_bits=8))
        tuned = finetune_from_super(base, 0, mini_train, tcfg(28, epochs=3, qat_bits=8))
        # Body grids are pinned to the base's scales during the finetune.
        qat = QatConfig(8, base.quant.body_scales())
        body = [s for (_, _, is_weight), s in zip(body_items(base), base.quant.body_scales()) if is_weight]
        for w, scale in zip(effective_weights(tuned, qat)[:-1], body, strict=True):
            assert np.array_equal(quantize_with_scale(w, scale, 8), w)

    def test_qat_specialist_shares_base_grids_and_rebuilds_exactly(self, mini_train):
        base0 = init_network(router_config(mini_train), 31)
        base, _ = train(base0, *router_data(mini_train), tcfg(32, epochs=3, qat_bits=8))
        tuned = finetune_from_super(base, 1, mini_train, tcfg(33, epochs=3, qat_bits=8))
        assert tuned.quant.body_scales() == base.quant.body_scales()
        packed = pack(compute_delta(base, tuned, MODE_QAT_INT, superclass_id=1)).data
        rebuilt = reconstruct(base, unpack(packed), base_fingerprint_of(base), 1, tuned.head_dim)
        assert serialize_network(rebuilt) == serialize_network(tuned)
