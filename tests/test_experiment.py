"""Config-driven pipeline: artifacts, determinism, idempotent commands."""

import contextlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supersub
from supersub import experiment
from supersub.cli import main
from supersub.errors import ValidationError
from supersub.experiment import (
    EVAL_MODES,
    MODES,
    RunPaths,
    cmd_eval,
    cmd_finetune,
    cmd_gen_data,
    cmd_pack,
    cmd_report,
    cmd_train,
    cmd_unpack,
    load_config,
    parse_config,
    run_experiment,
)
from supersub.network import load_network


def config_doc(out_dir, delta_mode="fp16", epochs=6, **extra):
    doc = {
        "seed": 777,
        "out_dir": str(out_dir),
        "synthetic": {
            "n_super": 2,
            "subs_per_super": [2, 2],
            "dim": 8,
            "super_sep": 6.0,
            "sub_sep": 1.5,
            "noise_sigma": 1.0,
            "n_train_per_sub": 20,
            "n_test_per_sub": 8,
        },
        "network": {"hidden_dims": [16, 16], "batchnorm": True},
        "train": {
            "superclass": {"lr": 0.01, "epochs": epochs, "batch_size": 16},
            "subclass": {"lr": 0.01, "epochs": epochs, "batch_size": 16},
            "finetune": {"lr": 0.01, "epochs": epochs, "batch_size": 16},
        },
        "delta_mode": delta_mode,
        "qat_bits": 8,
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, name="config.json", **kwargs):
    out_dir = tmp_path / "run"
    doc = config_doc(out_dir, **kwargs)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, out_dir


class TestConfigParsing:
    def test_missing_sections_rejected(self):
        with pytest.raises(ValidationError):
            parse_config({"seed": 1})

    def test_needs_synthetic_or_dataset(self, tmp_path):
        doc = config_doc(tmp_path)
        doc.pop("synthetic")
        with pytest.raises(ValidationError):
            parse_config(doc)

    def test_unknown_delta_mode_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_config(config_doc(tmp_path, delta_mode="bzip2"))

    def test_overrides_apply(self, tmp_path):
        path, _ = write_config(tmp_path)
        config = load_config(path, out_dir_override="elsewhere", seed_override=42)
        assert config.out_dir == "elsewhere"
        assert config.seed == 42

    @pytest.mark.parametrize(
        "stage, name, value", [("finetune", "lr", -0.01), ("subclass", "batch_size", 0), ("superclass", "epochs", -1)]
    )
    def test_bad_stage_value_names_its_stage(self, tmp_path, stage, name, value):
        doc = config_doc(tmp_path)
        doc["train"][stage][name] = value
        with pytest.raises(ValidationError, match=f"train.{stage}: {name}"):
            parse_config(doc)

    def test_stage_seeds_differ(self, tmp_path):
        path, _ = write_config(tmp_path)
        config = load_config(path)
        from supersub.experiment import TAG_FINETUNE, TAG_LOWER, TAG_SUPER
        from supersub.tensor import child_seed

        seeds = {
            child_seed(config.seed, TAG_SUPER),
            child_seed(config.seed, TAG_LOWER),
            child_seed(config.seed, TAG_FINETUNE, 0),
            child_seed(config.seed, TAG_FINETUNE, 1),
        }
        assert len(seeds) == 4


class TestGenData:
    def test_creates_out_dir_and_files(self, tmp_path):
        path, out_dir = write_config(tmp_path)
        config = load_config(path)
        assert not out_dir.exists()
        train_path, test_path = cmd_gen_data(config)
        assert train_path.exists() and test_path.exists()

    def test_rerun_byte_identical(self, tmp_path):
        path, out_dir = write_config(tmp_path)
        config = load_config(path)
        cmd_gen_data(config)
        first = (out_dir / "train.hsds").read_bytes()
        cmd_gen_data(config)
        assert (out_dir / "train.hsds").read_bytes() == first


class TestTrainCommands:
    @pytest.fixture()
    def prepared(self, tmp_path):
        path, out_dir = write_config(tmp_path, epochs=4)
        config = load_config(path)
        cmd_gen_data(config)
        return config, RunPaths(config.out_dir)

    def test_head_widths_per_target(self, prepared):
        config, paths = prepared
        cmd_train(config, "super")
        cmd_train(config, "lowerbound")
        cmd_train(config, "sub:1")
        assert load_network(paths.super_net).head_dim == 2
        assert load_network(paths.lower_net).head_dim == 4
        assert load_network(paths.scratch_net(1)).head_dim == 2

    def test_rerun_byte_identical(self, prepared):
        config, paths = prepared
        cmd_train(config, "super")
        first = paths.super_net.read_bytes()
        cmd_train(config, "super")
        assert paths.super_net.read_bytes() == first

    def test_loss_history_written(self, prepared):
        config, paths = prepared
        cmd_train(config, "super")
        lines = paths.loss_csv("super").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + 4

    def test_invalid_target_rejected(self, prepared):
        config, _ = prepared
        from supersub.errors import ParameterError

        with pytest.raises(ParameterError):
            cmd_train(config, "everything")
        with pytest.raises(IndexError):
            cmd_train(config, "sub:7")


class TestPackUnpackRoundTrip:
    def test_qat_reconstruction_bit_identical(self, tmp_path):
        path, _ = write_config(tmp_path, delta_mode="qat-int", epochs=4)
        config = load_config(path)
        cmd_gen_data(config)
        cmd_train(config, "super")
        cmd_finetune(config, 0)
        cmd_pack(config, 0)
        cmd_unpack(config, 0)
        paths = RunPaths(config.out_dir)
        assert paths.reconstructed_net(0).read_bytes() == paths.finetuned_net(0).read_bytes()

    def test_pack_summary_reports_ratio(self, tmp_path):
        path, _ = write_config(tmp_path, epochs=4)
        config = load_config(path)
        cmd_gen_data(config)
        cmd_train(config, "super")
        cmd_finetune(config, 1)
        _, summary = cmd_pack(config, 1)
        assert "ratio 0." in summary and "superclass 1" in summary


@pytest.fixture(scope="module")
def fp16_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fp16run")
    path, _ = write_config(tmp, eval_modes=list(EVAL_MODES) + ["upperbound_scratch"])
    config = load_config(path)
    return config, run_experiment(config)


class TestFullPipeline:
    def test_all_eval_files_written(self, fp16_run):
        config, run = fp16_run
        paths = RunPaths(config.out_dir)
        for mode in EVAL_MODES:
            assert paths.eval_csv(mode).exists()
            assert paths.confusion_csv(mode).exists()
            assert paths.predictions_csv(mode).exists()
        assert paths.ledger_csv("two_stage_efficient").exists()
        assert paths.summary_txt.exists()
        assert paths.compression_csv.exists()

    def test_mode_ordering_holds(self, fp16_run):
        _, run = fp16_run
        upper = run.results["upperbound_oracle"].report.macro_accuracy
        two_stage = run.results["two_stage_vanilla"].report.macro_accuracy
        lower = run.results["lowerbound"].report.macro_accuracy
        assert upper >= two_stage >= lower - 1e-9

    def test_efficient_close_to_vanilla_fp16(self, fp16_run):
        _, run = fp16_run
        vanilla = run.results["two_stage_vanilla"].report.macro_accuracy
        efficient = run.results["two_stage_efficient"].report.macro_accuracy
        assert abs(vanilla - efficient) <= 0.5

    def test_report_parses_own_csvs(self, fp16_run):
        config, _ = fp16_run
        text, csv = cmd_report(config)
        assert "two_stage_vanilla" in csv
        assert "avg ratio" in text

    def test_rerun_is_idempotent(self, fp16_run):
        config, _ = fp16_run
        paths = RunPaths(config.out_dir)
        before = {p.name: p.read_bytes() for p in paths.root.iterdir()}
        run_experiment(config)
        after = {p.name: p.read_bytes() for p in paths.root.iterdir()}
        assert before == after

    def test_report_on_empty_dir_lists_missing(self, tmp_path):
        path, _ = write_config(tmp_path)
        config = load_config(path)
        with pytest.raises(FileNotFoundError, match="missing"):
            cmd_report(config)


class TestQatPipeline:
    def test_qat_predictions_identical_vanilla_vs_efficient(self, tmp_path):
        path, _ = write_config(
            tmp_path, delta_mode="qat-int", epochs=5,
            eval_modes=["two_stage_vanilla", "two_stage_efficient"],
        )
        config = load_config(path)
        run = run_experiment(config)
        paths = RunPaths(config.out_dir)
        vanilla_preds = paths.predictions_csv("two_stage_vanilla").read_bytes()
        efficient_preds = paths.predictions_csv("two_stage_efficient").read_bytes()
        assert vanilla_preds == efficient_preds


class TestRunPlan:
    @pytest.mark.parametrize("modes", [["lowerbound"], ["two_stage_vanilla"], ["upperbound_scratch"]])
    def test_optional_nets_trained_only_when_evaluated(self, tmp_path, modes):
        # include_lowerbound is a key older configs carried; it is ignored now.
        path, _ = write_config(tmp_path, epochs=2, include_lowerbound=False, eval_modes=modes)
        config = load_config(path)
        run = run_experiment(config)
        assert list(run.results) == modes
        paths = RunPaths(config.out_dir)
        assert paths.lower_net.exists() == ("lowerbound" in modes)
        assert paths.scratch_net(0).exists() == ("upperbound_scratch" in modes)
        assert paths.scratch_net(1).exists() == ("upperbound_scratch" in modes)


CPUS = os.sched_getaffinity(0)
needs_two_cpus = pytest.mark.skipif(len(CPUS) < 2, reason="this process sees one CPU, so every run is serial")


def _tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestTwoChains:
    """With two CPUs a forked helper trains the baselines chain (lowerbound,
    sub:<i>) while this process trains the router chain; with one, this
    process trains both, one after the other."""

    @needs_two_cpus
    def test_two_chain_run_equals_a_one_cpu_run(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path, epochs=2, eval_modes=list(MODES))
        src = str(Path(supersub.__file__).resolve().parents[1])
        script = (
            f"import os, sys; os.sched_setaffinity(0, {{{min(CPUS)}}}); assert len(os.sched_getaffinity(0)) == 1; "
            "print('before the run'); from supersub.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        child = subprocess.run(
            [sys.executable, "-c", script, "--config", str(path), "--out", str(tmp_path / "serial"), "run"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
        )
        assert child.returncode == 0, child.stderr

        pids = tmp_path / "helper_pids.txt"
        train_each = experiment._train_each

        def recording(config, targets):
            with open(pids, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")
            train_each(config, targets)

        monkeypatch.setattr(experiment, "_train_each", recording)
        stdout = tmp_path / "stdout.txt"
        with open(stdout, "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
            print("before the run")  # still buffered when the helper forks
            assert main(["--config", str(path), "--out", str(tmp_path / "chains"), "run"]) == 0
        trained_by = pids.read_text().split()
        assert len(trained_by) == 1 and trained_by[0] != str(os.getpid())
        assert stdout.read_text(encoding="utf-8") == child.stdout
        assert _tree(tmp_path / "chains") == _tree(tmp_path / "serial")
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("blocked", ["lower.hsnw", "super.hsnw"], ids=["helper_chain", "main_chain"])
    def test_a_failing_chain_raises_what_the_serial_run_raises(self, tmp_path, monkeypatch, blocked):
        # A directory where a chain saves a network makes that chain fail.
        raised = {}
        for name, cpus in (("serial", {min(CPUS)}), ("chains", CPUS)):
            if name == "chains" and len(cpus) < 2:
                pytest.skip("this process sees one CPU, so every run is serial")
            (tmp_path / name).mkdir()
            path, out_dir = write_config(tmp_path / name, epochs=2, eval_modes=list(MODES))
            (out_dir / blocked).mkdir(parents=True)
            with monkeypatch.context() as m:
                m.setattr(experiment.os, "sched_getaffinity", lambda pid: cpus)
                with pytest.raises(Exception) as err:
                    run_experiment(load_config(path))
            raised[name] = type(err.value)
            assert not multiprocessing.active_children()
        assert raised["chains"] is raised["serial"] is IsADirectoryError

    @needs_two_cpus
    def test_a_helper_that_exits_without_reporting_raises(self, tmp_path, monkeypatch):
        cmd_train_ = experiment.cmd_train

        def dying(config, target):
            if target != "super":
                os._exit(7)  # the forked helper inherits this patch
            return cmd_train_(config, target)

        monkeypatch.setattr(experiment, "cmd_train", dying)
        path, _ = write_config(tmp_path, epochs=2, eval_modes=["lowerbound"])
        with pytest.raises(ChildProcessError, match="lowerbound exited with code 7 before reporting"):
            run_experiment(load_config(path))
        assert not multiprocessing.active_children()
