"""Config-driven experiment pipeline: the machinery behind the CLI verbs.

One JSON config drives a whole experiment: synthetic data generation,
router / baseline / specialist training, delta packing, evaluation, and
report rendering. This module holds only the run plan (which stage runs,
with which seed) and the file layout (`RunPaths`); the rules belong to
their owners: the one training recipe that every stage trains with is a
`TrainConfig`, checked when the config loads, a missing input is
`open()`'s `FileNotFoundError`, and `report` rebuilds every number from
the predictions CSV. Every stage derives its seed from the experiment
seed XOR a fixed stage tag, so the entire pipeline is reproducible byte
for byte from the single top-level seed.

Commands communicate through files in the config's output directory and
are idempotent: rerunning any of them overwrites its outputs with
identical bytes. Each training stage writes only its own files, so
`run_experiment` can train two chains of stages at once: this process
trains the router chain (super, then each finetune and its pack) while one
forked helper process trains the baselines chain (the monolithic network,
then the from-scratch specialists), and the evals and the report start
once both are done. A config that lists neither `lowerbound` nor
`upperbound_scratch`, or a process allowed only one CPU, runs both chains
here, one after the other, and writes the same bytes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import delta as delta_mod
from . import report as report_mod
from . import runtime as runtime_mod
from .data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .errors import ParameterError, ValidationError
from .network import Network, NetworkConfig, init_network, load_network, save_network
from .runtime import (
    MODE_LOWERBOUND,
    MODE_TWO_STAGE_EFFICIENT,
    MODE_TWO_STAGE_VANILLA,
    MODE_UPPERBOUND,
    MODE_UPPERBOUND_SCRATCH,
    EfficientSession,
    EvalResult,
    ModelRegistry,
)
from .tensor import child_seed
from .train import TrainConfig, finetune_from_super, train

# Stage seed tags; values are arbitrary fixed constants, never change them.
TAG_DATA = 0x4441544100000001
TAG_SUPER = 0x5355505200000002
TAG_LOWER = 0x4C4F575200000003
TAG_SCRATCH = 0x5355424300000004
TAG_FINETUNE = 0x46494E4500000005
TAG_INIT = 0x494E495400000006

EVAL_MODES = (
    MODE_LOWERBOUND,
    MODE_UPPERBOUND,
    MODE_TWO_STAGE_VANILLA,
    MODE_TWO_STAGE_EFFICIENT,
)  # the default run plan
MODES = (*EVAL_MODES, MODE_UPPERBOUND_SCRATCH)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    out_dir: str
    synthetic: SyntheticSpec | None
    dataset_paths: tuple[str, str] | None  # (train, test) when data comes from files
    hidden_dims: tuple[int, ...]
    train: TrainConfig  # every stage's recipe, seed 0 and float: each stage sets both with replace()
    delta_mode: str  # qat-int also trains the router and specialists on grids
    eval_modes: tuple[str, ...] = EVAL_MODES


_TRAIN_FIELDS = {"lr": float, "epochs": int, "batch_size": int}
_SYNTHETIC_FIELDS = dict(dim=int, super_sep=float, sub_sep=float, noise_sigma=float,
                         n_train_per_sub=int, n_test_per_sub=int)


_JSON_KINDS = {dict: "object", list: "list", str: "string"}


def _of_type(value, kind: type, where: str):
    """value itself when it is a JSON object, list or string (kind dict, list, str)."""
    if not isinstance(value, kind):
        raise ValidationError(f"{where} must be a JSON {_JSON_KINDS[kind]}")
    return value


def _number(kind: type, value, where: str):
    """value as kind int or float: an int field takes a JSON integer, a float
    field any finite JSON number; anything else (true, 2.7 for an int, "2",
    NaN) is a ValidationError."""
    if not isinstance(value, bool):
        if kind is int and isinstance(value, int):
            return value
        if kind is float and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
            return float(value)
    what = "an integer" if kind is int else "a finite number"
    raise ValidationError(f"{where} must be {what}, got {value!r}")


def _object(value, where: str, keys, optional=()) -> dict:
    """value when it is a JSON object holding every one of keys and no key
    but those and optional: a missing key is a ValidationError, and so is any
    other key, which nothing would read (a typo, a removed setting)."""
    block = _of_type(value, dict, where)
    for key in block:
        if key not in keys and key not in optional:
            raise ValidationError(f"{where} holds unknown key {key!r}; its keys are {', '.join((*keys, *optional))}")
    for key in keys:
        if key not in block:
            raise ValidationError(f"{where} is missing {key!r}")
    return block


def _int_list(value, where: str) -> tuple[int, ...]:
    return tuple(_number(int, v, where) for v in _of_type(value, list, where))


def _fields(block: dict, kinds: dict[str, type], where: str) -> dict:
    """The named number fields of a config object, each converted to its kind."""
    return {name: _number(kind, block[name], f"{where}.{name}") for name, kind in kinds.items()}


def parse_config(doc: dict, out_dir_override: str | None = None, seed_override: int | None = None) -> ExperimentConfig:
    doc = _object(doc, "config", ("seed", "out_dir", "network", "train", "delta_mode"),
                  ("synthetic", "dataset", "eval_modes"))
    # The config's own seed and out_dir are checked even when an override replaces them.
    seed, out_dir = _number(int, doc["seed"], "seed"), _of_type(doc["out_dir"], str, "out_dir")
    seed = seed if seed_override is None else seed_override

    synthetic = None
    dataset_paths = None
    if doc.get("synthetic") is not None and doc.get("dataset") is not None:
        raise ValidationError('config holds both a "synthetic" and a "dataset" block; give one')
    if doc.get("synthetic") is not None:
        s = _object(doc["synthetic"], "synthetic", ("subs_per_super", *_SYNTHETIC_FIELDS))
        try:
            synthetic = SyntheticSpec(
                subs_per_super=_int_list(s["subs_per_super"], "synthetic.subs_per_super"),
                seed=child_seed(seed, TAG_DATA),
                **_fields(s, _SYNTHETIC_FIELDS, "synthetic"),
            )
        except ParameterError as exc:
            raise ValidationError(f"synthetic: {exc}") from exc
    elif doc.get("dataset") is not None:
        d = _object(doc["dataset"], "dataset", ("train", "test"))
        dataset_paths = tuple(_of_type(d[key], str, f"dataset.{key}") for key in ("train", "test"))
    else:
        raise ValidationError('config needs either a "synthetic" or a "dataset" block')

    net = _object(doc["network"], "network", ("hidden_dims",))
    hidden_dims = _int_list(net["hidden_dims"], "network.hidden_dims")
    try:
        NetworkConfig((1, *hidden_dims, 1))  # input and head widths come with the data
    except ParameterError as exc:
        raise ValidationError(f"network.hidden_dims {list(hidden_dims)}: {exc}") from exc
    train_block = _object(doc["train"], "train", tuple(_TRAIN_FIELDS))
    try:
        recipe = TrainConfig(seed=0, **_fields(train_block, _TRAIN_FIELDS, "train"))
    except ParameterError as exc:
        raise ValidationError(f"train: {exc}") from exc
    delta_mode = doc["delta_mode"]
    if delta_mode not in (delta_mod.MODE_FP16, delta_mod.MODE_QAT_INT):
        raise ValidationError(f"unknown delta_mode {delta_mode!r}")
    eval_modes = tuple(_of_type(doc.get("eval_modes", list(EVAL_MODES)), list, "eval_modes"))
    for mode in eval_modes:
        if not isinstance(mode, str) or mode not in MODES:
            raise ValidationError(f"unknown eval mode {mode!r}")
    if not eval_modes or len(set(eval_modes)) != len(eval_modes):
        raise ValidationError(f"eval_modes must name at least one mode, each once; got {list(eval_modes)}")

    return ExperimentConfig(
        seed=seed,
        out_dir=out_dir_override or out_dir,
        synthetic=synthetic,
        dataset_paths=dataset_paths,
        hidden_dims=hidden_dims,
        train=recipe,
        delta_mode=delta_mode,
        eval_modes=eval_modes,
    )


def load_config(path, out_dir_override: str | None = None, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path} is not a UTF-8 text file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    config = parse_config(doc, out_dir_override, seed_override)
    out = Path(config.out_dir)
    if out.exists() and not out.is_dir():
        raise ValidationError(f"output directory {out} exists and is not a directory")
    return config


# --- paths ---------------------------------------------------------------------


class RunPaths:
    """Canonical artifact locations inside one experiment's output directory."""

    def __init__(self, out_dir: str):
        self.root = Path(out_dir)

    def ensure(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)

    @property
    def train_data(self) -> Path:
        return self.root / "train.hsds"

    @property
    def test_data(self) -> Path:
        return self.root / "test.hsds"

    @property
    def super_net(self) -> Path:
        return self.root / "super.hsnw"

    @property
    def lower_net(self) -> Path:
        return self.root / "lower.hsnw"

    def scratch_net(self, i: int) -> Path:
        return self.root / f"sub_{i}.hsnw"

    def finetuned_net(self, i: int) -> Path:
        return self.root / f"ft_{i}.hsnw"

    def delta_file(self, i: int) -> Path:
        return self.root / f"delta_{i}.hsdl"

    def reconstructed_net(self, i: int) -> Path:
        return self.root / f"reconstructed_{i}.hsnw"

    def loss_csv(self, target: str) -> Path:
        return self.root / f"loss_{target.replace(':', '_')}.csv"

    def eval_csv(self, mode: str) -> Path:
        return self.root / f"eval_{mode}.csv"

    def confusion_csv(self, mode: str) -> Path:
        return self.root / f"confusion_{mode}.csv"

    def confusion_pct_csv(self, mode: str) -> Path:
        return self.root / f"confusion_pct_{mode}.csv"

    def predictions_csv(self, mode: str) -> Path:
        return self.root / f"predictions_{mode}.csv"

    def ledger_csv(self, mode: str) -> Path:
        return self.root / f"ledger_{mode}.csv"

    @property
    def summary_txt(self) -> Path:
        return self.root / "summary.txt"

    @property
    def summary_csv(self) -> Path:
        return self.root / "summary.csv"

    @property
    def compression_csv(self) -> Path:
        return self.root / "compression.csv"


# --- commands ------------------------------------------------------------------


def cmd_gen_data(config: ExperimentConfig) -> tuple[Path, Path]:
    """Write train/test dataset files (generating them if synthetic); a dataset
    block's two files must share one hierarchy and one feature dim."""
    paths = RunPaths(config.out_dir)
    if config.synthetic is not None:
        train_ds, test_ds = generate_synthetic(config.synthetic)
    else:
        train_ds, test_ds = (load_dataset(path) for path in config.dataset_paths)
        if train_ds.manifest != test_ds.manifest or train_ds.dim != test_ds.dim:
            raise ValidationError("dataset block: its train and test files differ in hierarchy or dim")
    paths.ensure()
    save_dataset(train_ds, paths.train_data)
    save_dataset(test_ds, paths.test_data)
    return paths.train_data, paths.test_data


def _write_loss_history(path: Path, history: list[float]) -> None:
    lines = ["epoch,loss"]
    for i, loss in enumerate(history):
        lines.append(f"{i},{loss:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_train(config: ExperimentConfig, target: str) -> Path:
    """Train one model: target is "super", "lowerbound", or "sub:<i>"."""
    paths = RunPaths(config.out_dir)
    train_ds = load_dataset(paths.train_data)
    manifest = train_ds.manifest

    if target == "super":
        stage_seed = child_seed(config.seed, TAG_SUPER)
        features, labels = train_ds.features, train_ds.super_labels()
        head = manifest.n_super
        out_path = paths.super_net
    elif target == "lowerbound":
        stage_seed = child_seed(config.seed, TAG_LOWER)
        features, labels = train_ds.features, train_ds.sub_labels
        head = manifest.n_sub
        out_path = paths.lower_net
    elif target.startswith("sub:"):
        i = _parse_super_index(target[4:])
        features, labels = train_ds.rows_of_super(i)
        stage_seed = child_seed(config.seed, TAG_SCRATCH, i)
        head = manifest.subclass_count(i)
        out_path = paths.scratch_net(i)
    else:
        raise ParameterError(f"unknown train target {target!r}")

    net0 = init_network(NetworkConfig((train_ds.dim, *config.hidden_dims, head)), child_seed(stage_seed, TAG_INIT))
    qat = target == "super" and config.delta_mode == delta_mod.MODE_QAT_INT  # the baselines train in float
    trained, history = train(net0, features, labels, replace(config.train, seed=stage_seed, qat=qat))
    save_network(trained, out_path)
    _write_loss_history(paths.loss_csv(target), history)
    return out_path


def _parse_super_index(text: str) -> int:
    """The index i with str(i) == text: no plus sign, space, underscore or
    leading zero, so each superclass has one loss CSV name. The manifest
    checks its range."""
    try:
        i = int(text)
    except ValueError:
        i = None
    if i is None or str(i) != text:
        raise ParameterError(f"superclass index must be an integer, got {text!r}")
    return i


def cmd_finetune(config: ExperimentConfig, super_index: int) -> Path:
    """Finetune the router into the specialist for one superclass."""
    paths = RunPaths(config.out_dir)
    train_ds = load_dataset(paths.train_data)
    base = load_network(paths.super_net)
    stage_seed = child_seed(config.seed, TAG_FINETUNE, super_index)
    tcfg = replace(config.train, seed=stage_seed, qat=config.delta_mode == delta_mod.MODE_QAT_INT)
    tuned = finetune_from_super(base, super_index, train_ds, tcfg)
    save_network(tuned, paths.finetuned_net(super_index))
    return paths.finetuned_net(super_index)


def _compression_row(config: ExperimentConfig, paths: RunPaths, i: int, superclass: str) -> report_mod.CompressionRow:
    """Superclass i's pack measured against its specialist's network file,
    each by its length on disk, in either delta mode."""
    return report_mod.CompressionRow(
        superclass, config.delta_mode, paths.delta_file(i).stat().st_size, paths.finetuned_net(i).stat().st_size
    )


def cmd_pack(config: ExperimentConfig, super_index: int) -> tuple[Path, str]:
    """Compute, compress and store the delta for one specialist."""
    paths = RunPaths(config.out_dir)
    base = load_network(paths.super_net)
    specialist = load_network(paths.finetuned_net(super_index))
    pack = delta_mod.compute_delta(base, specialist, config.delta_mode, super_index)
    paths.delta_file(super_index).write_bytes(delta_mod.pack(pack))
    row = _compression_row(config, paths, super_index, str(super_index))
    summary = (
        f"superclass {super_index}: packed {row.packed_bytes} "
        f"reference {row.reference_bytes} ratio {row.ratio:.4f}"
    )
    return paths.delta_file(super_index), summary


def cmd_unpack(config: ExperimentConfig, super_index: int) -> Path:
    """Reconstruct a specialist network file from its stored delta."""
    paths = RunPaths(config.out_dir)
    base = load_network(paths.super_net)
    pack = delta_mod.unpack(paths.delta_file(super_index).read_bytes())
    head_dim = load_dataset(paths.test_data).manifest.subclass_count(super_index)
    specialist = delta_mod.reconstruct(base, pack, delta_mod.base_fingerprint_of(base), super_index, head_dim)
    save_network(specialist, paths.reconstructed_net(super_index))
    return paths.reconstructed_net(super_index)


def _load_specialists(path_of, manifest) -> dict[int, Network]:
    return {i: load_network(path_of(i)) for i in range(manifest.n_super)}


def cmd_eval(config: ExperimentConfig, mode: str) -> EvalResult:
    """Evaluate one mode over the test set and write its report files."""
    paths = RunPaths(config.out_dir)
    test_ds = load_dataset(paths.test_data)
    manifest = test_ds.manifest

    if mode == MODE_LOWERBOUND:
        net = load_network(paths.lower_net)
        result = runtime_mod.evaluate_lowerbound(net, test_ds)
    elif mode in (MODE_UPPERBOUND, MODE_UPPERBOUND_SCRATCH):
        path_of = paths.finetuned_net if mode == MODE_UPPERBOUND else paths.scratch_net
        result = runtime_mod.evaluate_upperbound(_load_specialists(path_of, manifest), test_ds, mode)
    elif mode == MODE_TWO_STAGE_VANILLA:
        specialists = _load_specialists(paths.finetuned_net, manifest)
        registry = ModelRegistry(load_network(paths.super_net), specialists, manifest)
        result = runtime_mod.evaluate_two_stage(registry, test_ds)
    elif mode == MODE_TWO_STAGE_EFFICIENT:
        base = load_network(paths.super_net)
        packed = {i: paths.delta_file(i).read_bytes() for i in range(manifest.n_super)}
        session = EfficientSession(base, packed, manifest)
        result = runtime_mod.evaluate_efficient(session, test_ds)
    else:
        raise ParameterError(f"unknown eval mode {mode!r}")

    paths.eval_csv(mode).write_text(report_mod.render_eval_csv(result.report), encoding="utf-8")
    paths.confusion_csv(mode).write_text(
        report_mod.render_confusion_csv(result.report.confusion, result.report.super_names),
        encoding="utf-8",
    )
    paths.confusion_pct_csv(mode).write_text(
        report_mod.render_confusion_percent(result.report.confusion, result.report.super_names),
        encoding="utf-8",
    )
    paths.predictions_csv(mode).write_text(
        report_mod.render_predictions_csv(test_ds.sub_labels, result.pred_supers, result.pred_subs),
        encoding="utf-8",
    )
    if result.ledger is not None:
        paths.ledger_csv(mode).write_text(
            report_mod.render_ledger_csv(result.ledger), encoding="utf-8"
        )
    return result


def cmd_report(config: ExperimentConfig) -> tuple[str, str]:
    """Render the cross-mode gap summary and the compression table."""
    paths = RunPaths(config.out_dir)
    test = load_dataset(paths.test_data)
    reports = [report_mod.read_predictions_csv(paths.predictions_csv(mode), mode, test) for mode in config.eval_modes]
    comp_rows = [_compression_row(config, paths, i, name) for i, name in enumerate(test.manifest.super_names())]

    gap_text, gap_csv = report_mod.gap_report(reports)
    comp_text, comp_csv = report_mod.compression_summary(comp_rows)
    text = gap_text + "\n" + comp_text
    paths.summary_txt.write_text(text, encoding="utf-8")
    paths.summary_csv.write_text(gap_csv, encoding="utf-8")
    paths.compression_csv.write_text(comp_csv, encoding="utf-8")
    return text, gap_csv


@dataclass
class ExperimentRun:
    """Everything a full pipeline pass produced, for tests and reporting."""

    config: ExperimentConfig
    paths: RunPaths
    results: dict[str, EvalResult] = field(default_factory=dict)
    pack_summaries: list[str] = field(default_factory=list)


def run_experiment(config: ExperimentConfig) -> ExperimentRun:
    """Run the whole pipeline for one config: data to summary files.

    The monolithic and the from-scratch networks, the baselines chain, are
    trained only when their eval modes (lowerbound, upperbound_scratch) are
    in the config; with two CPUs or more a forked helper trains them while
    this process trains the router chain (see the module docstring). An
    exception that stops either chain is raised here, and no helper process
    outlives the call.
    """
    run = ExperimentRun(config, RunPaths(config.out_dir))
    cmd_gen_data(config)
    n_super = load_dataset(run.paths.train_data).manifest.n_super
    baselines = ["lowerbound"] if MODE_LOWERBOUND in config.eval_modes else []
    if MODE_UPPERBOUND_SCRATCH in config.eval_modes:
        baselines += [f"sub:{i}" for i in range(n_super)]
    helper = reply = None
    if baselines and len(os.sched_getaffinity(0)) >= 2:
        fork = multiprocessing.get_context("fork")
        reply, sender = fork.Pipe(duplex=False)
        helper = fork.Process(target=_helper, args=(config, baselines, sender))
        helper.start()
        sender.close()  # so the helper's exit ends the pipe
    try:
        cmd_train(config, "super")
        for i in range(n_super):
            cmd_finetune(config, i)
            _, summary = cmd_pack(config, i)
            run.pack_summaries.append(summary)
        if helper is None:
            _train_each(config, baselines)
        else:
            _wait_for(helper, reply, baselines)
    finally:
        if helper is not None:
            helper.terminate()  # a no-op once it has been joined
            helper.join()
            reply.close()
    for mode in config.eval_modes:
        run.results[mode] = cmd_eval(config, mode)
    cmd_report(config)
    return run


def _train_each(config: ExperimentConfig, targets: list[str]) -> None:
    for target in targets:
        cmd_train(config, target)


def _wait_for(helper, reply, targets: list[str]) -> None:
    """Join the helper and raise the exception that stopped its chain, if any."""
    try:
        failure = reply.recv()
    except EOFError:  # it exited without sending
        helper.join()
        raise ChildProcessError(
            f"the process training {', '.join(targets)} exited with code {helper.exitcode} before reporting"
        ) from None
    helper.join()
    if failure is not None:
        raise failure


def _helper(config: ExperimentConfig, targets: list[str], sender) -> None:
    """The helper process: train targets, then send None or the exception
    that stopped them."""
    try:
        _train_each(config, targets)
    except Exception as exc:
        sender.send(exc)
    else:
        sender.send(None)
