"""supersub benchmark: one training pipeline and two serving streams.

Run from the repository root:

    python3 perfbench/run.py --workload serve_switch --seed 1 --seconds 3 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 3 --trace 0

Every workload trains its artifacts (timed as pipeline_s), sets up the two
serving engines from them several times (setup_s), then serves a seeded
query stream from one client in a closed loop: phase (a) efficient and
phase (b) vanilla, one query at a time, and phase (c) efficient batches of
100 rows. The stream is replayed until at least --seconds of serving time has
been measured. Times are normalised to a reference machine speed (see
speed.py). --trace 1 serves the stream once, with every traced supersub
function wrapped (see tracer.py), and prints per-layer metrics.
The metric names and units come from BENCHMARK.json. The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

import speed
import streams
import tracer as tracer_mod

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"

# stream: ("iid",) or ("local", runs); phase (c) serves the stream's first batch_rows rows.
WORKLOADS = {
    "pipeline_fp16": dict(config="golden_fp16.json", stream=("local", 24), queries=1500, batch_rows=1500),
    "serve_switch": dict(config="golden_qat.json", stream=("iid",), queries=1000, batch_rows=200),
}
BATCH_ROWS = 100
# Times each phase serves the stream within one pass. The vanilla engine
# keeps no state and its latencies lie close together, so a machine hiccup
# in one query of a hundred would set its p99; phase (c) has few, short
# batches. Both are served twice and each unit keeps its faster time.
REPEATS = {"a": 1, "b": 2, "c": 2}
SETUP_REPEATS = 7
GOLDEN_SEED = 99
QAT_SETUP_FILES = ["train.hsds", "test.hsds", "super.hsnw", "loss_super.csv"] + [
    f"{kind}_{i}.{ext}" for kind, ext in (("ft", "hsnw"), ("delta", "hsdl")) for i in range(5)
]
# Per-layer spans that a workload must record at least once.
NOT_ON_SERVE = {"experiment.cmd_unpack", "experiment.cmd_eval", "experiment.cmd_report", "report.render", "cli.main"}
EXACT_SUFFIXES = (".calls", ".errors", ".flops", ".single_row_calls", ".bytes", ".bytes_out", ".bytes_in", ".rows")


class Outcome:
    """Operations attempted and failed, plus every problem found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(what)

    def problem(self, what: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(what)


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_supersub():
    """Import supersub from this checkout's src/, never from elsewhere."""
    needed = ["src/supersub/__init__.py", "configs/golden_fp16.json", "configs/golden_qat.json",
              "tests/golden/expected.json", "BENCHMARK.json"]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        fail_setup("not a supersub checkout; missing " + ", ".join(missing))
    sys.path.insert(0, str(ROOT / "src"))
    import supersub
    from supersub import cli, container, data, delta, experiment, hierarchy, network, report, runtime, tensor, train  # noqa: F401

    if Path(supersub.__file__).resolve().parent != (ROOT / "src" / "supersub").resolve():
        fail_setup(f"imported supersub from {supersub.__file__}, not from this checkout")
    return supersub


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_hash() -> str:
    h = hashlib.sha256()
    for pattern in ("src/supersub/*.py", "configs/*.json", "tests/golden/expected.json", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return dict(
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        numpy=np.__version__,
        zlib=zlib.ZLIB_RUNTIME_VERSION,
        loadavg_start=os.getloadavg()[0],
    )


class Bench:
    def __init__(self, ss, workload: str, seed: int, seconds: int, trace: bool, work: Path):
        self.ss = ss
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = tracer_mod.Tracer() if trace else None
        self.meter: speed.SpeedMeter | None = None
        self.work = work
        self.out = Outcome()
        self.qat = self.spec["config"] == "golden_qat.json"
        self.config_path = ROOT / "configs" / self.spec["config"]
        self.expected = json.loads((ROOT / "tests" / "golden" / "expected.json").read_text())
        self.n_super = len(json.loads(self.config_path.read_text())["synthetic"]["subs_per_super"])

    def request(self, rid: str) -> None:
        if self.trace is not None:
            self.trace.request_id = rid

    # --- pipeline -----------------------------------------------------------------

    def pipeline(self) -> None:
        """Train and pack the workload's artifacts into self.work."""
        if self.qat:
            self.qat_build()
        else:
            self.cli_pipeline()

    def cli_pipeline(self) -> None:
        cli = self.ss.cli
        verbs = [["run"]] + [["unpack", str(i)] for i in range(self.n_super)]
        for verb in verbs:
            self.request("cli:" + " ".join(verb))
            argv = ["--config", str(self.config_path), "--out", str(self.work), "--seed", str(self.seed), *verb]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
            except Exception as exc:
                rc = f"{type(exc).__name__}: {exc}"
            self.out.op(rc == 0, f"supersub {' '.join(verb)} exited {rc}")

    def qat_build(self) -> None:
        exp = self.ss.experiment
        config = exp.load_config(self.config_path, out_dir_override=str(self.work))
        stages = [("gen-data", lambda: exp.cmd_gen_data(config)),
                  ("train super", lambda: exp.cmd_train(config, "super"))]
        for i in range(self.n_super):
            stages.append((f"finetune {i}", lambda i=i: exp.cmd_finetune(config, i)))
            stages.append((f"pack {i}", lambda i=i: exp.cmd_pack(config, i)))
        for label, stage in stages:
            self.request("cmd:" + label)
            try:
                stage()
                self.out.op(True, label)
            except Exception as exc:
                self.out.op(False, f"{label} raised {type(exc).__name__}: {exc}")

    # --- output checks ------------------------------------------------------------

    def check_artifacts(self) -> dict[str, str]:
        """Compare artifact hashes with the pinned goldens where they apply."""
        files = {p.name: sha256_file(p) for p in sorted(self.work.iterdir()) if p.is_file()}
        if self.qat:
            prefix, names = "qat/", QAT_SETUP_FILES
        elif self.seed == GOLDEN_SEED:
            prefix, names = "fp16/", None
        else:
            return files
        pinned = {k[len(prefix):]: v for k, v in self.expected["hashes"].items()
                  if k.startswith(prefix) and (names is None or k[len(prefix):] in names)}
        if set(files) != set(pinned):
            self.out.problem(f"artifact set differs from the pinned {prefix}* set: "
                             f"extra {sorted(set(files) - set(pinned))}, missing {sorted(set(pinned) - set(files))}")
        bad = sorted(n for n in pinned if files.get(n) != pinned[n])
        if bad:
            env = environment()
            self.out.problem(f"{len(bad)} of {len(pinned)} pinned {prefix}* hashes differ ({', '.join(bad[:6])}); "
                             f"goldens hold for one numpy/zlib build, this is numpy {env['numpy']} zlib {env['zlib']}")
        return files

    def reread_containers(self) -> None:
        ss = self.ss
        self.request("check:reread")
        readers = {".hsds": ss.data.load_dataset, ".hsnw": ss.network.load_network,
                   ".hsdl": lambda p: ss.delta.unpack(p.read_bytes())}
        for path in sorted(self.work.iterdir()):
            if path.suffix in readers:
                try:
                    readers[path.suffix](path)
                except Exception as exc:
                    self.out.problem(f"{path.name} does not re-read: {type(exc).__name__}: {exc}")

    # --- serving ------------------------------------------------------------------

    def serving_state(self) -> dict:
        ss = self.ss
        paths = ss.experiment.RunPaths(str(self.work))
        test = ss.data.load_dataset(paths.test_data)
        manifest = test.manifest
        base = ss.network.load_network(paths.super_net)
        packed = {i: paths.delta_file(i).read_bytes() for i in range(manifest.n_super)}
        specialists = {i: ss.network.load_network(paths.finetuned_net(i)) for i in range(manifest.n_super)}
        return dict(
            test=test, base=base, packed=packed, specialists=specialists,
            registry=ss.runtime.ModelRegistry(base, specialists, manifest),
            # Built only so that work a session does when it starts counts as set-up.
            session=ss.runtime.EfficientSession(base, packed, manifest),
        )

    def session(self, st):
        return self.ss.runtime.EfficientSession(st["base"], st["packed"], st["test"].manifest)

    def references(self, st) -> dict:
        """Whole-test-set predictions every served query is checked against."""
        rt = self.ss.runtime
        test = st["test"]
        self.request("check:reference")
        vanilla = rt.evaluate_two_stage(st["registry"], test)
        efficient = rt.evaluate_efficient(self.session(st), test)
        oracle = rt.evaluate_upperbound(st["specialists"], test)
        true_supers = test.super_labels()
        routed_ok = vanilla.pred_supers == true_supers
        if not np.array_equal(oracle.pred_subs[routed_ok], vanilla.pred_subs[routed_ok]):
            self.out.problem("oracle and vanilla disagree on correctly routed rows")
        if self.qat and not np.array_equal(efficient.pred_subs, vanilla.pred_subs):
            self.out.problem("qat-int efficient predictions differ from vanilla on the test set")
        return dict(routed=vanilla.pred_supers, vanilla=vanilla.pred_subs,
                    efficient=vanilla.pred_subs if self.qat else efficient.pred_subs)

    def make_stream(self, test) -> list[int]:
        supers = test.super_labels()
        rows_by_super = [np.flatnonzero(supers == s).tolist() for s in range(test.manifest.n_super)]
        prng = streams.SplitMix64(streams.stream_seed(self.name, self.seed))
        kind = self.spec["stream"]
        if kind[0] == "iid":
            return streams.iid_stream(prng, rows_by_super, self.spec["queries"])
        return streams.local_stream(prng, rows_by_super, self.spec["queries"], kind[1])

    def tick(self) -> None:
        """Probe the machine speed between two timed units, if one is due."""
        if self.meter:
            self.meter.tick_if_due()

    def explicit_probes(self):
        """Probe only between units, never inside one, while serving."""
        return self.meter.explicit() if self.meter else contextlib.nullcontext()

    def timed(self, lat: list, rid: str, fn):
        """Run one timed unit and append its (start, end), or NaNs if it raised."""
        self.tick()
        self.request(rid)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            lat.append((np.nan, np.nan))
            self.out.op(False, f"{rid} raised {type(exc).__name__}: {exc}")
            return None
        lat.append((t0, time.perf_counter()))
        return out

    def serve_pass(self, st, ref, stream) -> tuple[dict, dict]:
        """Phase (a) and phase (b) over the stream, then phase (c) batches.

        Returns the ledger counts and the (start, end) of every timed query
        and batch, by phase, repetition-major.
        """
        rt = self.ss.runtime
        features, labels, manifest = st["test"].features, st["test"].sub_labels, st["test"].manifest
        eff = self.session(st)
        engines = {"a": lambda x: rt.infer_efficient(eff, x)[:2], "b": lambda x: rt.infer_vanilla(st["registry"], x)}
        served = []
        rows_c = stream[: self.spec["batch_rows"]]
        lat = {"a": [], "b": [], "c": []}
        batch_sessions = []
        for phase, infer in engines.items():
            want = ref["efficient" if phase == "a" else "vanilla"]
            for _ in range(REPEATS[phase]):
                for q, row in enumerate(stream):
                    got = self.timed(lat[phase], f"{phase}:{q}", lambda: infer(features[row]))
                    if got is not None:
                        self.out.op(got == (ref["routed"][row], want[row]),
                                    f"query {q} phase {phase}: served {got}, "
                                    f"expected ({ref['routed'][row]}, {want[row]})")
                        served.append(got[1])

        for _ in range(REPEATS["c"]):
            batch = self.session(st)
            batch_sessions.append(batch)
            for b in range(0, len(rows_c), BATCH_ROWS):
                idx = rows_c[b : b + BATCH_ROWS]
                ds = self.ss.data.Dataset(features[idx], labels[idx], manifest)
                result = self.timed(lat["c"], f"c:{b // BATCH_ROWS}", lambda: rt.evaluate_efficient(batch, ds))
                if result is not None:
                    self.out.op(np.array_equal(result.pred_subs, ref["efficient"][idx]),
                                f"batch {b // BATCH_ROWS}: predictions differ from the whole-test-set reference")
                    served.extend(result.pred_subs.tolist())

        if len({(b.ledger.specialist_switches, b.ledger.reconstruction_adds) for b in batch_sessions}) != 1:
            self.out.problem("repeated phase (c) passes charged different ledgers")
        batch = batch_sessions[0]
        counts = dict(
            switches_a=eff.ledger.specialist_switches, bytes_a=eff.ledger.bytes_loaded,
            adds_a=eff.ledger.reconstruction_adds, peak_a=eff.ledger.peak_resident_bytes,
            switches_c=batch.ledger.specialist_switches, adds_c=batch.ledger.reconstruction_adds,
            batches=len(rows_c) // BATCH_ROWS,
            served=hashlib.sha256(np.asarray(served, dtype=np.int64).tobytes()).hexdigest(),
        )
        for key, rows in (("switches_a", stream), ("switches_c", rows_c)):
            routed = ref["routed"][rows]
            want = 1 + int(np.count_nonzero(routed[1:] != routed[:-1]))
            if counts[key] != want:
                self.out.problem(f"{key} = {counts[key]}, but the routed stream changes superclass {want} times")
        pinned_peak = self.expected["qat_ledger"]["peak_resident_bytes"]
        if self.qat and counts["peak_a"] != pinned_peak:
            self.out.problem(f"peak_resident_bytes {counts['peak_a']} != pinned {pinned_peak}")
        return counts, lat

    # --- the run ------------------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        """Untraced runs keep a SpeedMeter running while anything is timed."""
        self.meter = None if self.trace is not None else speed.SpeedMeter()
        with self.meter or contextlib.nullcontext():
            timed = self.measure()
        if not timed:
            return {}, {}
        return self.summarise(self.meter, **timed)

    def measure(self) -> dict:
        clock = time.perf_counter
        t_start = clock()
        self.pipeline()
        pipeline = (t_start, clock())
        if self.out.failed:
            return {}
        artifacts = self.check_artifacts()
        self.reread_containers()

        setups = []
        with self.explicit_probes():
            for k in range(SETUP_REPEATS):
                self.tick()
                self.request(f"setup:{k}")
                t0 = clock()
                st = self.serving_state()
                setups.append((t0, clock()))
        ref = self.references(st)
        stream = self.make_stream(st["test"])

        lat = {"a": [], "b": [], "c": []}
        passes = []
        t0 = clock()
        while not passes or (self.trace is None and clock() - t0 < self.seconds):
            with self.explicit_probes():
                counts, spans = self.serve_pass(st, ref, stream)
            passes.append(counts)
            for phase, phase_spans in spans.items():
                lat[phase] += phase_spans
        if any(p != passes[0] for p in passes):
            self.out.problem("serving passes over the same stream charged different ledgers")
        return dict(pipeline=pipeline, setups=setups, lat=lat, counts=passes[0], passes=len(passes),
                    stream=stream, artifacts=artifacts, serve_wall=clock() - t0, run_wall=clock() - t_start)

    def summarise(self, meter, pipeline, setups, lat, counts, passes, stream, artifacts, serve_wall, run_wall):

        def seconds(spans):
            raw = np.asarray([b - a for a, b in spans])
            return (raw, raw) if meter is None else (raw, meter.normalise(spans))

        raw_pipeline, (pipeline_s,) = seconds([pipeline])
        raw_setup, setup = seconds(setups)
        raw_eff, eff = seconds(lat["a"])
        raw_van, van = seconds(lat["b"])
        _, batch = seconds(lat["c"])
        # Each unit of a repeated phase keeps its fastest repetition.
        van = np.nanmin(van.reshape(passes * REPEATS["b"], -1), axis=0)
        batch = np.nanmin(batch.reshape(passes * REPEATS["c"], -1), axis=0)
        n = len(stream)
        info = dict(
            stream_sha256=streams.stream_hash(self.name, stream), queries=n, passes=passes,
            realised_miss_share=counts["switches_a"] / n, serve_wall_s=serve_wall, run_wall_s=run_wall,
            raw_pipeline_s=float(raw_pipeline[0]), raw_setup_s=float(np.median(raw_setup)),
            raw_efficient_p50_ms=float(np.nanmedian(raw_eff)) * 1e3,
            raw_vanilla_p50_ms=float(np.nanmedian(raw_van)) * 1e3,
            digest=hashlib.sha256(json.dumps([artifacts, counts], sort_keys=True).encode()).hexdigest(),
        )
        if meter is not None:
            info["speed_factor_median"] = float(np.median(meter.factor(meter.at)))
        metrics = dict(
            setup_s=float(np.median(setup)),
            pipeline_s=float(pipeline_s),
            efficient_p50_ms=float(np.nanpercentile(eff, 50)) * 1e3,
            efficient_p99_ms=float(np.nanpercentile(eff, 99)) * 1e3,
            efficient_qps=float(np.count_nonzero(eff == eff) / np.nansum(eff)),
            vanilla_p50_ms=float(np.nanpercentile(van, 50)) * 1e3,
            vanilla_p99_ms=float(np.nanpercentile(van, 99)) * 1e3,
            batch_rows_per_s=float(BATCH_ROWS * np.count_nonzero(batch == batch) / np.nansum(batch)),
            bytes_loaded_per_query=counts["bytes_a"] / n,
            peak_resident_bytes=counts["peak_a"],
            max_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            ok_share=1 - self.out.failed / self.out.attempted,
        )
        metrics.update({
            "runtime.ledger.specialist_switches": counts["switches_a"] + counts["switches_c"],
            "runtime.ledger.reconstruction_adds": counts["adds_a"] + counts["adds_c"],
            "runtime.ledger.switches_per_batch": counts["switches_c"] / counts["batches"],
        })
        return metrics, info


def compare_record(out: Outcome, key: str, field: str, value) -> None:
    """Fail if an earlier run of the same code and seed recorded another value."""
    path = STATE / "records" / f"{key}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    if field in record and record[field] != value:
        old = record[field]
        diff = sorted(k for k in old if old.get(k) != value.get(k)) if isinstance(old, dict) else []
        out.problem(f"{field} differs from an earlier run of the same code and seed ({path.name}) {diff[:8]}")
        return
    record[field] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))


def add_traced_metrics(bench: Bench, metrics: dict, info: dict, key: str, untraced_walls: list[float]) -> None:
    """Add the per-layer metrics of a traced run, after its self-checks."""
    out = bench.out
    metrics.update(tracer_mod.layer_metrics(bench.trace))
    stages = tracer_mod.layer_metrics(bench.trace, ("cli:", "cmd:"))
    print("pipeline stages only: " + " ".join(f"{k}={stages[k]}" for k in (
        "tensor.matmul.calls", "tensor.ordered_axis0_sum.calls", "container.crc32c.calls",
        "container.crc32c.bytes", "container.crc32c.busy_s", "tensor.matmul.busy_s")))
    metrics["trace.overhead_share"] = tracer_mod.calibrate_overhead() * len(bench.trace) / info["run_wall_s"]
    expected = set(tracer_mod.SPAN_NAMES) - (NOT_ON_SERVE if bench.qat else set())
    for name in sorted(expected):
        if metrics[f"{name}.calls"] == 0:
            out.problem(f"traced function {name} recorded no calls on {bench.name}")
    exact = {k: v for k, v in metrics.items()
             if k.endswith(EXACT_SUFFIXES) or k.startswith("runtime.ledger.") or k == "trace.spans"}
    compare_record(out, key, "counts", exact)
    if untraced_walls:
        base = statistics.median(untraced_walls)
        print(f"trace overhead: run wall {info['run_wall_s']:.3f} s traced vs {base:.3f} s untraced "
              f"(median of {len(untraced_walls)} same-code runs): {100 * (info['run_wall_s'] / base - 1):+.1f}%")
    bench.trace.write(STATE / "traces" / f"{bench.name}.jsonl")


def run_workload(args) -> int:
    ss = import_supersub()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    trace = bool(args.trace)
    work = STATE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(ss, args.workload, args.seed, args.seconds, trace, work)
    out = bench.out
    try:
        if trace:
            for err in tracer_mod.install(bench.trace):
                out.problem(f"wrapper self-check: {err}")
        metrics, info = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()[0]
    code = code_hash()[:16]
    key = f"{args.workload}-s{args.seed}-{code}"
    walls = STATE / "records" / f"{args.workload}-{code}-untraced-walls.json"
    history = json.loads(walls.read_text()) if walls.exists() else []

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if info:
        print("run " + " ".join(f"{k}={v}" for k, v in info.items()))
        compare_record(out, key, "digest", info["digest"])
    if trace and info:
        add_traced_metrics(bench, metrics, info, key, history)
    elif info:
        walls.write_text(json.dumps(history[-19:] + [info["run_wall_s"]]))

    wanted = spec["per_layer" if trace else "end_to_end"]
    result = {}
    for m in wanted:
        if m["name"] in metrics:
            result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        elif info:
            out.problem(f"metric {m['name']} was not measured")
    for name, v in result.items():
        print(f"metric {name} {v['value']} {v['unit']}")
    for p in out.problems:
        print(f"problem: {p}", file=sys.stderr)
        print(f"problem: {p}")
    correct = not out.problems and out.failed == 0 and bool(info)
    print(json.dumps({"correct": correct, "attempted": max(out.attempted, 1), "failed": out.failed,
                      "metrics": result}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            print(f"{name}: exited {proc.returncode} without a result")
            ok = False
            continue
        ok &= result["correct"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"   {metric:45s} {v['value']:>16.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
