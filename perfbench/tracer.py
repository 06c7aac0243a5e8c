"""Span tracing of supersub's public functions, from outside the package.

`install` replaces each traced function at every binding a `supersub`
module holds (module globals and class attributes), so calls made through
`from .x import f` names are traced as well as calls through `module.f`.
Every call records one span: name, start, end, parent span and the id of
the query, batch or CLI stage it belongs to. Layer metrics are derived
from the spans when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np


def _shape(x):
    return np.shape(x)


def _matmul_flops(args, kwargs, out):
    m, k = _shape(args[0] if args else kwargs["a"])
    n = _shape(args[1] if len(args) > 1 else kwargs["b"])[1]
    return 2 * m * k * n, m == 1


def _forward_rows(args, kwargs, out):
    return _shape(args[1] if len(args) > 1 else kwargs["batch"])[0], False


def _arg0_len(args, kwargs, out):
    return len(args[0] if args else kwargs["data"]), False


def _out_len(args, kwargs, out):
    return len(out), False


# (module, attribute, span name, measure). An attribute "Class.method"
# names a method; several attributes may share one span name. A measure
# returns the span's work count (flops, bytes or rows) and whether the
# call was single-row.
TARGETS = [
    ("tensor", "matmul", "tensor.matmul", _matmul_flops),
    ("tensor", "ordered_axis0_sum", "tensor.ordered_axis0_sum", None),
    ("tensor", "gaussian_array", "tensor.gaussian_array", None),
    ("data", "generate_synthetic", "data.generate_synthetic", None),
    ("data", "load_dataset", "data.load_dataset", None),
    ("container", "crc32c", "container.crc32c", _arg0_len),
    ("container", "inflate", "container.inflate", _out_len),
    ("container", "deflate", "container.deflate", _arg0_len),
    ("network", "forward", "network.forward", _forward_rows),
    ("network", "backward", "network.backward", None),
    ("network", "sgd_step", "network.sgd_step", None),
    ("network", "load_network", "network.load_network", None),
    ("network", "serialize_network", "network.serialize_network", None),
    ("train", "train", "train.train", None),
    ("train", "finetune_from_super", "train.finetune_from_super", None),
    ("hierarchy", "HierarchyManifest.super_of", "hierarchy.super_of", None),
    ("delta", "unpack", "delta.unpack", None),
    ("delta", "reconstruct", "delta.reconstruct", None),
    ("delta", "base_fingerprint_of", "delta.base_fingerprint_of", None),
    ("delta", "compute_delta", "delta.compute_delta", None),
    ("delta", "pack", "delta.pack", None),
    ("runtime", "route_batch", "runtime.route_batch", None),
    ("runtime", "infer_efficient", "runtime.infer_efficient", None),
    ("runtime", "infer_vanilla", "runtime.infer_vanilla", None),
    ("runtime", "evaluate_efficient", "runtime.evaluate_efficient", None),
    ("runtime", "EfficientSession.specialist_for", "runtime.specialist_for", None),
    ("report", "render_eval_csv", "report.render", None),
    ("report", "render_confusion_csv", "report.render", None),
    ("report", "render_confusion_percent", "report.render", None),
    ("report", "render_ledger_csv", "report.render", None),
    ("report", "render_predictions_csv", "report.render", None),
    ("report", "gap_report", "report.render", None),
    ("report", "compression_summary", "report.render", None),
    ("experiment", "cmd_gen_data", "experiment.cmd_gen_data", None),
    ("experiment", "cmd_train", "experiment.cmd_train", None),
    ("experiment", "cmd_finetune", "experiment.cmd_finetune", None),
    ("experiment", "cmd_pack", "experiment.cmd_pack", None),
    ("experiment", "cmd_unpack", "experiment.cmd_unpack", None),
    ("experiment", "cmd_eval", "experiment.cmd_eval", None),
    ("experiment", "cmd_report", "experiment.cmd_report", None),
    ("cli", "main", "cli.main", None),
]
SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Spans are kept as parallel lists of scalars, one list per field and one
    index per span, so recording them creates no objects the garbage
    collector must track.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []  # index of the enclosing span, or -1
        self.request: list[str] = []  # query, batch or stage id
        self.extra: list[int] = []  # work count from the target's measure
        self.single: list[bool] = []  # a single-row call
        self.error: list[bool] = []  # raised
        self.child_time: list[float] = []  # time covered by direct children
        self.outer: list[bool] = []  # no enclosing span of the same name
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.request_id = "-"

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, name, fn, measure=None):
        self.depth[name] = 0
        names, starts, ends, parents, requests = self.name, self.start, self.end, self.parent, self.request
        extras, singles, errors, child_time, outer = self.extra, self.single, self.error, self.child_time, self.outer
        stack, depth = self.stack, self.depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            requests.append(self.request_id)
            outer.append(depth[name] == 0)
            child_time.append(0.0)
            errors.append(True)
            extras.append(0)
            singles.append(False)
            ends.append(0.0)
            stack.append(index)
            depth[name] += 1
            t0 = clock()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[name] -= 1
                stack.pop()
                ends[index] = t1
                if parent >= 0:
                    child_time[parent] += t1 - t0
            errors[index] = False
            if measure is not None:
                extras[index], singles[index] = measure(args, kwargs, out)
            return out

        return traced

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for row in zip(self.name, self.start, self.end, self.parent, self.request):
                f.write(json.dumps(row) + "\n")


def _holders():
    """Every supersub module, and every supersub class any of them binds."""
    mods = [m for n, m in sorted(sys.modules.items()) if n == "supersub" or n.startswith("supersub.")]
    for mod in mods:
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith("supersub."):
                yield value


def install(tracer: Tracer) -> list[str]:
    """Wrap every target at every supersub binding; returns self-check errors."""
    originals = {}
    for module, attr, name, measure in TARGETS:
        owner = sys.modules[f"supersub.{module}"]
        for part in attr.split("."):
            fn = getattr(owner, part)
            owner = fn
        originals[id(fn)] = (fn, tracer.wrap(name, fn, measure), f"{module}.{attr}")
    rebound = dict.fromkeys(originals, 0)
    for holder in _holders():
        for key, value in list(vars(holder).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(holder, key, hit[1])
                rebound[id(value)] += 1
    errors = [f"{label}: no supersub binding found"
              for key, (_, _, label) in originals.items() if rebound[key] == 0]
    return errors + self_check(originals)


def self_check(originals) -> list[str]:
    """Report any supersub binding that still holds an unwrapped target."""
    errors = []
    for holder in _holders():
        for key, value in vars(holder).items():
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                errors.append(f"{holder.__name__}.{key} still binds the unwrapped {hit[2]}")
    return errors


def calibrate_overhead(n: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op function."""
    def noop(*args):
        return None

    traced = Tracer().wrap("calibration", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop(1, 2)
    raw = clock() - t0
    t0 = clock()
    for _ in range(n):
        traced(1, 2)
    return max(0.0, (clock() - t0 - raw) / n)


def layer_metrics(tracer: Tracer, requests: str | tuple[str, ...] = "") -> dict[str, float]:
    """Counts, work, busy time, self time and errors per span name, over the
    spans whose request id starts with `requests`."""
    agg = {name: dict(calls=0, busy_s=0.0, self_s=0.0, errors=0, work=0, single=0) for name in SPAN_NAMES}
    for name, t0, t1, child, outer, error, extra, single, request in zip(
        tracer.name, tracer.start, tracer.end, tracer.child_time, tracer.outer,
        tracer.error, tracer.extra, tracer.single, tracer.request,
    ):
        if not request.startswith(requests):
            continue
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += t1 - t0 - child
        if outer:
            a["busy_s"] += t1 - t0
        a["errors"] += error
        a["work"] += extra
        a["single"] += single
    # A specialist_for call missed the one-slot cache when it unpacked a delta.
    misses = sum(1 for name, parent, request in zip(tracer.name, tracer.parent, tracer.request)
                 if name == "delta.unpack" and parent >= 0 and tracer.name[parent] == "runtime.specialist_for"
                 and request.startswith(requests))
    out = {}
    for name, a in agg.items():
        for measure in ("calls", "busy_s", "self_s", "errors"):
            out[f"{name}.{measure}"] = a[measure]
    out["tensor.matmul.flops"] = agg["tensor.matmul"]["work"]
    out["tensor.matmul.single_row_calls"] = agg["tensor.matmul"]["single"]
    out["container.crc32c.bytes"] = agg["container.crc32c"]["work"]
    out["container.inflate.bytes_out"] = agg["container.inflate"]["work"]
    out["container.deflate.bytes_in"] = agg["container.deflate"]["work"]
    out["network.forward.rows"] = agg["network.forward"]["work"]
    calls = agg["runtime.specialist_for"]["calls"]
    out["runtime.specialist_for.hit_share"] = (calls - misses) / calls if calls else 0.0
    out["trace.spans"] = sum(a["calls"] for a in agg.values())
    return out
