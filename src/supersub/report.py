"""Deterministic text and CSV renderings of evaluation results.

Every renderer formats floats with explicit precision and iterates in
manifest order, so identical inputs produce byte-identical output.
`read_predictions_csv` rebuilds a mode's report from its predictions CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ContractError, ValidationError
from .runtime import MODE_LOWERBOUND, MODE_UPPERBOUND, CostLedger, EvalReport, build_report


def render_eval_csv(report: EvalReport) -> str:
    lines = ["mode,superclass,accuracy_pct,n_test"]
    for name, acc, count in zip(
        report.super_names, report.per_super_accuracy, report.per_super_counts
    ):
        lines.append(f"{report.mode},{name},{acc:.4f},{count}")
    lines.append(f"summary,macro_accuracy_pct,{report.macro_accuracy:.4f},{report.n_test}")
    lines.append(f"summary,micro_accuracy_pct,{report.micro_accuracy:.4f},{report.n_test}")
    lines.append(f"summary,stage1_accuracy_pct,{report.stage1_accuracy:.4f},{report.n_test}")
    return "\n".join(lines) + "\n"


def render_confusion_csv(confusion, names) -> str:
    lines = ["true\\pred," + ",".join(names)]
    for name, row in zip(names, confusion):
        lines.append(name + "," + ",".join(str(int(c)) for c in row))
    return "\n".join(lines) + "\n"


def render_confusion_percent(confusion, names) -> str:
    """Row-normalized rendering: each cell is percent of that true class."""
    lines = ["true\\pred," + ",".join(names)]
    for name, row in zip(names, confusion):
        total = sum(int(c) for c in row)
        if total:
            cells = [f"{100.0 * int(c) / total:.2f}" for c in row]
        else:
            cells = ["0.00" for _ in row]
        lines.append(name + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def render_ledger_csv(ledger: CostLedger) -> str:
    return (
        "bytes_loaded,peak_resident_bytes,reconstruction_adds,specialist_switches\n"
        f"{ledger.bytes_loaded},{ledger.peak_resident_bytes},"
        f"{ledger.reconstruction_adds},{ledger.specialist_switches}\n"
    )


def render_predictions_csv(true_subs, pred_supers, pred_subs) -> str:
    lines = ["row,true_sub,pred_super,pred_sub"]
    for i, (t, ps, pb) in enumerate(zip(true_subs, pred_supers, pred_subs)):
        lines.append(f"{i},{int(t)},{int(ps)},{int(pb)}")
    return "\n".join(lines) + "\n"


def read_predictions_csv(path: Path, mode: str, test: Dataset) -> EvalReport:
    """mode's report rebuilt from its predictions CSV at path and the test
    set it predicts. Only a file eval writes is accepted: a row per test row,
    render_predictions_csv of what was read giving back the text read (so
    its true labels are test's), and each predicted subclass inside its
    predicted superclass; any other file is a ValidationError."""
    try:
        text = path.read_text(encoding="utf-8")
        rows = [line.split(",") for line in text.split("\n")[1:-1]]
        pred_supers = np.array([int(row[2]) for row in rows], dtype=np.int64)
        pred_subs = np.array([int(row[3]) for row in rows], dtype=np.int64)
        if (
            len(rows) == len(test.sub_labels)  # the renderer zips its columns
            and render_predictions_csv(test.sub_labels, pred_supers, pred_subs) == text
            and np.array_equal(test.manifest.super_of(pred_subs), pred_supers)
        ):
            return build_report(mode, test.manifest, test.sub_labels, pred_supers, pred_subs)
    except (IndexError, ValueError, OverflowError):
        pass
    raise ValidationError(f"predictions CSV {path} is not the file eval writes for {mode}")


def gap_report(reports: list[EvalReport]) -> tuple[str, str]:
    """Accuracy table with absolute and relative deltas against the bounds.

    Returns (aligned text, csv). Delta columns appear only when a
    lowerbound / upperbound_oracle report is present; deltas are printed both as
    accuracy-point differences and as percent changes relative to the
    reference accuracy.
    """
    if not reports:
        raise ContractError("gap_report needs at least one report")
    n_test = reports[0].n_test
    for r in reports:
        if r.n_test != n_test:
            raise ContractError(
                f"reports disagree on test size: {r.mode} has {r.n_test}, expected {n_test}"
            )
    lower = next((r for r in reports if r.mode == MODE_LOWERBOUND), None)
    upper = next((r for r in reports if r.mode == MODE_UPPERBOUND), None)

    header = ["mode", "macro_accuracy_pct"]
    if lower is not None:
        header += ["vs_lower_pts", "vs_lower_rel_pct"]
    if upper is not None:
        header += ["vs_upper_pts", "vs_upper_rel_pct"]

    rows: list[list[str]] = []
    for r in reports:
        row = [r.mode, f"{r.macro_accuracy:.2f}"]
        if lower is not None:
            row += _delta_cells(r.macro_accuracy, lower.macro_accuracy)
        if upper is not None:
            row += _delta_cells(r.macro_accuracy, upper.macro_accuracy)
        rows.append(row)

    csv = "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"

    widths = [max(len(header[c]), *(len(row[c]) for row in rows)) for c in range(len(header))]
    text_lines = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(header))]
    for row in rows:
        text_lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
    return "\n".join(text_lines) + "\n", csv


def _delta_cells(value: float, reference: float) -> list[str]:
    diff = value - reference
    rel = 100.0 * diff / reference if reference else 0.0
    return [f"{diff:+.2f}", f"{rel:+.2f}%"]


@dataclass(frozen=True)
class CompressionRow:
    superclass: str
    mode: str
    packed_bytes: int  # the pack file's length
    reference_bytes: int  # the length of the specialist's own network file

    @property
    def ratio(self) -> float:
        return self.packed_bytes / self.reference_bytes


def compression_summary(rows: list[CompressionRow]) -> tuple[str, str]:
    """Per-superclass compression ratios plus their plain average.

    Returns (text, csv). The average line is the mean of the per-superclass
    ratios, mirroring a dashed average line over a per-superclass bar chart.
    """
    if not rows:
        raise ContractError("compression_summary needs at least one row")
    lines = ["superclass,mode,packed_bytes,reference_bytes,ratio"]
    by_mode: dict[str, list[float]] = {}
    for row in rows:
        lines.append(
            f"{row.superclass},{row.mode},{row.packed_bytes},{row.reference_bytes},{row.ratio:.6f}"
        )
        by_mode.setdefault(row.mode, []).append(row.ratio)
    text_lines = []
    for mode in sorted(by_mode):
        avg = sum(by_mode[mode]) / len(by_mode[mode])
        lines.append(f"average,{mode},,,{avg:.6f}")
        text_lines.append(f"avg ratio {avg:.2f} ({mode}, {len(by_mode[mode])} superclasses)")
    csv = "\n".join(lines) + "\n"
    text = "\n".join(text_lines) + "\n"
    return text, csv
