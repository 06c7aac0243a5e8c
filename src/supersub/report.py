"""Deterministic text and CSV renderings of evaluation results.

Every renderer formats floats with explicit precision and iterates in
manifest order, so identical inputs produce byte-identical output.
`parse_eval_csv` reads an eval CSV back for `supersub report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ContractError, ValidationError
from .runtime import MODE_LOWERBOUND, MODE_UPPERBOUND, CostLedger, EvalReport


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


def parse_eval_csv(path: Path, mode: str) -> EvalReport:
    """Rebuild mode's aggregate report from its eval CSV at path, with no
    confusion matrix, which the file does not hold. Only a file
    render_eval_csv writes is accepted: a row per superclass, every number
    finite, and the report rendering back to the text read, byte for byte;
    any other file is a ValidationError."""
    try:
        text = path.read_text(encoding="utf-8")
        *rows, macro, micro, stage1 = [line.split(",") for line in text.split("\n")[1:-1]]
        report = EvalReport(
            mode=mode,
            super_names=tuple(row[1] for row in rows),
            per_super_accuracy=tuple(float(row[2]) for row in rows),
            per_super_counts=tuple(int(row[3]) for row in rows),
            macro_accuracy=float(macro[2]),
            micro_accuracy=float(micro[2]),
            stage1_accuracy=float(stage1[2]),
            confusion=None,
            n_test=int(macro[3]),
        )
        numbers = (*report.per_super_accuracy, report.macro_accuracy, report.micro_accuracy, report.stage1_accuracy)
        if rows and all(map(math.isfinite, numbers)) and render_eval_csv(report) == text:
            return report
    except (IndexError, ValueError):
        pass
    raise ValidationError(f"eval CSV {path} is not the file eval writes for {mode}")


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
