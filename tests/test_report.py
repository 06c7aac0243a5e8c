"""Report renderers: deterministic bytes and published-figure arithmetic."""

import pytest

from supersub.errors import ContractError
from supersub.report import (
    CompressionRow,
    compression_summary,
    gap_report,
    render_confusion_csv,
    render_confusion_percent,
    render_eval_csv,
    render_ledger_csv,
)
from supersub.runtime import (
    MODE_LOWERBOUND,
    MODE_TWO_STAGE_VANILLA,
    MODE_UPPERBOUND,
    MODE_UPPERBOUND_SCRATCH,
    CostLedger,
    EvalReport,
)


def make_report(mode, macro, n_super=10, n_test=12650):
    names = tuple(f"class_{i}" for i in range(n_super))
    per = tuple(macro for _ in range(n_super))
    counts = tuple(n_test // n_super for _ in range(n_super))
    confusion = tuple(
        tuple(counts[i] if i == j else 0 for j in range(n_super)) for i in range(n_super)
    )
    return EvalReport(
        mode=mode,
        super_names=names,
        per_super_accuracy=per,
        per_super_counts=counts,
        macro_accuracy=macro,
        micro_accuracy=macro,
        confusion=confusion,
        n_test=n_test,
    )


class TestGapReport:
    def test_published_bound_gap_arithmetic(self):
        # Reference accuracies 71.18 (no oracle) and 75.07 (oracle):
        # the gap must render as +3.89 points and +5.47% relative.
        lower = make_report(MODE_LOWERBOUND, 71.18)
        upper = make_report(MODE_UPPERBOUND, 75.07)
        text, csv = gap_report([lower, upper])
        upper_row = next(line for line in csv.splitlines() if line.startswith("upperbound"))
        assert "+3.89" in upper_row
        assert "+5.47%" in upper_row
        assert "+3.89" in text and "+5.47%" in text

    def test_two_stage_improvement_renders_plus_3_30(self):
        lower = make_report(MODE_LOWERBOUND, 71.18)
        two_stage = make_report(MODE_TWO_STAGE_VANILLA, 74.48)
        _, csv = gap_report([lower, two_stage])
        row = next(line for line in csv.splitlines() if line.startswith("two_stage_vanilla"))
        assert "+3.30" in row

    def test_single_report_has_no_delta_columns(self):
        only = make_report(MODE_TWO_STAGE_VANILLA, 88.0)
        text, csv = gap_report([only])
        header = csv.splitlines()[0]
        assert header == "mode,macro_accuracy_pct"
        assert len(csv.splitlines()) == 2

    def test_mismatched_test_sizes_rejected(self):
        a = make_report(MODE_LOWERBOUND, 71.18, n_test=100)
        b = make_report(MODE_UPPERBOUND, 75.07, n_test=200)
        with pytest.raises(ContractError):
            gap_report([a, b])

    def test_byte_deterministic(self):
        reports = [make_report(MODE_LOWERBOUND, 71.18), make_report(MODE_UPPERBOUND, 75.07)]
        assert gap_report(reports) == gap_report(reports)

    def test_canonical_reference_preferred_over_variant(self):
        lower = make_report(MODE_LOWERBOUND, 71.18)
        scratch = make_report(MODE_UPPERBOUND_SCRATCH, 99.0)
        oracle = make_report(MODE_UPPERBOUND, 75.07)
        _, csv = gap_report([lower, scratch, oracle])
        lower_row = next(line for line in csv.splitlines() if line.startswith(MODE_LOWERBOUND))
        # deltas vs upperbound must reference the upperbound_oracle 75.07 report
        assert "-3.89" in lower_row


    def test_scratch_report_is_not_the_upper_reference(self):
        lower = make_report(MODE_LOWERBOUND, 71.18)
        scratch = make_report(MODE_UPPERBOUND_SCRATCH, 73.0)
        _, csv = gap_report([lower, scratch])
        assert csv.splitlines()[0] == "mode,macro_accuracy_pct,vs_lower_pts,vs_lower_rel_pct"
        assert csv.splitlines()[2].startswith("upperbound_scratch,73.00,+1.82")


class TestConfusionRendering:
    def test_percent_rendering_matches_count_matrix(self):
        # Row of 10000 birds: 9677 stay birds, 8 land in Car; the rendering
        # must show 96.77 and 0.08 exactly.
        names = ("Bird", "Car", "Other")
        confusion = ((9677, 8, 315), (0, 10000, 0), (0, 0, 10000))
        out = render_confusion_percent(confusion, names)
        bird_row = out.splitlines()[1]
        assert bird_row == "Bird,96.77,0.08,3.15"

    def test_count_grid_round_numbers(self):
        names = ("A", "B")
        out = render_confusion_csv(((3, 1), (0, 4)), names)
        assert out == "true\\pred,A,B\nA,3,1\nB,0,4\n"

    def test_zero_row_renders_zeros(self):
        out = render_confusion_percent(((0, 0), (1, 1)), ("A", "B"))
        assert out.splitlines()[1] == "A,0.00,0.00"


class TestEvalCsv:
    def test_structure_and_summary_block(self):
        report = make_report(MODE_LOWERBOUND, 71.18, n_super=2, n_test=100)
        out = render_eval_csv(report)
        lines = out.splitlines()
        assert lines[0] == "mode,superclass,accuracy_pct,n_test"
        assert lines[1].startswith("lowerbound,class_0,71.1800,")
        assert any(line.startswith("summary,macro_accuracy_pct,71.1800") for line in lines)
        assert any(line.startswith("summary,stage1_accuracy_pct,") for line in lines)


class TestLedgerCsv:
    def test_single_row(self):
        ledger = CostLedger(1234, 5678, 90, 3)
        out = render_ledger_csv(ledger)
        assert out == (
            "bytes_loaded,peak_resident_bytes,reconstruction_adds,specialist_switches\n"
            "1234,5678,90,3\n"
        )


class TestCompressionSummary:
    def test_average_is_mean_of_ratios(self):
        rows = [
            CompressionRow(f"s{i}", "fp16", packed, 1000)
            for i, packed in enumerate((400, 440, 480))
        ]
        text, csv = compression_summary(rows)
        assert "avg ratio 0.44" in text
        avg_line = next(line for line in csv.splitlines() if line.startswith("average"))
        assert avg_line.endswith("0.440000")

    def test_published_qat_average_renders(self):
        rows = [
            CompressionRow(f"s{i}", "qat-int", 200, 1000) for i in range(5)
        ]
        text, _ = compression_summary(rows)
        assert "avg ratio 0.20" in text

    def test_per_mode_averages_kept_separate(self):
        rows = [
            CompressionRow("a", "fp16", 440, 1000),
            CompressionRow("a", "qat-int", 200, 1000),
        ]
        _, csv = compression_summary(rows)
        averages = [line for line in csv.splitlines() if line.startswith("average")]
        assert len(averages) == 2
