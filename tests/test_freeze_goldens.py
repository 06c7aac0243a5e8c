"""tools/freeze_goldens.py's diff: moved hashes, changed values and each
macro accuracy's drift against C03's window."""

import importlib.util

from golden_pipeline import REPO_ROOT

_spec = importlib.util.spec_from_file_location("freeze_goldens", REPO_ROOT / "tools" / "freeze_goldens.py")
freeze_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(freeze_goldens)


def test_macro_drift_is_marked_against_the_window(capsys):
    old = {
        "fp16_macro": {"lowerbound": 60.6, "upperbound_oracle": 64.3},
        "qat_macro": {"two_stage_vanilla": 64.3},
        "hashes": {"fp16/super.hsnw": "aa", "qat/super.hsnw": "bb"},
    }
    new = {
        "fp16_macro": {"lowerbound": 60.2, "upperbound_oracle": 64.9},
        "qat_macro": {"two_stage_vanilla": 64.3, "two_stage_efficient": 64.0},
        "hashes": {"fp16/super.hsnw": "aa", "qat/super.hsnw": "cc"},
    }
    freeze_goldens.print_changes(old, new)
    lines = capsys.readouterr().out.splitlines()
    assert "moved hash: qat/super.hsnw" in lines
    assert "moved hash: fp16/super.hsnw" not in lines
    assert "fp16_macro.lowerbound: 60.60 -> 60.20, drift -0.40, within C03's 0.5-point window" in lines
    assert "fp16_macro.upperbound_oracle: 64.30 -> 64.90, drift +0.60, OUTSIDE C03's 0.5-point window" in lines
    assert "qat_macro.two_stage_vanilla: 64.30 -> 64.30, drift +0.00, within C03's 0.5-point window" in lines
    assert "qat_macro.two_stage_efficient: 64.00, nothing frozen before" in lines
