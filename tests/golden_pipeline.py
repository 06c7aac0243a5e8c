"""Shared machinery for running and fingerprinting the golden experiment.

Used by the acceptance suite and by tools/freeze_goldens.py so both sides
produce the identical artifact set: the two branch pipelines plus the
reconstructed specialist files from cmd_unpack.
"""

import hashlib
from pathlib import Path

from supersub.experiment import RunPaths, cmd_unpack, load_config, run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent
FP16_CONFIG = REPO_ROOT / "configs" / "golden_fp16.json"
QAT_CONFIG = REPO_ROOT / "configs" / "golden_qat.json"
EXPECTED_PATH = REPO_ROOT / "tests" / "golden" / "expected.json"
# C03: points a bound's macro accuracy may drift from its frozen value.
MACRO_WINDOW = 0.5


def run_golden(base_dir: Path):
    """Run both golden branches into base_dir/{fp16,qat}; returns the runs."""
    runs = {}
    for name, config_path in (("fp16", FP16_CONFIG), ("qat", QAT_CONFIG)):
        config = load_config(config_path, out_dir_override=str(base_dir / name))
        run = run_experiment(config)
        for i in range(config.synthetic.n_super):
            cmd_unpack(config, i)
        runs[name] = run
    return runs


def collect_hashes(base_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact file, keyed by branch-relative path."""
    hashes = {}
    for branch in ("fp16", "qat"):
        root = base_dir / branch
        for path in sorted(root.iterdir()):
            if path.is_file():
                hashes[f"{branch}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def branch_paths(base_dir: Path, branch: str) -> RunPaths:
    return RunPaths(str(base_dir / branch))
