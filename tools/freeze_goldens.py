#!/usr/bin/env python3
"""Run the golden experiment once and freeze its reference values.

Writes tests/golden/expected.json: macro accuracies per mode, compression
numbers, ledger counters, and SHA-256 hashes of every artifact. The
acceptance suite asserts against these frozen values; regenerate only when
the pipeline is intentionally changed, and review the diff, which is printed
before the file is replaced: every artifact whose hash moved, old -> new
for every other value that changed, and each macro accuracy's drift from
the file being replaced, marked within or outside C03's window. A refreeze
that changes the pipeline on purpose shows C03 against the values frozen
before it, not against its own new goldens.

Note: artifact hashes are exact for reruns in the same environment;
across numpy/zlib builds the accuracy values are covered by the published
tolerances instead.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from golden_pipeline import EXPECTED_PATH, MACRO_WINDOW, branch_paths, collect_hashes, run_golden  # noqa: E402

from supersub.delta import MODE_FP16, compute_delta, pack  # noqa: E402
from supersub.network import load_network, network_bytes  # noqa: E402


def leaves(value, path: str = "") -> dict:
    """Every scalar of a JSON document, keyed by its dotted path."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return {path: value}
    out = {}
    for key, child in children:
        out.update(leaves(child, f"{path}.{key}" if path else str(key)))
    return out


def print_changes(old: dict, new: dict) -> None:
    """Print each moved hash key, then old -> new for each other changed value."""
    old_hashes, new_hashes = old.get("hashes", {}), new["hashes"]
    moved = sorted(k for k in old_hashes.keys() | new_hashes.keys() if old_hashes.get(k) != new_hashes.get(k))
    for key in moved:
        print(f"moved hash: {key}")
    old_values = leaves({k: v for k, v in old.items() if k != "hashes"})
    new_values = leaves({k: v for k, v in new.items() if k != "hashes"})
    changed = sorted(k for k in old_values.keys() | new_values.keys() if old_values.get(k) != new_values.get(k))
    for key in changed:
        print(f"{key}: {old_values.get(key, 'absent')} -> {new_values.get(key, 'absent')}")
    print(f"{len(moved)} of {len(new_hashes)} hashes moved; {len(changed)} of {len(new_values)} other values changed")
    for branch in ("fp16_macro", "qat_macro"):
        for mode, value in sorted(new[branch].items()):
            before = old.get(branch, {}).get(mode)
            if before is None:
                print(f"{branch}.{mode}: {value:.2f}, nothing frozen before")
                continue
            drift = value - before
            where = "within" if abs(drift) <= MACRO_WINDOW else "OUTSIDE"
            print(f"{branch}.{mode}: {before:.2f} -> {value:.2f}, drift {drift:+.2f}, {where} C03's {MACRO_WINDOW}-point window")


def main() -> int:
    # The run directories are scratch: removed when the run ends, failed or not.
    with tempfile.TemporaryDirectory(prefix="golden_freeze_") as tmp:
        return freeze(Path(tmp))


def freeze(base: Path) -> int:
    """Run the golden pipeline into base and freeze its values."""
    runs = run_golden(base)

    fp16 = {mode: res.report.macro_accuracy for mode, res in runs["fp16"].results.items()}
    qat = {mode: res.report.macro_accuracy for mode, res in runs["qat"].results.items()}
    stage1 = runs["fp16"].results["two_stage_vanilla"].report.stage1_accuracy

    qat_paths = branch_paths(base, "qat")
    qat_supers = range(runs["qat"].config.synthetic.n_super)
    base_net = load_network(qat_paths.super_net)
    specialists = {i: load_network(qat_paths.finetuned_net(i)) for i in qat_supers}
    qat_packed = [len(qat_paths.delta_file(i).read_bytes()) for i in qat_supers]
    qat_refs = [len(qat_paths.finetuned_net(i).read_bytes()) for i in qat_supers]
    qat_ratios = [p / r for p, r in zip(qat_packed, qat_refs)]
    fp16_of_same = [len(pack(compute_delta(base_net, specialists[i], MODE_FP16, i))) for i in qat_supers]
    vanilla_total = network_bytes(base_net) + sum(network_bytes(n) for n in specialists.values())

    fp16_paths = branch_paths(base, "fp16")
    fp16_supers = range(runs["fp16"].config.synthetic.n_super)
    fp16_packed = [len(fp16_paths.delta_file(i).read_bytes()) for i in fp16_supers]
    fp16_refs = [len(fp16_paths.finetuned_net(i).read_bytes()) for i in fp16_supers]
    fp16_ratios = [p / r for p, r in zip(fp16_packed, fp16_refs)]

    ledger = runs["qat"].results["two_stage_efficient"].ledger

    expected = {
        "fp16_macro": fp16,
        "qat_macro": qat,
        "stage1_accuracy": stage1,
        "fp16_packed_sizes": fp16_packed,
        "fp16_ratios": fp16_ratios,
        "qat_packed_sizes": qat_packed,
        "qat_ratios": qat_ratios,
        "fp16_packed_of_qat_finetunes": fp16_of_same,
        "qat_vanilla_total_bytes": vanilla_total,
        "qat_ledger": {
            "bytes_loaded": ledger.bytes_loaded,
            "peak_resident_bytes": ledger.peak_resident_bytes,
            "reconstruction_adds": ledger.reconstruction_adds,
            "specialist_switches": ledger.specialist_switches,
        },
        "hashes": collect_hashes(base),
    }
    old = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")) if EXPECTED_PATH.exists() else {}
    print_changes(old, expected)
    EXPECTED_PATH.parent.mkdir(parents=True, exist_ok=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"froze goldens to {EXPECTED_PATH}")
    print(f"fp16 macro: { {k: round(v, 2) for k, v in fp16.items()} }")
    print(f"qat macro: { {k: round(v, 2) for k, v in qat.items()} }")
    print(f"gap: {fp16['upperbound_oracle'] - fp16['lowerbound']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
