"""Acceptance gate: every criterion at its stated tolerance, one line each.

Runs the pinned golden experiment (both delta-mode branches) into a fresh
directory, then asserts the eleven acceptance properties. Criterion 10
reruns the entire pipeline a second time and compares every artifact byte
for byte, plus against the hashes frozen in tests/golden/expected.json.
"""

import json

import numpy as np
import pytest

from golden_pipeline import EXPECTED_PATH, MACRO_WINDOW, branch_paths, collect_hashes, run_golden

from supersub.data import SyntheticSpec, deserialize_dataset, generate_synthetic, serialize_dataset
from supersub.delta import MODE_FP16, MODE_QAT_INT, compute_delta, pack, unpack
from supersub.errors import FormatError
from supersub.network import (
    NetworkConfig,
    deserialize_network,
    gradient_check,
    init_network,
    load_network,
    network_bytes,
    serialize_network,
    snap_to_grid,
)
from supersub.report import (
    CompressionRow,
    compression_summary,
    gap_report,
    render_confusion_percent,
)
from supersub.runtime import EfficientSession, evaluate_efficient
from supersub.tensor import Prng, gaussian_array
from test_report import make_report


def criterion(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{number:02d} {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="session")
def golden(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden_a")
    runs = run_golden(base)
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return base, runs, expected


def test_c01_gradient_correctness():
    rng = Prng(0xACCE97)
    worst = 0.0
    for trial in range(100):
        net = init_network(NetworkConfig((3, 3, 3)), seed=trial)
        batch = gaussian_array(rng, (5, 3))
        labels = [rng.next_u64() % 3 for _ in range(5)]
        worst = max(worst, gradient_check(net, batch, labels, eps=1e-4))
    criterion(1, worst < 1e-4, f"100 nets: max rel err {worst:.2e} < 1e-4")


def test_c02_stage1_near_oracle(golden):
    _, runs, _ = golden
    report = runs["fp16"].results["two_stage_vanilla"].report
    stage1 = report.stage1_accuracy
    total = sum(sum(row) for row in report.confusion)
    off_diag = total - sum(report.confusion[i][i] for i in range(len(report.confusion)))
    off_mass = 100.0 * off_diag / total
    criterion(
        2,
        stage1 >= 99.0 and off_mass <= 1.0,
        f"stage-1 accuracy {stage1:.2f}% >= 99, off-diagonal mass {off_mass:.2f}% <= 1",
    )


def test_c03_bound_gap(golden):
    _, runs, expected = golden
    lower = runs["fp16"].results["lowerbound"].report.macro_accuracy
    upper = runs["fp16"].results["upperbound_oracle"].report.macro_accuracy
    gap = upper - lower
    frozen_lower = expected["fp16_macro"]["lowerbound"]
    frozen_upper = expected["fp16_macro"]["upperbound_oracle"]
    criterion(
        3,
        gap >= 2.0 and abs(lower - frozen_lower) <= MACRO_WINDOW and abs(upper - frozen_upper) <= MACRO_WINDOW,
        f"upper {upper:.2f} - lower {lower:.2f} = {gap:.2f} >= 2.0, "
        f"within {MACRO_WINDOW} of frozen ({frozen_upper:.2f}/{frozen_lower:.2f})",
    )


def test_c04_gap_closure(golden):
    _, runs, _ = golden
    fp16 = runs["fp16"].results
    lower = fp16["lowerbound"].report.macro_accuracy
    upper = fp16["upperbound_oracle"].report.macro_accuracy
    two_stage = fp16["two_stage_vanilla"].report.macro_accuracy
    closure = (two_stage - lower) / (upper - lower) if upper > lower else 1.0
    criterion(
        4,
        upper >= two_stage >= lower and (two_stage - lower) >= 0.5 * (upper - lower),
        f"{upper:.2f} >= {two_stage:.2f} >= {lower:.2f}, closure {closure:.2f} >= 0.5",
    )


def test_c05_qat_exactness(golden):
    base, runs, _ = golden
    paths = branch_paths(base, "qat")
    vanilla = paths.predictions_csv("two_stage_vanilla").read_bytes()
    efficient = paths.predictions_csv("two_stage_efficient").read_bytes()
    recon_ok = all(
        paths.reconstructed_net(i).read_bytes() == paths.finetuned_net(i).read_bytes()
        for i in range(5)
    )
    criterion(
        5,
        vanilla == efficient and recon_ok,
        "qat-int predictions byte-identical, 5/5 reconstructed specialists bit-exact",
    )


def test_c06_fp16_fidelity(golden):
    _, runs, _ = golden
    vanilla = runs["fp16"].results["two_stage_vanilla"].report.macro_accuracy
    efficient = runs["fp16"].results["two_stage_efficient"].report.macro_accuracy
    diff = abs(vanilla - efficient)
    criterion(
        6,
        diff <= 0.5,
        f"fp16-reconstructed macro {efficient:.2f} within {diff:.2f} <= 0.5 of {vanilla:.2f}",
    )


def test_c07_compression_ordering(golden):
    base, _, _ = golden
    qat_paths = branch_paths(base, "qat")
    base_net = load_network(qat_paths.super_net)
    ordering_ok = True
    for i in range(5):
        specialist = load_network(qat_paths.finetuned_net(i))
        qat_bytes = len(qat_paths.delta_file(i).read_bytes())
        fp16_bytes = len(pack(compute_delta(base_net, specialist, MODE_FP16, i)))
        ordering_ok = ordering_ok and qat_bytes < fp16_bytes

    fp16_paths = branch_paths(base, "fp16")
    ratios = []
    for i in range(5):
        packed = len(fp16_paths.delta_file(i).read_bytes())
        reference = len(fp16_paths.finetuned_net(i).read_bytes())
        ratios.append(packed / reference)
    avg = sum(ratios) / len(ratios)
    comp_csv = fp16_paths.compression_csv.read_text(encoding="utf-8")
    reported = comp_csv.count("super_0") >= 1 and "average,fp16" in comp_csv
    criterion(
        7,
        ordering_ok and avg < 0.7 and reported,
        f"qat<fp16 for all 5 specialists, avg fp16 ratio {avg:.4f} < 0.7, per-superclass rows reported",
    )


def test_c08_memory_and_io(golden):
    base, runs, _ = golden
    paths = branch_paths(base, "qat")
    ledger = runs["qat"].results["two_stage_efficient"].ledger
    base_net = load_network(paths.super_net)
    vanilla_total = network_bytes(base_net) + sum(
        network_bytes(load_network(paths.finetuned_net(i))) for i in range(5)
    )
    frac = ledger.peak_resident_bytes / vanilla_total
    packed_sizes = {i: len(paths.delta_file(i).read_bytes()) for i in range(5)}
    # The golden test trace visits each superclass's block once, in order.
    trace_sum = sum(packed_sizes.values())
    exact_io = ledger.bytes_loaded == trace_sum

    # Replaying the same trace twice within one session doubles the charge
    # exactly (first and last routed superclasses differ on this trace).
    from supersub.data import load_dataset

    test_ds = load_dataset(paths.test_data)
    packed = {i: paths.delta_file(i).read_bytes() for i in range(5)}
    session = EfficientSession(base_net, packed, test_ds.manifest)
    evaluate_efficient(session, test_ds)
    once = session.ledger.bytes_loaded
    evaluate_efficient(session, test_ds)
    doubled = session.ledger.bytes_loaded == 2 * once
    criterion(
        8,
        frac < 0.40 and exact_io and doubled,
        f"peak {ledger.peak_resident_bytes} = {100 * frac:.1f}% of vanilla {vanilla_total} < 40%, "
        f"bytes_loaded {ledger.bytes_loaded} == sum of switched packs, replay doubles exactly",
    )


def test_c09_container_round_trips():
    rng = Prng(0xC9)
    checked = 0
    corruption_checked = 0

    def corrupt_and_expect_failure(blob: bytes, parser) -> None:
        nonlocal corruption_checked
        # Flip a CRC byte: must always surface as a format error.
        bad = bytearray(blob)
        bad[-1 - (rng.next_u64() % 4)] ^= 0xFF
        with pytest.raises(FormatError):
            parser(bytes(bad))
        corruption_checked += 1

    for trial in range(340):
        spec = SyntheticSpec(
            subs_per_super=tuple([2 + (trial + 1) % 3] * (2 + trial % 3)),
            dim=1 + trial % 5,
            super_sep=4.0 + trial % 7,
            sub_sep=0.5,
            noise_sigma=0.25,
            n_train_per_sub=trial % 4,
            n_test_per_sub=1,
            seed=trial * 7919,
        )
        train_ds, _ = generate_synthetic(spec)
        blob = serialize_dataset(train_ds)
        assert serialize_dataset(deserialize_dataset(blob)) == blob
        checked += 1
        if trial % 10 == 0:
            corrupt_and_expect_failure(blob, deserialize_dataset)

    for trial in range(330):
        dims = (2 + trial % 4, 3 + trial % 5, 2 + (trial + 1) % 4)
        net = init_network(NetworkConfig(dims), trial)
        if trial % 3 == 0:
            net = snap_to_grid(net)
        blob = serialize_network(net)
        assert serialize_network(deserialize_network(blob)) == blob
        checked += 1
        if trial % 10 == 0:
            corrupt_and_expect_failure(blob, deserialize_network)

    for trial in range(330):
        head = 2 + trial % 3
        a = init_network(NetworkConfig((3, 4, head)), trial)
        b = init_network(NetworkConfig((3, 4, head)), trial + 5000)
        if trial % 3 == 0:
            a = snap_to_grid(a)
            b = snap_to_grid(b, body_scales=a.quant.body_scales())
            d = compute_delta(a, b, MODE_QAT_INT, superclass_id=trial)
        else:
            d = compute_delta(a, b, MODE_FP16, superclass_id=trial)
        blob = pack(d)
        assert pack(unpack(blob)) == blob
        checked += 1
        if trial % 10 == 0:
            corrupt_and_expect_failure(blob, unpack)

    criterion(
        9,
        checked >= 1000 and corruption_checked >= 100,
        f"{checked} round trips bit-exact, {corruption_checked} corrupted checksums detected",
    )


def test_c10_pipeline_determinism(golden, tmp_path_factory):
    base_a, _, expected = golden
    base_b = tmp_path_factory.mktemp("golden_b")
    run_golden(base_b)
    hashes_a = collect_hashes(base_a)
    hashes_b = collect_hashes(base_b)
    rerun_identical = hashes_a == hashes_b
    pinned = expected["hashes"]
    matches_pinned = hashes_a == pinned
    criterion(
        10,
        rerun_identical and matches_pinned,
        f"{len(hashes_a)} artifacts byte-identical across reruns and equal to pinned hashes",
    )


def test_golden_delta_concentration(golden):
    # Weight deltas of every golden finetune concentrate around zero: at
    # least 98% of their mass lies within three standard deviations
    # (measured once on the reference run; the distribution is heavier
    # tailed than a Gaussian, so the classic 99.7% does not apply).
    base, _, _ = golden
    paths = branch_paths(base, "fp16")
    from test_delta import body_deltas

    for i in range(5):
        d = unpack(paths.delta_file(i).read_bytes())
        values = np.concatenate(
            [t.astype(np.float64).ravel() for name, t in body_deltas(d) if name.endswith(".weight")]
        )
        sigma = values.std()
        assert float((np.abs(values) <= 3 * sigma).mean()) >= 0.98


def test_golden_specialist_advantage(golden):
    # Finetuned specialists with oracle routing beat the monolithic
    # baseline on macro accuracy (per-superclass results are noisier at
    # desk scale; the advantage is an aggregate phenomenon).
    _, runs, _ = golden
    upper = runs["fp16"].results["upperbound_oracle"].report
    lower = runs["fp16"].results["lowerbound"].report
    assert upper.macro_accuracy > lower.macro_accuracy


def test_golden_router_approximates_oracle(golden):
    # With stage-1 nearly perfect, predicted routing costs at most 1.5
    # macro points against oracle routing over the same specialists.
    _, runs, _ = golden
    upper = runs["fp16"].results["upperbound_oracle"].report.macro_accuracy
    two_stage = runs["fp16"].results["two_stage_vanilla"].report.macro_accuracy
    assert two_stage >= upper - 1.5


def test_golden_fp16_ratios_under_point_six(golden):
    base, _, _ = golden
    paths = branch_paths(base, "fp16")
    for i in range(5):
        packed = len(paths.delta_file(i).read_bytes())
        reference = len(paths.finetuned_net(i).read_bytes())
        assert packed / reference < 0.6


@pytest.mark.parametrize("branch", ["fp16", "qat"])
def test_golden_compression_ratio_is_pack_over_specialist_file(golden, branch):
    # One storage unit in both delta modes: the pack file's length over the
    # length of its specialist's network file, as compression.csv prints it.
    base, _, _ = golden
    paths = branch_paths(base, branch)
    header, *rows = paths.compression_csv.read_text(encoding="utf-8").splitlines()
    assert header == "superclass,mode,packed_bytes,reference_bytes,ratio"
    rows = [row.split(",") for row in rows if not row.startswith("average,")]
    assert len(rows) == 5
    for i, row in enumerate(rows):
        packed = len(paths.delta_file(i).read_bytes())
        reference = len(paths.finetuned_net(i).read_bytes())
        assert row[2:] == [str(packed), str(reference), f"{packed / reference:.6f}"]


def test_c11_published_value_rendering():
    lower = make_report("lowerbound", 71.18)
    upper = make_report("upperbound_oracle", 75.07)
    two_stage = make_report("two_stage_vanilla", 74.48)
    _, csv = gap_report([lower, upper, two_stage])
    upper_row = next(r for r in csv.splitlines() if r.startswith("upperbound_oracle"))
    two_row = next(r for r in csv.splitlines() if r.startswith("two_stage_vanilla"))
    gap_ok = "+3.89" in upper_row and "+5.47%" in upper_row and "+3.30" in two_row

    confusion = ((9677, 8, 315), (0, 10000, 0), (0, 0, 10000))
    rendered = render_confusion_percent(confusion, ("Bird", "Car", "Other"))
    confusion_ok = rendered.splitlines()[1] == "Bird,96.77,0.08,3.15"

    plain = [CompressionRow(f"s{i}", "fp16", 440, 1000) for i in range(5)]
    qat = [CompressionRow(f"s{i}", "qat-int", 200, 1000) for i in range(5)]
    text, _ = compression_summary(plain + qat)
    ratios_ok = "avg ratio 0.44" in text and "avg ratio 0.20" in text

    criterion(
        11,
        gap_ok and confusion_ok and ratios_ok,
        "gap 3.89 pts / 5.47% rel, +3.30 two-stage, 96.77/0.08 confusion, 0.44/0.20 averages",
    )
