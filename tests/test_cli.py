"""CLI verbs, exit codes, and stdout contracts."""

import json
from dataclasses import replace

import pytest

from conftest import body_mutations, mini_spec, with_fixed_crc
from supersub.cli import main
from supersub.data import generate_synthetic, save_dataset
from supersub.experiment import RunPaths, load_config
from test_experiment import config_doc


@pytest.fixture()
def config_path(tmp_path):
    doc = config_doc(tmp_path / "run", epochs=4)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture()
def qat_config_path(tmp_path):
    doc = config_doc(tmp_path / "run", delta_mode="qat-int", epochs=4)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_gen_data_exit_zero(config_path, capsys):
    assert main(["--config", str(config_path), "gen-data"]) == 0
    assert "wrote" in capsys.readouterr().out


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json"), "gen-data"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "non_utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"seed": "\xff"}')
    assert main(["--config", str(path), "gen-data"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1}', encoding="utf-8")
    assert main(["--config", str(bad), "gen-data"]) == 2


@pytest.mark.parametrize(
    "keys, value",
    [
        (("seed",), "abc"),
        (("train", "lr"), "fast"),
        (("synthetic", "n_super"), 5),
        (("train",), []),
        (("train", "finetune"), 3),
        (("synthetic",), [1]),
        (("network",), "wide"),
        (("eval_modes",), 5),
        (("eval_modes",), [["lowerbound"]]),
        (("eval_modes",), []),
        (("eval_modes",), ["lowerbound", "lowerbound"]),
        (("network", "hidden_dims"), "64"),
        (("network", "hidden_dims"), [0]),
        (("network", "hidden_dims"), [-3]),
        (("network", "hidden_dims"), []),
        (("synthetic", "subs_per_super"), "44"),
        (("qat_bits",), 8),
        (("network", "batchnorm"), True),
        (("network", "batchnorms"), False),
        (("network", "batchnorm"), "false"),
        (("train", "epochs"), 2.7),
        (("train", "epochs"), True),
        (("train", "lr"), "0.01"),
        (("synthetic", "noise_sigma"), float("nan")),
        (("out_dir",), None),
        (("out_dir",), 5),
        (("train", "lr"), -0.01),
        (("train", "batch_size"), 0),
        (("train", "epochs"), -1),
        (("dataset",), {"train": "missing/train.hsds", "test": "missing/test.hsds"}),
    ],
    ids=[
        "seed_text", "lr_text", "n_super_removed", "train_list", "stage_number", "synthetic_list",
        "network_text", "eval_modes_number", "eval_mode_list", "eval_modes_empty",
        "eval_modes_repeated", "hidden_dims_text", "hidden_dims_zero", "hidden_dims_negative", "hidden_dims_empty",
        "subs_per_super_text", "qat_bits_unknown", "batchnorm_removed", "batchnorms_typo", "batchnorm_text",
        "epochs_fraction", "epochs_bool", "lr_numeric_text", "noise_sigma_nan", "out_dir_null", "out_dir_number",
        "lr_negative", "batch_size_0", "epochs_negative", "synthetic_and_dataset",
    ],
)
def test_malformed_config_value_exits_2(tmp_path, monkeypatch, capsys, keys, value):
    monkeypatch.chdir(tmp_path)  # a relative out_dir such as "None" would land here
    doc = config_doc(tmp_path / "run", epochs=4)
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "gen-data"]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_three_stage_train_blocks_exit_2(tmp_path, capsys):
    # The train block is one recipe; a config still holding a block per
    # stage fails on the first stage's name, not on a missing lr.
    doc = config_doc(tmp_path / "run", epochs=4)
    doc["train"] = {stage: doc["train"] for stage in ("superclass", "subclass", "finetune")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "gen-data"]) == 2
    err = capsys.readouterr().err
    assert "train holds unknown key 'superclass'" in err and "Traceback" not in err


def test_train_before_gen_data_exits_2(config_path):
    assert main(["--config", str(config_path), "train", "super"]) == 2


def test_invalid_superclass_index_exits_2(config_path):
    assert main(["--config", str(config_path), "gen-data"]) == 0
    assert main(["--config", str(config_path), "train", "super"]) == 0
    assert main(["--config", str(config_path), "finetune", "9"]) == 2


@pytest.mark.parametrize("text", ["+1", " 1", "1 ", "1_0", "01", "1.0", "", "x", "-1", "2"])
def test_train_sub_index_spelled_otherwise_exits_2(config_path, capsys, text):
    # Only the index as str(i) spells it names a superclass, so each one
    # writes one sub_<i>.hsnw and one loss CSV.
    assert main(["--config", str(config_path), "gen-data"]) == 0
    capsys.readouterr()
    assert main(["--config", str(config_path), "train", f"sub:{text}"]) == 2
    err = capsys.readouterr().err
    assert ("out of range" if text in ("-1", "2") else "must be an integer") in err and "Traceback" not in err
    assert not list(RunPaths(load_config(config_path).out_dir).root.glob("*sub_*"))


@pytest.mark.parametrize(
    "steps, verb, missing",
    [
        ([], ["finetune", "0"], lambda p: p.super_net),
        ([["train", "super"]], ["pack", "0"], lambda p: p.finetuned_net(0)),
        ([["train", "super"], ["finetune", "0"]], ["unpack", "0"], lambda p: p.delta_file(0)),
        (
            [["train", "super"], ["finetune", "0"], ["finetune", "1"], ["pack", "0"], ["pack", "1"]],
            ["eval", "two_stage_efficient"],
            lambda p: p.delta_file(1),
        ),
        ([["train", "sub:0"], ["train", "sub:1"]], ["eval", "upperbound_scratch"], lambda p: p.scratch_net(0)),
        ([], ["report"], lambda p: p.predictions_csv("lowerbound")),
    ],
    ids=["finetune_before_super", "pack_without_ft", "unpack_without_delta", "eval_efficient", "eval_scratch",
         "report"],
)
def test_missing_artifact_exits_2(config_path, capsys, steps, verb, missing):
    for argv in (["gen-data"], *steps):
        assert main(["--config", str(config_path)] + argv) == 0, argv
    path = missing(RunPaths(load_config(config_path).out_dir))
    path.unlink(missing_ok=True)
    capsys.readouterr()
    assert main(["--config", str(config_path)] + verb) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_pack_prints_ratio_matching_compression_ratio(qat_config_path, capsys):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    capsys.readouterr()
    assert main(["--config", str(qat_config_path), "pack", "0"]) == 0
    out = capsys.readouterr().out

    paths = RunPaths(load_config(qat_config_path).out_dir)
    expected = len(paths.delta_file(0).read_bytes()) / len(paths.finetuned_net(0).read_bytes())
    assert f"ratio {expected:.4f}" in out


def test_unpack_reconstructs_bit_identical(qat_config_path):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["pack", "0"], ["unpack", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    from supersub.experiment import load_config

    paths = RunPaths(load_config(qat_config_path).out_dir)
    assert paths.reconstructed_net(0).read_bytes() == paths.finetuned_net(0).read_bytes()


def test_corrupted_delta_exits_3(qat_config_path, capsys):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["pack", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    from supersub.experiment import load_config

    paths = RunPaths(load_config(qat_config_path).out_dir)
    blob = bytearray(paths.delta_file(0).read_bytes())
    blob[-1] ^= 0xFF
    paths.delta_file(0).write_bytes(bytes(blob))
    assert main(["--config", str(qat_config_path), "unpack", "0"]) == 3
    assert "integrity" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["delta", "router"])
def test_rejected_body_mutants_exit_3(qat_config_path, capsys, target):
    # Seeded body mutants of delta_0.hsdl or super.hsnw that the library
    # rejects: unpack reports each one as an integrity error, no traceback.
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["pack", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    from supersub.delta import base_fingerprint_of, reconstruct, unpack
    from supersub.errors import BaseMismatchError, FormatError
    from supersub.network import deserialize_network, load_network

    paths = RunPaths(load_config(qat_config_path).out_dir)
    base = load_network(paths.super_net)
    path = paths.delta_file(0) if target == "delta" else paths.super_net
    rejected = 0
    for mutant in body_mutations(path.read_bytes(), 40, seed=0xC11 + len(target)):
        try:
            if target == "delta":
                reconstruct(base, unpack(mutant), base_fingerprint_of(base), 0, 2)
            else:
                deserialize_network(mutant)
        except (FormatError, BaseMismatchError):
            rejected += 1
        else:
            continue  # read back: not a failure
        path.write_bytes(mutant)
        capsys.readouterr()
        assert main(["--config", str(qat_config_path), "unpack", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("integrity error:") and "Traceback" not in err, err
    assert rejected >= 10, rejected


@pytest.mark.parametrize(
    "old, new",
    [
        (b'"super_00"', b'"\xffuper_00"'),  # not UTF-8
        (b'"super_00/sub_01"', b'"super_00/sub_00"'),  # duplicate subclass name
    ],
    ids=["non_utf8", "duplicate_subclass"],
)
def test_corrupted_dataset_manifest_exits_3(config_path, capsys, old, new):
    assert main(["--config", str(config_path), "gen-data"]) == 0
    path = RunPaths(load_config(config_path).out_dir).train_data
    data = path.read_bytes()
    assert old in data
    path.write_bytes(with_fixed_crc(data.replace(old, new, 1)))
    assert main(["--config", str(config_path), "train", "super"]) == 3
    assert "integrity" in capsys.readouterr().err


def test_out_of_range_label_exits_3(config_path, capsys):
    assert main(["--config", str(config_path), "gen-data"]) == 0
    path = RunPaths(load_config(config_path).out_dir).train_data
    data = path.read_bytes()
    at = len(data) - 8  # the last label, just before the CRC
    path.write_bytes(with_fixed_crc(data[:at] + (999).to_bytes(4, "little") + data[at + 4 :]))
    assert main(["--config", str(config_path), "train", "super"]) == 3
    assert "integrity" in capsys.readouterr().err


def test_overflowing_delta_shape_exits_3(qat_config_path, capsys):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["pack", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    from test_delta import overflowing_shape_pack

    path = RunPaths(load_config(qat_config_path).out_dir).delta_file(0)
    path.write_bytes(overflowing_shape_pack(path.read_bytes()))
    assert main(["--config", str(qat_config_path), "unpack", "0"]) == 3
    assert "integrity" in capsys.readouterr().err


def test_trailing_bytes_in_delta_exit_3(qat_config_path, capsys):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["pack", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    from test_delta import trailing_junk_pack

    path = RunPaths(load_config(qat_config_path).out_dir).delta_file(0)
    path.write_bytes(trailing_junk_pack(path.read_bytes()))
    assert main(["--config", str(qat_config_path), "unpack", "0"]) == 3
    assert "integrity" in capsys.readouterr().err


def test_misfit_delta_entry_exits_3(qat_config_path, capsys):
    # A well-formed pack whose config drops the base's second hidden layer.
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["pack", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    from supersub.delta import pack, unpack
    from supersub.network import NetworkConfig, tensor_shapes

    path = RunPaths(load_config(qat_config_path).out_dir).delta_file(0)
    d = unpack(path.read_bytes())
    names = [name for name, _ in tensor_shapes(d.config)]
    tensors = tuple(t for name, t in zip(names, d.tensors) if not name.startswith("layer1."))
    config = NetworkConfig((*d.config.layer_dims[:2], d.config.head_dim))
    path.write_bytes(pack(replace(d, config=config, tensors=tensors)))
    assert main(["--config", str(qat_config_path), "unpack", "0"]) == 3
    assert "base's body" in capsys.readouterr().err


def test_wrong_grid_scale_exits_3(qat_config_path, capsys):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["pack", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    from supersub.delta import pack, unpack

    path = RunPaths(load_config(qat_config_path).out_dir).delta_file(0)
    d = unpack(path.read_bytes())
    path.write_bytes(pack(replace(d, head_scales=(0.0, d.head_scales[1]))))
    assert main(["--config", str(qat_config_path), "unpack", "0"]) == 3
    assert "integrity" in capsys.readouterr().err


def test_incomplete_quant_block_exits_3(qat_config_path, capsys):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    from supersub.network import load_network
    from test_network import quant_block_at

    path = RunPaths(load_config(qat_config_path).out_dir).super_net
    data = path.read_bytes()
    scale = quant_block_at(load_network(path).config) + 2  # the first scale, after the flag and the bits
    # One scale short: every later byte of the file shifts by four.
    path.write_bytes(with_fixed_crc(data[:scale] + data[scale + 4 :]))
    assert main(["--config", str(qat_config_path), "pack", "0"]) == 3
    assert "integrity" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["non_finite", "off_grid"])
def test_pack_against_corrupt_router_exits_3(qat_config_path, capsys, edit):
    # A router file whose first weight is NaN, or one float32 step off its
    # recorded grid, with the CRC re-fixed: an integrity error at load.
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    import numpy as np

    from supersub.network import load_network
    from test_network import with_first_value

    path = RunPaths(load_config(qat_config_path).out_dir).super_net
    base = load_network(path)
    first = base.tensors[0].flat[0]
    path.write_bytes(with_first_value(base, np.nan if edit == "non_finite" else np.nextafter(first, np.inf)))
    capsys.readouterr()
    assert main(["--config", str(qat_config_path), "pack", "0"]) == 3
    assert "integrity" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["unpack", "0"], ["eval", "two_stage_efficient"]], ids=["unpack", "eval"])
def test_swapped_delta_files_exit_3(config_path, capsys, verb):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["finetune", "1"],
                 ["pack", "0"], ["pack", "1"]):
        assert main(["--config", str(config_path)] + argv) == 0
    paths = RunPaths(load_config(config_path).out_dir)
    first, second = paths.delta_file(0).read_bytes(), paths.delta_file(1).read_bytes()
    paths.delta_file(0).write_bytes(second)
    paths.delta_file(1).write_bytes(first)
    capsys.readouterr()
    assert main(["--config", str(config_path)] + verb) == 3
    assert "superclass 1, not 0" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["unpack", "0"], ["eval", "two_stage_efficient"]], ids=["unpack", "eval"])
def test_delta_with_another_head_width_exits_3(config_path, capsys, verb):
    # A well-formed pack for superclass 0 whose head is one class wider than
    # the superclass's two subclasses.
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["finetune", "1"],
                 ["pack", "0"], ["pack", "1"]):
        assert main(["--config", str(config_path)] + argv) == 0
    import numpy as np

    from supersub.delta import pack, unpack

    paths = RunPaths(load_config(config_path).out_dir)
    d = unpack(paths.delta_file(0).read_bytes())
    weight, bias = d.tensors[-2:]
    head = (np.vstack([weight, weight[:1]]), np.append(bias, bias[:1]))
    wide = replace(d, config=d.config.with_head(d.config.head_dim + 1), tensors=(*d.tensors[:-2], *head))
    paths.delta_file(0).write_bytes(pack(wide))
    capsys.readouterr()
    assert main(["--config", str(config_path)] + verb) == 3
    err = capsys.readouterr().err
    assert "head of width 3, not 2" in err and "Traceback" not in err
    assert not paths.reconstructed_net(0).exists()


@pytest.mark.parametrize("verb", [["unpack", "0"], ["eval", "two_stage_vanilla"]], ids=["unpack", "eval"])
def test_zero_width_router_layer_exits_3(config_path, capsys, verb):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["finetune", "1"], ["pack", "0"]):
        assert main(["--config", str(config_path)] + argv) == 0
    from test_network import plain_network_bytes

    RunPaths(load_config(config_path).out_dir).super_net.write_bytes(plain_network_bytes((8, 0, 16, 2)))
    assert main(["--config", str(config_path)] + verb) == 3
    assert "integrity" in capsys.readouterr().err


@pytest.mark.parametrize("at", [10], ids=["fp16_mode"])
def test_invalid_qat_block_in_delta_exits_3(qat_config_path, capsys, at):
    # Zero the header's mode byte: fp16 deltas carry no head scales.
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["pack", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    path = RunPaths(load_config(qat_config_path).out_dir).delta_file(0)
    data = path.read_bytes()
    path.write_bytes(with_fixed_crc(data[:at] + b"\x00" + data[at + 1 :]))
    assert main(["--config", str(qat_config_path), "unpack", "0"]) == 3
    assert "integrity" in capsys.readouterr().err


def test_fp16_overflow_exits_2(config_path, capsys):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"]):
        assert main(["--config", str(config_path)] + argv) == 0
    import numpy as np

    from supersub.network import Network, load_network, save_network, tensor_items

    path = RunPaths(load_config(config_path).out_dir).finetuned_net(0)
    net = load_network(path)
    tensors = [np.full_like(t, 1e6) if name == "layer0.bn_var" else t for name, t, _ in tensor_items(net)]
    save_network(Network(net.config, tuple(tensors)), path)
    capsys.readouterr()
    assert main(["--config", str(config_path), "pack", "0"]) == 2
    err = capsys.readouterr().err
    assert "layer0.bn_var" in err and "qat-int" in err and "Traceback" not in err


def test_stale_base_exits_3(qat_config_path, capsys):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["pack", "0"]):
        assert main(["--config", str(qat_config_path)] + argv) == 0
    # Retrain the router with a different seed: the stored delta goes stale.
    assert main(["--config", str(qat_config_path), "--seed", "31337", "train", "super"]) == 0
    assert main(["--config", str(qat_config_path), "unpack", "0"]) == 3


def test_eval_and_report_flow(config_path, capsys):
    verbs = (
        ["gen-data"],
        ["train", "super"],
        ["train", "lowerbound"],
        ["finetune", "0"],
        ["finetune", "1"],
        ["pack", "0"],
        ["pack", "1"],
        ["eval", "lowerbound"],
        ["eval", "upperbound_oracle"],
        ["eval", "two_stage_vanilla"],
        ["eval", "two_stage_efficient"],
        ["report"],
    )
    for argv in verbs:
        assert main(["--config", str(config_path)] + argv) == 0, argv
    out = capsys.readouterr().out
    assert "macro" in out
    assert "avg ratio" in out


def test_eval_rerun_byte_identical(config_path):
    for argv in (["gen-data"], ["train", "super"], ["finetune", "0"], ["finetune", "1"],
                 ["eval", "upperbound_oracle"]):
        assert main(["--config", str(config_path)] + argv) == 0
    from supersub.experiment import load_config

    paths = RunPaths(load_config(config_path).out_dir)
    first = paths.eval_csv("upperbound_oracle").read_bytes()
    assert main(["--config", str(config_path), "eval", "upperbound_oracle"]) == 0
    assert paths.eval_csv("upperbound_oracle").read_bytes() == first


def lowerbound_config(tmp_path, **synthetic):
    """A config whose run plan is the lowerbound mode alone, with the
    synthetic block's values overridden by synthetic."""
    doc = config_doc(tmp_path / "run", epochs=3, eval_modes=["lowerbound"])
    doc["synthetic"].update(synthetic)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _edit_cell(lines, row, column, edit):
    cells = lines[row].split(",")
    cells[column] = edit(cells[column])
    lines[row] = ",".join(cells)


@pytest.mark.parametrize(
    "edit",
    ["non_number", "huge_number", "true_label_changed", "last_row_dropped", "repeated_row",
     "reformatted_number", "other_header", "sub_in_other_super", "super_out_of_range"],
)
def test_malformed_predictions_csv_exits_2(tmp_path, capsys, edit):
    # report accepts only the bytes eval writes for the test set, each
    # predicted subclass inside its predicted superclass; each edit breaks that.
    path = lowerbound_config(tmp_path)
    assert main(["--config", str(path), "run"]) == 0
    csv = RunPaths(load_config(path).out_dir).predictions_csv("lowerbound")
    lines = csv.read_text(encoding="utf-8").splitlines()  # row,true_sub,pred_super,pred_sub
    if edit == "non_number":
        _edit_cell(lines, 1, 3, lambda cell: "abc")
    elif edit == "huge_number":
        _edit_cell(lines, 1, 3, lambda cell: str(2**64))  # past int64
    elif edit == "true_label_changed":
        _edit_cell(lines, 1, 1, lambda cell: str(int(cell) ^ 1))  # the other subclass of its superclass
    elif edit == "last_row_dropped":
        del lines[-1]
    elif edit == "repeated_row":
        lines.insert(2, lines[1])
    elif edit == "reformatted_number":
        _edit_cell(lines, 1, 3, lambda cell: "0" + cell)
    elif edit == "other_header":
        lines[0] = "row,true_sub,pred_super,pred_subclass"
    elif edit == "sub_in_other_super":
        _edit_cell(lines, 1, 3, lambda cell: str((int(cell) + 2) % 4))  # 2 superclasses of 2 subclasses
    else:
        _edit_cell(lines, 1, 2, lambda cell: "2")
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(path), "report"]) == 2
    err = capsys.readouterr().err
    assert str(csv) in err and "Traceback" not in err


def test_report_ignores_the_eval_csv(tmp_path, capsys):
    # An eval CSV that disagrees with its predictions (names the hierarchy
    # lacks, a macro that is not the mean of its rows) changes nothing report
    # prints or writes: every number comes from the predictions.
    path = lowerbound_config(tmp_path)
    assert main(["--config", str(path), "run"]) == 0
    paths = RunPaths(load_config(path).out_dir)
    capsys.readouterr()
    assert main(["--config", str(path), "report"]) == 0
    before = (capsys.readouterr().out, paths.summary_txt.read_bytes(), paths.summary_csv.read_bytes())
    n_test = paths.eval_csv("lowerbound").read_text(encoding="utf-8").splitlines()[-1].split(",")[3]
    paths.eval_csv("lowerbound").write_text(
        "mode,superclass,accuracy_pct,n_test\n"
        f"lowerbound,nosuch,50.0000,{int(n_test) // 2}\n"
        f"lowerbound,other,0.0000,{int(n_test) // 2}\n"
        + "".join(f"summary,{kind}_accuracy_pct,99.0000,{n_test}\n" for kind in ("macro", "micro", "stage1")),
        encoding="utf-8",
    )
    assert main(["--config", str(path), "report"]) == 0
    assert (capsys.readouterr().out, paths.summary_txt.read_bytes(), paths.summary_csv.read_bytes()) == before


def test_empty_test_set_exits_2(tmp_path, capsys):
    path = lowerbound_config(tmp_path, n_test_per_sub=0)
    assert main(["--config", str(path), "run"]) == 2
    err = capsys.readouterr().err
    assert "empty test set" in err and "Traceback" not in err


def dataset_config(tmp_path):
    """Synthetic train/test files in tmp_path/source, and a config document
    whose dataset block points at them."""
    doc = config_doc(tmp_path / "source", epochs=3)
    path = tmp_path / "source.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "gen-data"]) == 0
    source = RunPaths(doc["out_dir"])
    doc = config_doc(tmp_path / "copy", epochs=3)
    del doc["synthetic"]
    doc["dataset"] = {"train": str(source.train_data), "test": str(source.test_data)}
    return source, doc


def test_dataset_block_copies_its_files(tmp_path):
    source, doc = dataset_config(tmp_path)
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "gen-data"]) == 0
    copies = RunPaths(load_config(path).out_dir)
    assert copies.train_data.read_bytes() == source.train_data.read_bytes()
    assert copies.test_data.read_bytes() == source.test_data.read_bytes()


@pytest.mark.parametrize(
    "edit, code", [("missing", 2), ("corrupt", 3), ("other_hierarchy", 2), ("other_dim", 2)]
)
def test_dataset_block_bad_file_exits(tmp_path, capsys, edit, code):
    source, doc = dataset_config(tmp_path)
    if edit == "missing":
        source.test_data.unlink()
    elif edit == "corrupt":
        data = bytearray(source.test_data.read_bytes())
        data[20] ^= 0x01
        source.test_data.write_bytes(bytes(data))
    else:  # a valid test file that does not match the train file
        spec = mini_spec(subs_per_super=(3, 2)) if edit == "other_hierarchy" else mini_spec(dim=6)
        save_dataset(generate_synthetic(spec)[1], source.test_data)
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(path), "gen-data"]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not any(RunPaths(doc["out_dir"]).root.glob("*"))


@pytest.mark.parametrize("kind", ["out_under_a_file", "dataset_train_a_directory"])
def test_path_of_the_wrong_kind_exits_2(tmp_path, capsys, kind):
    doc = config_doc(tmp_path / "run", epochs=2)
    if kind == "out_under_a_file":
        (tmp_path / "a_file").write_bytes(b"not a directory")
        bad = tmp_path / "a_file" / "x"
        override = ["--out", str(bad)]
    else:
        bad = tmp_path / "a_directory"
        bad.mkdir()
        del doc["synthetic"]
        doc["dataset"] = {"train": str(bad), "test": str(bad)}
        override = []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(path), *override, "gen-data"]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


def test_out_override_redirects_artifacts(config_path, tmp_path):
    other = tmp_path / "elsewhere"
    assert main(["--config", str(config_path), "--out", str(other), "gen-data"]) == 0
    assert (other / "train.hsds").exists()


def test_run_verb_executes_pipeline(tmp_path, capsys):
    doc = config_doc(tmp_path / "run", epochs=3)
    doc["eval_modes"] = ["lowerbound", "two_stage_vanilla"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(path), "run"]) == 0
    out = capsys.readouterr().out
    assert "two_stage_vanilla: macro" in out


@pytest.mark.parametrize("verb", [["gen-data"], ["train", "super"], ["run"]])
@pytest.mark.parametrize("where", ["--out", "out_dir"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, where, verb):
    target = tmp_path / "a_file"
    target.write_bytes(b"not a directory")
    doc = config_doc(target if where == "out_dir" else tmp_path / "run", epochs=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    override = ["--out", str(target)] if where == "--out" else []
    capsys.readouterr()
    assert main(["--config", str(path), *override, *verb]) == 2
    err = capsys.readouterr().err
    assert str(target) in err and "Traceback" not in err
    assert target.read_bytes() == b"not a directory"
