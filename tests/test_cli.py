import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import betaood.cli as cli_mod
import betaood.datagen as datagen_mod
import betaood.metrics as metrics_mod
import betaood.tables as tables_mod
from betaood.cli import main
from betaood.datagen import Dataset, read_jsonl, write_jsonl
from betaood.errors import DataError, NumericError
from betaood.evidence import Logits, evidence_to_prediction, logits_to_evidence
from betaood.metrics import ScoredDataset, roc_curve
from betaood.model import checkpoint_from_json, predict_batch
from betaood.scores import score_by_name
from betaood.tables import write_table

SMALL_GEN = {
    "feature_dim": 4,
    "label_count": 3,
    "train_samples": 300,
    "val_samples": 60,
    "test_samples": 60,
    "ood_samples": 60,
}

SMALL_TRAIN = {"hidden": [8], "epochs": 4}


def _write_config(tmp_dir: Path, name: str, doc: dict) -> str:
    path = tmp_dir / name
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small gen-data -> train -> score run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    gen_cfg = _write_config(root, "gen.json", SMALL_GEN)
    train_cfg = _write_config(root, "train.json", SMALL_TRAIN)
    out = root / "run"
    assert main(["gen-data", "--config", gen_cfg, "--seed", "3", "--out", str(out)]) == 0
    assert main([
        "train", "--config", train_cfg, "--data", str(out / "synth"),
        "--seed", "3", "--out", str(out),
    ]) == 0
    assert main([
        "score", "--checkpoint", str(out / "checkpoint.json"),
        "--data", str(out / "synth"), "--out", str(out),
    ]) == 0
    return out


class TestGenData:
    def test_creates_four_dataset_files(self, tmp_path):
        cfg = _write_config(tmp_path, "gen.json", SMALL_GEN)
        out = tmp_path / "d"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        for split in ("train", "val", "test", "ood"):
            assert (out / f"synth.{split}.jsonl").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, "gen.json", SMALL_GEN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg, "--seed", "7", "--out", str(out_a)]) == 0
        assert main(["gen-data", "--config", cfg, "--seed", "7", "--out", str(out_b)]) == 0
        for split in ("train", "val", "test", "ood"):
            for name in (f"synth.{split}.jsonl", f"synth.{split}.jsonl.npy"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_output_path_collides_with_file(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert main(["gen-data", "--out", str(blocker)]) == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, "gen.json", {"feature_dimension": 4})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")]) == 1

    def test_config_file_not_json(self, tmp_path):
        bad = tmp_path / "gen.json"
        bad.write_text("{broken")
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1


@pytest.mark.parametrize("command,key,value", [
    ("gen-data", "train_samples", "300"),
    ("train", "epochs", "2"),
    ("train", "epochs", 2.5),
    ("train", "hidden", "abc"),
    ("train", "learning_rate_head", float("nan")),
    ("score", "lambda1", "0.5"),
    ("score", "scores", "u_s_pn"),
])
def test_config_value_of_wrong_type_is_config_error(
    pipeline, tmp_path, capsys, command, key, value
):
    cfg = _write_config(tmp_path, "cfg.json", {key: value})
    data = str(pipeline / "synth")
    argv = {
        "gen-data": [],
        "train": ["--data", data],
        "score": ["--checkpoint", str(pipeline / "checkpoint.json"), "--data", data],
    }[command]
    code = main([command, "--config", cfg, *argv, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert repr(key) in err and cfg in err and "Traceback" not in err


@pytest.mark.parametrize("command, flags, doc, key", [
    ("gen-data", ["--seed", "-1"], None, "seed"),
    ("train", ["--seed", "-1"], None, "seed"),
    ("train", [], {"seed": -1}, "seed"),
    ("gen-data", [], {"feature_dim": -1}, "feature_dim"),
    ("gen-data", [], {"feature_dim": 0}, "feature_dim"),
], ids=["gen_seed_flag", "train_seed_flag", "train_seed_key", "dim_minus_1", "dim_0"])
def test_negative_seed_or_nonpositive_size_is_config_error(
    pipeline, tmp_path, capsys, command, flags, doc, key
):
    # no traceback, and no numpy warning: pytest turns warnings into errors
    if doc is not None:
        flags = [*flags, "--config", _write_config(tmp_path, "cfg.json", doc)]
    data = ["--data", str(pipeline / "synth")] if command == "train" else []
    out = tmp_path / "o"
    assert main([command, *flags, *data, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert repr(key) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("how", ["score_flag", "score_config", "eval_flag"])
def test_score_name_listed_twice_is_config_error(pipeline, tmp_path, capsys, how):
    argv = {
        "score_flag": ["score", "--scores", "u_s_pn,u_m_p,u_s_pn"],
        "score_config": ["score", "--config", _write_config(
            tmp_path, "cfg.json", {"scores": ["u_s_pn", "u_m_p", "u_s_pn"]}
        )],
        "eval_flag": ["eval", "--scores-csv", str(pipeline / "scores.csv"),
                      "--scores", "u_s_pn,u_m_p,u_s_pn"],
    }[how]
    if argv[0] == "score":
        argv += ["--checkpoint", str(pipeline / "checkpoint.json"),
                 "--data", str(pipeline / "synth")]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    assert "score name 'u_s_pn' is listed twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "eval", "eval_aggregate", "sweep-lambda"])
def test_failed_run_creates_no_out(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.csv")
    argv = {
        # every attempt misses a label in a two-row split
        "gen-data": ["gen-data", "--config", _write_config(
            tmp_path, "gen.json", {"train_samples": 2}
        )],
        "eval": ["eval", "--scores-csv", missing],
        "eval_aggregate": ["eval", "--aggregate", missing],
        "sweep-lambda": ["sweep-lambda", "--scores-csv", missing],
    }[command]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def _copy_rows(src: Path, dst: Path, edit, linenos) -> None:
    """Copy a dataset file, passing the parsed rows on the given lines through edit."""
    lines = src.read_text().splitlines()
    for lineno in linenos:
        doc = json.loads(lines[lineno - 1])
        edit(doc)
        lines[lineno - 1] = json.dumps(doc)
    dst.write_text("\n".join(lines) + "\n")


class TestTrain:
    def test_missing_training_file_is_data_error(self, tmp_path):
        code = main([
            "train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_directory_at_training_path_is_data_error(self, tmp_path, capsys):
        (tmp_path / "synth.train.jsonl").mkdir()
        code = main([
            "train", "--data", str(tmp_path / "synth"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "synth.train.jsonl") in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["features"].__setitem__(0, float("nan")),
        lambda doc: doc["features"].append(1.0),
        lambda doc: doc["labels"].pop(),
        lambda doc: doc["labels"].__setitem__(0, 2),
        lambda doc: doc["labels"].__setitem__(0, 0.7),
        lambda doc: doc["features"].__setitem__(0, "2"),
        lambda doc: doc["labels"].__setitem__(0, "1"),
        lambda doc: doc.__setitem__("split", 3),
    ], ids=["nan_feature", "extra_feature", "short_labels", "label_2", "label_0_7",
            "feature_numeric_string", "label_numeric_string", "split_not_a_string"])
    def test_bad_training_row_names_file_and_line(self, pipeline, tmp_path, capsys, edit):
        bad = tmp_path / "synth.train.jsonl"
        _copy_rows(pipeline / "synth.train.jsonl", bad, edit, [3])
        code = main([
            "train", "--data", str(tmp_path / "synth"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"{bad}:3:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "checkpoint.json").exists()

    def test_unlabeled_training_file_is_data_error(self, pipeline, tmp_path, capsys):
        unlabeled = tmp_path / "synth.train.jsonl"
        unlabeled.write_bytes((pipeline / "synth.ood.jsonl").read_bytes())
        code = main([
            "train", "--data", str(tmp_path / "synth"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"{unlabeled} has no labels" in capsys.readouterr().err

    def test_featureless_training_file_is_data_error(self, tmp_path, capsys):
        featureless = tmp_path / "synth.train.jsonl"
        featureless.write_text('{"features":[],"labels":[1,0],"split":"train"}\n' * 3)
        out = tmp_path / "o"
        code = main(["train", "--data", str(tmp_path / "synth"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"data error: training file {featureless} has no features" in err
        assert "Traceback" not in err and not out.exists()

    def test_zero_epochs_is_config_error(self, pipeline, tmp_path):
        code = main([
            "train", "--data", str(pipeline / "synth"), "--epochs", "0",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize("rate, rows, scale, where", [
        (1e300, 300, 1.0, "at epoch 1, batch 2: non-finite logits or evidence"),
        # one update from 16 large rows overflows a weight; no batch follows
        (1e308, 16, 300.0,
         "at epoch 1, batch 1: a parameter is non-finite after the last update"),
    ], ids=["mid_run", "last_update"])
    def test_diverging_training_is_numeric_error(
        self, pipeline, tmp_path, capsys, rate, rows, scale, where
    ):
        ds = read_jsonl(pipeline / "synth.train.jsonl")
        write_jsonl(Dataset(X=ds.X[:rows] * scale, Y=ds.Y[:rows], split="train"),
                    tmp_path / "synth.train.jsonl")
        cfg = _write_config(tmp_path, "train.json", {
            "learning_rate_backbone": rate, "learning_rate_head": rate,
        })
        code = main([
            "train", "--config", cfg, "--data", str(tmp_path / "synth"), "--epochs", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert f"numeric error: training diverged {where}" in capsys.readouterr().err
        # the output directory is created only when there is something to write
        assert not (tmp_path / "o").exists()

    def test_prints_per_epoch_loss_csv(self, pipeline, tmp_path, capsys):
        cfg = _write_config(tmp_path, "train.json", SMALL_TRAIN)
        code = main([
            "train", "--config", cfg, "--data", str(pipeline / "synth"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 1 + SMALL_TRAIN["epochs"]
        losses = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(v > 0 for v in losses)

    def test_rerun_identical_checkpoint_bytes(self, pipeline, tmp_path):
        cfg = _write_config(tmp_path, "train.json", SMALL_TRAIN)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main([
                "train", "--config", cfg, "--data", str(pipeline / "synth"),
                "--seed", "5", "--out", str(out),
            ]) == 0
            outs.append((out / "checkpoint.json").read_bytes())
        assert outs[0] == outs[1]

    def test_distinct_seeds_distinct_checkpoints(self, pipeline, tmp_path):
        cfg = _write_config(tmp_path, "train.json", SMALL_TRAIN)
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main([
                "train", "--config", cfg, "--data", str(pipeline / "synth"),
                "--seed", seed, "--out", str(out),
            ]) == 0
            blobs.append((out / "checkpoint.json").read_bytes())
        assert blobs[0] != blobs[1]


def _filled(nested, value):
    """The nested list with every number replaced by value."""
    return [_filled(v, value) for v in nested] if isinstance(nested, list) else value


class TestScore:
    def test_single_score_three_columns(self, pipeline, tmp_path):
        out = tmp_path / "o"
        assert main([
            "score", "--checkpoint", str(pipeline / "checkpoint.json"),
            "--data", str(pipeline / "synth"), "--scores", "u_s_pn",
            "--out", str(out),
        ]) == 0
        rows = _read_csv(out / "scores.csv")
        assert rows[0] == ["sample_id", "is_ood", "u_s_pn"]
        assert all(len(r) == 3 for r in rows)

    @pytest.mark.parametrize("key", ["lambda1", "lambda2"])
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_lambda_outside_unit_interval_is_config_error(
        self, pipeline, tmp_path, capsys, monkeypatch, key, how
    ):
        # rejected at config load, before the checkpoint is read, even when
        # no requested score reads that lambda
        def not_reached(path):
            raise AssertionError("the checkpoint was read")

        monkeypatch.setattr(cli_mod, "_load_checkpoint", not_reached)
        if how == "flag":
            args = [f"--{key}", "5"]
            message = f"malformed command line: --{key} must be in [0, 1], got 5.0"
        else:
            cfg = _write_config(tmp_path, "cfg.json", {key: 3})
            args = ["--config", cfg]
            message = f"malformed config {cfg}: '{key}' must be in [0, 1], got 3"
        out = tmp_path / "o"
        code = main(["score", "--checkpoint", str(pipeline / "checkpoint.json"), "--data",
                     str(pipeline / "synth"), "--scores", "u_s_p", *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"config error: {message}\n"
        assert not out.exists()

    def test_all_scores_eleven_columns_and_row_count(self, pipeline):
        rows = _read_csv(pipeline / "scores.csv")
        assert len(rows[0]) == 11
        n_rows = len(rows) - 1
        assert n_rows == SMALL_GEN["test_samples"] + SMALL_GEN["ood_samples"]
        ood_flags = [int(r[1]) for r in rows[1:]]
        assert sum(ood_flags) == SMALL_GEN["ood_samples"]

    def test_unknown_score_name_lists_valid(self, pipeline, tmp_path, capsys):
        code = main([
            "score", "--checkpoint", str(pipeline / "checkpoint.json"),
            "--data", str(pipeline / "synth"), "--scores", "u_s_q",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "u_s_pn" in capsys.readouterr().err

    def test_feature_size_differs_from_checkpoint_is_data_error(
        self, pipeline, tmp_path, capsys
    ):
        for split in ("test", "ood"):
            _copy_rows(
                pipeline / f"synth.{split}.jsonl", tmp_path / f"synth.{split}.jsonl",
                lambda doc: doc["features"].append(0.0),
                range(2, 2 + SMALL_GEN[f"{split}_samples"]),
            )
        code = main([
            "score", "--checkpoint", str(pipeline / "checkpoint.json"),
            "--data", str(tmp_path / "synth"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "synth.test.jsonl") in err and "expects 4" in err
        assert not (tmp_path / "o" / "scores.csv").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.__setitem__("labels", None),
        lambda doc: doc["labels"].pop(),
    ], ids=["null_labels", "one_label_too_few"])
    def test_label_count_differs_from_checkpoint_is_data_error(
        self, pipeline, tmp_path, capsys, edit
    ):
        # preds.csv would otherwise have rows shorter than its header
        _copy_rows(pipeline / "synth.test.jsonl", tmp_path / "synth.test.jsonl", edit,
                   range(2, 2 + SMALL_GEN["test_samples"]))
        (tmp_path / "synth.ood.jsonl").write_bytes((pipeline / "synth.ood.jsonl").read_bytes())
        out = tmp_path / "o"
        code = main([
            "score", "--checkpoint", str(pipeline / "checkpoint.json"),
            "--data", str(tmp_path / "synth"), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "synth.test.jsonl") in err and "expects 3" in err
        assert not out.exists()

    def test_directory_at_test_path_is_data_error(self, pipeline, tmp_path, capsys):
        (tmp_path / "synth.test.jsonl").mkdir()
        (tmp_path / "synth.ood.jsonl").write_bytes((pipeline / "synth.ood.jsonl").read_bytes())
        code = main([
            "score", "--checkpoint", str(pipeline / "checkpoint.json"),
            "--data", str(tmp_path / "synth"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "synth.test.jsonl") in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_checkpoint_is_data_error(self, pipeline, tmp_path):
        code = main([
            "score", "--checkpoint", str(tmp_path / "nope.json"),
            "--data", str(pipeline / "synth"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_cells_match_per_sample_scores(self, pipeline):
        ckpt = checkpoint_from_json((pipeline / "checkpoint.json").read_text())
        test = read_jsonl(pipeline / "synth.test.jsonl")
        ood = read_jsonl(pipeline / "synth.ood.jsonl")
        score_rows = _read_csv(pipeline / "scores.csv")
        preds_rows = _read_csv(pipeline / "preds.csv")
        names = score_rows[0][2:]
        sample_id = 0
        for is_ood, group in ((0, test), (1, ood)):
            logits, _, _ = predict_batch(ckpt.params, group.X)
            for i in range(len(group)):
                row_logits = Logits(f_pos=logits.f_pos[i], f_neg=logits.f_neg[i])
                ev = logits_to_evidence(row_logits)
                want = [repr(score_by_name(nm, ev, row_logits)) for nm in names]
                assert score_rows[1 + sample_id] == [str(sample_id), str(is_ood), *want]
                if not is_ood:
                    p = evidence_to_prediction(ev).p
                    want = [*(repr(float(v)) for v in p), *(str(v) for v in group.Y[i])]
                    assert preds_rows[1 + sample_id] == [str(sample_id), *want]
                sample_id += 1
        assert len(preds_rows) == 1 + len(test)

    def test_malformed_checkpoint_is_data_error(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline / "checkpoint.json").read_text())
        broken_docs = {
            f"'{key}'": {k: v for k, v in doc.items() if k != key}
            for key in ("arch", "train_config", "params")
        }
        broken_docs["malformed"] = {**doc, "train_config": {"epochs": "2"}}
        params = doc["params"]
        for expected, edit in (
            ("parameter 'b_pos' holds a non-finite value",
             {"b_pos": _filled(params["b_pos"], math.nan)}),
            ("parameter 'hidden_weights[0]' holds a non-finite value",
             {"hidden_weights": _filled(params["hidden_weights"], math.inf)}),
            ("parameter 'w_neg' has shape", {"w_neg": params["w_neg"][:-1]}),
        ):
            broken_docs[expected] = {**doc, "params": {**params, **edit}}
        for expected, broken_doc in broken_docs.items():
            broken = tmp_path / "checkpoint.json"
            broken.write_text(json.dumps(broken_doc))
            code = main([
                "score", "--checkpoint", str(broken),
                "--data", str(pipeline / "synth"), "--out", str(tmp_path / "o"),
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert expected in err and str(broken) in err

    @pytest.mark.parametrize("section, key, value", [
        ("train_config", "learning_rate_head", math.nan),
        ("train_config", "learning_rate_backbone", -math.inf),
        (None, "loss_trace", "xyz"),
        (None, "loss_trace", [0.5, math.nan]),
        (None, "loss_trace", [0.5, True]),
    ], ids=["lr_nan", "lr_minus_inf", "trace_string", "trace_nan", "trace_bool"])
    def test_bad_checkpoint_field_names_checkpoint_and_key(
        self, pipeline, tmp_path, capsys, section, key, value
    ):
        doc = json.loads((pipeline / "checkpoint.json").read_text())
        (doc[section] if section else doc)[key] = value
        broken = tmp_path / "checkpoint.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "score", "--checkpoint", str(broken),
                "--data", str(pipeline / "synth"), "--out", str(out),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"checkpoint {broken}: " in err and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("train_config", "epochs", 2.5),
        ("train_config", "seed", "x"),
        ("train_config", "batch_size", True),
        ("arch", "hidden", [8.0]),
    ], ids=["epochs_float", "seed_string", "batch_size_bool", "hidden_float"])
    def test_checkpoint_value_of_wrong_type_names_checkpoint_and_key(
        self, pipeline, tmp_path, capsys, section, key, value
    ):
        self.test_bad_checkpoint_field_names_checkpoint_and_key(
            pipeline, tmp_path, capsys, section, key, value
        )

    @pytest.mark.parametrize("key, value, message", [
        ("hidden_weights", 3, "parameter 'hidden_weights' must be a list of per-layer arrays"),
        ("w_pos", "x", "parameter 'w_pos' is not an array of numbers: could not convert"),
        ("b_neg", [[0.5, 0.5], [0.5]],
         "parameter 'b_neg' is not an array of numbers: setting an array element"),
        ("hidden_biases", [["x"]], "parameter 'hidden_biases[0]' is not an array of numbers"),
        ("b_pos", [10**400], "parameter 'b_pos' is not an array of numbers: int too large"),
    ], ids=["hidden_not_list", "head_string", "head_ragged", "layer_string", "huge_int"])
    def test_checkpoint_param_of_wrong_type_names_its_key(
        self, pipeline, tmp_path, capsys, key, value, message
    ):
        doc = json.loads((pipeline / "checkpoint.json").read_text())
        doc["params"][key] = value
        broken = tmp_path / "checkpoint.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main([
            "score", "--checkpoint", str(broken),
            "--data", str(pipeline / "synth"), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"checkpoint {broken}: {message}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("section, edit, message", [
        ("train_config", lambda d: [d.pop("epochs"), d.pop("seed")],
         "malformed train_config: missing key(s) epochs, seed"),
        ("arch", lambda d: d.pop("label_count"), "malformed arch: missing key(s) label_count"),
        ("params", lambda d: d.__setitem__("w_mid", d["w_pos"]),
         "malformed params: unknown key(s) w_mid"),
        ("params", lambda d: d.pop("b_neg"), "malformed params: missing key(s) b_neg"),
    ], ids=["train_config_missing", "arch_missing", "params_unknown", "params_missing"])
    def test_checkpoint_section_keys_are_exact(
        self, pipeline, tmp_path, capsys, section, edit, message
    ):
        doc = json.loads((pipeline / "checkpoint.json").read_text())
        edit(doc[section])
        broken = tmp_path / "checkpoint.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main([
            "score", "--checkpoint", str(broken),
            "--data", str(pipeline / "synth"), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"checkpoint {broken}: {message}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("split", ["test", "ood"])
    def test_dataset_file_without_rows_is_data_error(self, pipeline, tmp_path, capsys, split):
        for name in ("test", "ood"):
            text = (pipeline / f"synth.{name}.jsonl").read_text()
            (tmp_path / f"synth.{name}.jsonl").write_text(
                text.splitlines(keepends=True)[0] if name == split else text
            )
        out = tmp_path / "o"
        code = main([
            "score", "--checkpoint", str(pipeline / "checkpoint.json"),
            "--data", str(tmp_path / "synth"), "--out", str(out),
        ])
        assert code == 2
        assert f"dataset file {tmp_path / f'synth.{split}.jsonl'} has no rows" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("keys, value, message", [
        # finite weights whose products overflow into non-finite logits
        (("hidden_weights", "w_pos"), 1e306, "are not finite"),
        # finite logits whose evidence overflows
        (("b_pos", "b_neg"), 1.7e308, "overflow"),
    ], ids=["logits", "evidence"])
    def test_overflow_is_numeric_error(
        self, pipeline, tmp_path, capsys, keys, value, message
    ):
        # no numpy warning and no output files
        doc = json.loads((pipeline / "checkpoint.json").read_text())
        params = doc["params"]
        for key in keys:
            params[key] = _filled(params[key], value)
        huge = tmp_path / "checkpoint.json"
        huge.write_text(json.dumps(doc))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "score", "--checkpoint", str(huge),
                "--data", str(pipeline / "synth"), "--out", str(out),
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"checkpoint {huge}" in err and message in err
        # the output directory is created only when there is something to write
        assert not out.exists()

    def test_sum_score_overflow_is_numeric_error(self, pipeline, tmp_path, capsys):
        # finite evidence near 1e308 on every label: the exact row sum of the
        # sum family overflows, as math.fsum reports it
        doc = json.loads((pipeline / "checkpoint.json").read_text())
        doc["params"]["b_pos"] = _filled(doc["params"]["b_pos"], 1e308)
        huge = tmp_path / "checkpoint.json"
        huge.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main([
            "score", "--checkpoint", str(huge),
            "--data", str(pipeline / "synth"), "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            f"numeric error: checkpoint {huge} on {pipeline / 'synth'}.test.jsonl: "
            "intermediate overflow in fsum\n"
        )
        assert not (out / "scores.csv").exists() and not (out / "preds.csv").exists()

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main([
                "score", "--checkpoint", str(pipeline / "checkpoint.json"),
                "--data", str(pipeline / "synth"), "--out", str(out),
            ]) == 0
            blobs.append(
                ((out / "scores.csv").read_bytes(), (out / "preds.csv").read_bytes())
            )
        assert blobs[0] == blobs[1]


def _load_sidecar(path: Path) -> list:
    """Every array of a cache file, in order."""
    with open(path, "rb") as fh:
        size, arrays = path.stat().st_size, []
        while fh.tell() < size:
            arrays.append(np.load(fh, allow_pickle=False))
        return arrays


def _save_sidecar(path: Path, arrays) -> None:
    with open(path, "wb") as fh:
        for a in arrays:
            np.save(fh, a, allow_pickle=False)


def _changed_feature(sidecar: Path, path: Path) -> None:
    # the first float: a dataset's first feature, a table's first score or probability
    arrays = _load_sidecar(sidecar)
    next(a for a in arrays if a.dtype == np.float64).flat[0] += 1.0
    _save_sidecar(sidecar, arrays)


def _key_of_other_bytes(sidecar: Path, path: Path) -> None:
    # the cache that the file's own writer saves for other values
    other = sidecar.with_name(f"other{path.suffix}")
    if path.suffix == ".jsonl":
        ds = read_jsonl(path)
        write_jsonl(Dataset(X=ds.X * 2.0, Y=ds.Y, split=ds.split), other)
    else:
        _, header, *blocks = _load_sidecar(sidecar)
        columns = [c * 2.0 if c.dtype == np.float64 else c for block in blocks for c in block]
        write_table(other, header.tolist(), columns, cache=True)
    sidecar.write_bytes(Path(f"{other}.npy").read_bytes())


def _directory(sidecar: Path, path: Path) -> None:
    sidecar.unlink()
    sidecar.mkdir()


_DAMAGES = {
    "truncated": lambda sidecar, path: sidecar.write_bytes(sidecar.read_bytes()[:-100]),
    "empty": lambda sidecar, path: sidecar.write_bytes(b""),
    "random_bytes": lambda sidecar, path: sidecar.write_bytes(
        np.random.default_rng(0).bytes(sidecar.stat().st_size)),
    "directory": _directory,
    "key_of_other_bytes": _key_of_other_bytes,
    "changed_feature": _changed_feature,
}


class TestSidecar:
    """A ``.npy`` cache beside a dataset file or a score table is a cache: the
    commands that read the file (train and score, or eval and sweep-lambda) give
    the parse's outputs and errors whatever state it is in."""

    # per kind of cached file: the files, and the commands that read them
    KINDS = {
        "dataset": ([f"synth.{split}.jsonl" for split in ("train", "test", "ood")], [
            ["train", "--config", "{d}/train.json", "--data", "{d}/synth", "--seed", "3"],
            ["score", "--checkpoint", "{p}/checkpoint.json", "--data", "{d}/synth"],
        ]),
        "table": (["scores.csv", "preds.csv"], [
            ["eval", "--scores-csv", "{d}/scores.csv", "--preds", "{d}/preds.csv"],
            ["sweep-lambda", "--scores-csv", "{d}/scores.csv"],
        ]),
    }

    @pytest.fixture
    def data(self, pipeline, tmp_path):
        for names, _ in self.KINDS.values():
            for name in names:
                for suffix in ("", ".npy"):
                    (tmp_path / f"{name}{suffix}").write_bytes(
                        (pipeline / f"{name}{suffix}").read_bytes())
        _write_config(tmp_path, "train.json", SMALL_TRAIN)
        return tmp_path

    def _run(self, pipeline, data, capsys, out, kind="dataset"):
        """Exit codes, stdout and stderr of the kind's commands, and the files they wrote."""
        codes = [main([*(a.format(d=data, p=pipeline) for a in argv), "--out", str(data / out)])
                 for argv in self.KINDS[kind][1]]
        text = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted((data / out).glob("*"))}
        return codes, text.out.replace(str(data / out), "OUT"), text.err, files

    def _parsed(self, pipeline, data, capsys, kind="dataset"):
        for name in self.KINDS[kind][0]:
            sidecar = data / f"{name}.npy"
            if sidecar.is_dir():
                sidecar.rmdir()
            sidecar.unlink(missing_ok=True)
        return self._run(pipeline, data, capsys, "parsed", kind)

    @pytest.mark.parametrize("damage", list(_DAMAGES))
    def test_damaged_sidecar_gives_the_parse_outputs(self, pipeline, data, capsys, damage):
        for split in ("train", "test", "ood"):
            _DAMAGES[damage](data / f"synth.{split}.jsonl.npy", data / f"synth.{split}.jsonl")
        got = self._run(pipeline, data, capsys, "damaged")
        assert got[0] == [0, 0]
        assert got == self._parsed(pipeline, data, capsys)

    def test_intact_sidecar_gives_the_parse_outputs(self, pipeline, data, capsys, monkeypatch):
        with monkeypatch.context() as patch:  # the sidecars stand in for every parse
            patch.setattr(datagen_mod, "_parse_jsonl", None)
            got = self._run(pipeline, data, capsys, "cached")
        assert got[0] == [0, 0]
        assert got == self._parsed(pipeline, data, capsys)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_changed_byte_under_intact_sidecar_gives_the_parse_error(
        self, pipeline, data, capsys, split
    ):
        path = data / f"synth.{split}.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"labels":[0', b'"labels":[2', 1).replace(
            b'"labels":[1', b'"labels":[2', 1)
        path.write_bytes(b"\n".join(lines))
        got = self._run(pipeline, data, capsys, "changed")
        assert 2 in got[0] and f"{path}:3: labels must be 0 or 1" in got[2]
        assert got == self._parsed(pipeline, data, capsys)

    @pytest.mark.parametrize("damage", list(_DAMAGES))
    def test_damaged_table_cache_gives_the_parse_outputs(self, pipeline, data, capsys, damage):
        for name in self.KINDS["table"][0]:
            _DAMAGES[damage](data / f"{name}.npy", data / name)
        got = self._run(pipeline, data, capsys, "damaged", "table")
        assert got[0] == [0, 0]
        assert got == self._parsed(pipeline, data, capsys, "table")

    def test_intact_table_cache_gives_the_parse_outputs(
        self, pipeline, data, capsys, monkeypatch
    ):
        with monkeypatch.context() as patch:  # the caches stand in for every table parse
            patch.setattr(tables_mod, "_read_plain", None)
            patch.setattr(tables_mod, "_read_rows", None)
            got = self._run(pipeline, data, capsys, "cached", "table")
        assert got[0] == [0, 0]
        assert got == self._parsed(pipeline, data, capsys, "table")

    @pytest.mark.parametrize("name, column", [("scores.csv", 1), ("preds.csv", -1)])
    def test_changed_cell_under_intact_table_cache_gives_the_parse_error(
        self, pipeline, data, capsys, name, column
    ):
        path = data / name  # line 3's is_ood or last label becomes 2
        lines = path.read_bytes().split(b"\r\n")
        cells = lines[2].split(b",")
        cells[column] = b"2"
        lines[2] = b",".join(cells)
        path.write_bytes(b"\r\n".join(lines))
        got = self._run(pipeline, data, capsys, "changed", "table")
        assert 2 in got[0] and f"{path}:3: column" in got[2] and "not 0 or 1" in got[2]
        assert got == self._parsed(pipeline, data, capsys, "table")


def _write_scores_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestEval:
    def test_perfectly_separated_scores(self, tmp_path):
        src = tmp_path / "scores.csv"
        _write_scores_csv(
            src,
            ["sample_id", "is_ood", "u_s_pn"],
            [[0, 0, 0.1], [1, 0, 0.2], [2, 1, 0.8], [3, 1, 0.9]],
        )
        out = tmp_path / "o"
        assert main(["eval", "--scores-csv", str(src), "--out", str(out)]) == 0
        rows = _read_csv(out / "metrics.csv")
        assert rows[0] == ["score", "fpr95", "auroc", "aupr"]
        name, fpr95, auroc_v, aupr_v = rows[1]
        assert name == "u_s_pn"
        assert float(fpr95) == 0.0
        assert float(auroc_v) == 1.0
        assert float(aupr_v) == 1.0
        assert (out / "roc_u_s_pn.csv").exists()

    def test_short_row_names_file_and_line(self, tmp_path, capsys):
        src = tmp_path / "scores.csv"
        _write_scores_csv(
            src,
            ["sample_id", "is_ood", "u_s_p", "u_s_n"],
            [[0, 0, 0.1, 0.2], [1, 1, 0.9], [2, 1, 0.8, 0.7]],
        )
        assert main(["eval", "--scores-csv", str(src), "--out", str(tmp_path / "o")]) == 2
        assert f"{src}:3:" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    def test_nonfinite_score_names_file_column_and_line(self, tmp_path, capsys):
        src = tmp_path / "scores.csv"
        _write_scores_csv(
            src,
            ["sample_id", "is_ood", "u_s_p", "u_s_n"],
            [[0, 0, 0.1, 0.2], [1, 0, 0.2, "nan"], [2, 1, 0.8, 0.7], [3, 1, 0.9, 0.8]],
        )
        out = tmp_path / "o"
        assert main(["eval", "--scores-csv", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{src}:3:" in err and "'u_s_n'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, name, text, where", [
        ("eval", "scores.csv", "sample_id,is_ood,u_s_p,u_s_n\r\n0,0,0.1,0.2\r\n"
         "1,2,0.5,0.6\r\n2,1,0.9,0.8\r\n", ":3: column 'is_ood' holds 2, not 0 or 1"),
        ("sweep-lambda", "scores.csv", "sample_id,is_ood,u_s_p,u_s_n\r\n0,0,0.1,0.2\r\n"
         "1,2,0.5,0.6\r\n2,1,0.9,0.8\r\n", ":3: column 'is_ood' holds 2, not 0 or 1"),
        ("preds", "preds.csv", "sample_id,p_0,y_0\r\n0,0.2,1\r\n1,0.5,2\r\n",
         ":3: column 'y_0' holds 2, not 0 or 1"),
        ("preds", "preds.csv", "sample_id,p_0,y_0\r\n0,0.2,1\r\n1,nan,0\r\n",
         ":3: column 'p_0' holds nan, not a number in [0, 1]"),
        ("preds", "preds.csv", "sample_id,p_0,y_0\r\n0,0.2,1\r\n1,7.5,0\r\n",
         ":3: column 'p_0' holds 7.5, not a number in [0, 1]"),
    ], ids=["is_ood_2_eval", "is_ood_2_sweep", "y_2", "p_nan", "p_7_5"])
    def test_bad_cell_names_file_line_and_column(
        self, pipeline, tmp_path, capsys, command, name, text, where
    ):
        bad = tmp_path / name
        bad.write_text(text)
        argv = {
            "eval": ["eval", "--scores-csv", str(bad)],
            "sweep-lambda": ["sweep-lambda", "--scores-csv", str(bad)],
            "preds": ["eval", "--scores-csv", str(pipeline / "scores.csv"), "--preds", str(bad)],
        }[command]
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{bad}{where}" in capsys.readouterr().err
        assert not out.exists()

    def test_single_class_input_is_data_error(self, tmp_path):
        src = tmp_path / "scores.csv"
        _write_scores_csv(
            src,
            ["sample_id", "is_ood", "u_s_pn"],
            [[0, 1, 0.1], [1, 1, 0.2]],
        )
        assert main(["eval", "--scores-csv", str(src), "--out", str(tmp_path / "o")]) == 2

    def test_metrics_table_one_row_per_score(self, pipeline, tmp_path):
        out = tmp_path / "o"
        assert main([
            "eval", "--scores-csv", str(pipeline / "scores.csv"),
            "--preds", str(pipeline / "preds.csv"), "--out", str(out),
        ]) == 0
        rows = _read_csv(out / "metrics.csv")
        assert [r[0] for r in rows[1:]] == list(cli_mod.SCORE_NAMES)
        for nm in cli_mod.SCORE_NAMES:
            assert (out / f"roc_{nm}.csv").exists()
        map_rows = _read_csv(out / "map.csv")
        assert map_rows[1][0] == "map"
        assert 0.0 <= float(map_rows[1][1]) <= 1.0

    def test_roc_cells_parse_and_equal_curve_points(self, pipeline, tmp_path):
        out = tmp_path / "o"
        scores_csv = pipeline / "scores.csv"
        assert main(["eval", "--scores-csv", str(scores_csv), "--out", str(out)]) == 0
        is_ood, columns = cli_mod._read_scores_csv(scores_csv)
        for nm in cli_mod.SCORE_NAMES:
            rows = _read_csv(out / f"roc_{nm}.csv")
            assert rows[0] == ["fpr", "tpr"]
            cells = [(float(f), float(t)) for f, t in rows[1:]]
            curve = roc_curve(ScoredDataset(scores=columns[nm], is_ood=is_ood))
            assert cells == curve.points
            assert all(type(v) is float for point in curve.points for v in point)

    def test_duplicate_score_column_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "scores.csv"
        _write_scores_csv(
            src, ["sample_id", "is_ood", "u_s_p", "u_s_p"], [[0, 0, 0.1, 0.2], [1, 1, 0.9, 0.8]]
        )
        assert main(["eval", "--scores-csv", str(src), "--out", str(tmp_path / "o")]) == 2
        assert str(src) in capsys.readouterr().err

    @pytest.mark.parametrize("ids, message", [
        ([4, 5, 4], ":4: sample_id 4 repeats line 2"),
        ([0, "x", 2], ":3: malformed row"),
    ], ids=["repeated", "not_an_integer"])
    def test_bad_sample_id_names_file_and_line(self, tmp_path, capsys, ids, message):
        src = tmp_path / "scores.csv"
        rows = [[i, k % 2, 0.1 * k] for k, i in enumerate(ids)]
        _write_scores_csv(src, ["sample_id", "is_ood", "u_s_p"], rows)
        out = tmp_path / "o"
        assert main(["eval", "--scores-csv", str(src), "--out", str(out)]) == 2
        assert f"{src}{message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ids, message", [
        (["x", "x"], ":2: malformed row"),
        ([4, 5, 4], ":4: sample_id 4 repeats line 2"),
    ], ids=["not_an_integer", "repeated"])
    def test_bad_preds_sample_id_names_file_and_line(
        self, pipeline, tmp_path, capsys, ids, message
    ):
        bad = tmp_path / "preds.csv"
        rows = [[i, 0.5, k % 2] for k, i in enumerate(ids)]
        _write_scores_csv(bad, ["sample_id", "p_0", "y_0"], rows)
        out = tmp_path / "o"
        code = main([
            "eval", "--scores-csv", str(pipeline / "scores.csv"),
            "--preds", str(bad), "--out", str(out),
        ])
        assert code == 2
        assert f"{bad}{message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_score_column_rejected(self, pipeline, tmp_path):
        code = main([
            "eval", "--scores-csv", str(pipeline / "scores.csv"),
            "--scores", "not_a_column", "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_requires_scores_csv_or_aggregate(self, tmp_path):
        assert main(["eval", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("flag, value", [("--scores-csv", "{t}/missing.csv"),
                                             ("--scores", "u_s_p"),
                                             ("--preds", "{t}/missing.csv")],
                             ids=["scores_csv", "scores", "preds"])
    def test_aggregate_rejects_the_flags_it_ignores(self, tmp_path, capsys, flag, value):
        # rejected before any file is read: the named files do not exist
        out = tmp_path / "o"
        code = main(["eval", "--aggregate", _metrics_csv(tmp_path), flag,
                     value.format(t=tmp_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: --aggregate takes no {flag}" in err
        assert "Traceback" not in err and not out.exists()

    def test_aggregate_mean_and_median(self, tmp_path):
        paths = []
        for i, auroc_v in enumerate((0.2, 0.4, 0.9)):
            p = tmp_path / f"m{i}.csv"
            _write_scores_csv(
                p,
                ["score", "fpr95", "auroc", "aupr"],
                [["u_s_pn", 0.5, auroc_v, 0.5]],
            )
            paths.append(str(p))
        out = tmp_path / "o"
        assert main(["eval", "--aggregate", ",".join(paths), "--out", str(out)]) == 0
        rows = _read_csv(out / "aggregate.csv")
        assert rows[0] == ["score", "metric", "mean", "median"]
        cells = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in rows[1:]}
        mean, median = cells[("u_s_pn", "auroc")]
        assert mean == pytest.approx(0.5)
        assert median == pytest.approx(0.4)

    @pytest.mark.parametrize("text", [
        "",
        "sample_id,y_0\r\n0,1\r\n",
        "sample_id,p_0,y_0\r\n0,0.5\r\n",
        "sample_id,p_0,y_0\r\n0,high,1\r\n",
        "sample_id,p_0,y_0\r\n",
        "sample_id,p_0,y_0\r\n0,0.5,0\r\n",
    ])
    def test_malformed_preds_is_data_error(self, pipeline, tmp_path, capsys, text):
        bad = tmp_path / "preds.csv"
        bad.write_text(text)
        code = main([
            "eval", "--scores-csv", str(pipeline / "scores.csv"),
            "--preds", str(bad), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        "",
        "score,fpr95,auroc,aupr\r\nu_s_pn,0.5,0.9\r\n",
        "score,fpr95,auroc,aupr\r\nu_s_pn,0.5,high,0.5\r\n",
        "score,fpr95,auroc,aupr\r\nu_s_pn,0.5,nan,0.5\r\n",
        "score,fpr95,auroc,aupr\r\nu_s_pn,0.5,1.5,0.5\r\n",
        "score,fpr95,auroc,aupr,auroc\r\nu_s_pn,0.5,0.9,0.5,0.9\r\n",
    ])
    def test_malformed_aggregate_input_is_data_error(self, tmp_path, capsys, text):
        bad = tmp_path / "metrics.csv"
        bad.write_text(text)
        code = main(["eval", "--aggregate", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    def test_aggregate_different_score_rows_is_data_error(self, tmp_path, capsys):
        header = ["score", "fpr95", "auroc", "aupr"]
        full, partial = tmp_path / "full.csv", tmp_path / "partial.csv"
        _write_scores_csv(full, header, [["u_s_pn", 0.5, 0.9, 0.5], ["u_m_p", 0.6, 0.8, 0.4]])
        _write_scores_csv(partial, header, [["u_s_pn", 0.5, 0.9, 0.5]])
        for order in ((full, partial), (partial, full)):
            code = main([
                "eval", "--aggregate", ",".join(map(str, order)),
                "--out", str(tmp_path / "o"),
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert str(partial) in err and "u_m_p" in err


    def test_aggregate_repeated_score_row_is_data_error(self, tmp_path, capsys):
        header = ["score", "fpr95", "auroc", "aupr"]
        twice = tmp_path / "twice.csv"
        _write_scores_csv(twice, header, [["u_s_pn", 0.5, 0.9, 0.5], ["u_s_pn", 0.5, 0.2, 0.5]])
        out = tmp_path / "o"
        assert main(["eval", "--aggregate", str(twice), "--out", str(out)]) == 2
        assert f"{twice}:3: score 'u_s_pn' repeats line 2" in capsys.readouterr().err
        assert not (out / "aggregate.csv").exists()


class TestSweepLambda:
    def test_default_grid_eleven_rows(self, pipeline, tmp_path):
        out = tmp_path / "o"
        assert main([
            "sweep-lambda", "--scores-csv", str(pipeline / "scores.csv"),
            "--out", str(out),
        ]) == 0
        rows = _read_csv(out / "sweep.csv")
        assert rows[0] == ["lambda2", "fpr95", "auroc", "aupr"]
        assert len(rows) == 12
        assert [float(r[0]) for r in rows[1:]] == [k / 10.0 for k in range(11)]

    def test_endpoints_match_standalone_evaluations_exactly(self, pipeline, tmp_path):
        sweep_out = tmp_path / "s"
        eval_out = tmp_path / "e"
        assert main([
            "sweep-lambda", "--scores-csv", str(pipeline / "scores.csv"),
            "--out", str(sweep_out),
        ]) == 0
        assert main([
            "eval", "--scores-csv", str(pipeline / "scores.csv"),
            "--scores", "u_s_n,u_s_p", "--out", str(eval_out),
        ]) == 0
        sweep = {r[0]: r[1:] for r in _read_csv(sweep_out / "sweep.csv")[1:]}
        metrics = {r[0]: r[1:] for r in _read_csv(eval_out / "metrics.csv")[1:]}
        assert sweep["0.0"] == metrics["u_s_n"]
        assert sweep["1.0"] == metrics["u_s_p"]

    def test_missing_component_column_rejected(self, tmp_path):
        src = tmp_path / "scores.csv"
        _write_scores_csv(
            src,
            ["sample_id", "is_ood", "u_s_p"],
            [[0, 0, 0.1], [1, 1, 0.9]],
        )
        assert main([
            "sweep-lambda", "--scores-csv", str(src), "--out", str(tmp_path / "o"),
        ]) == 1

    def test_nonfinite_component_names_file_column_and_line(self, tmp_path, capsys):
        src = tmp_path / "scores.csv"
        _write_scores_csv(
            src,
            ["sample_id", "is_ood", "u_s_p", "u_s_n"],
            [[0, 0, 0.1, 0.2], [1, 1, "inf", 0.9]],
        )
        out = tmp_path / "o"
        assert main(["sweep-lambda", "--scores-csv", str(src), "--out", str(out)]) == 2
        assert f"{src}:3: column 'u_s_p'" in capsys.readouterr().err
        assert not out.exists()

    def test_single_class_input_names_file_and_writes_nothing(self, tmp_path, capsys):
        src = tmp_path / "scores.csv"
        _write_scores_csv(
            src,
            ["sample_id", "is_ood", "u_s_p", "u_s_n"],
            [[0, 1, 0.1, 0.2], [1, 1, 0.9, 0.8]],
        )
        out = tmp_path / "o"
        assert main(["sweep-lambda", "--scores-csv", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(src) in err and "both classes" in err
        assert not out.exists()

    def test_bad_grid_value_rejected(self, pipeline, tmp_path):
        code = main([
            "sweep-lambda", "--scores-csv", str(pipeline / "scores.csv"),
            "--lambda2", "0.0,1.5", "--out", str(tmp_path / "o"),
        ])
        assert code == 1


class _SortCountingNumpy:
    """numpy as the metrics module sees it, counting every call that sorts."""

    SORTS = ("argsort", "sort", "lexsort", "unique", "partition", "argpartition")

    def __init__(self, np_module):
        self._np = np_module
        self.sorts = 0

    def __getattr__(self, name):
        attr = getattr(self._np, name)
        if name not in self.SORTS:
            return attr

        def counted(*args, **kwargs):
            self.sorts += 1
            return attr(*args, **kwargs)
        return counted


@pytest.fixture
def sort_counts(monkeypatch):
    """Counts metrics.roc_curve calls and numpy sorts inside betaood.metrics."""
    counting_np = _SortCountingNumpy(metrics_mod.np)
    counts = {"roc_curve": 0, "numpy": counting_np}
    original = metrics_mod.roc_curve

    def roc_curve(*args, **kwargs):
        counts["roc_curve"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics_mod, "np", counting_np)
    monkeypatch.setattr(metrics_mod, "roc_curve", roc_curve)
    monkeypatch.setattr(cli_mod, "roc_curve", roc_curve)
    return counts


class TestOneSweepPerScore:
    """Every detection metric and the ROC export of a score come from one sort."""

    @pytest.mark.parametrize("names", [None, "u_s_pn", "msp,u_m_p,u_s_n"])
    def test_eval_sorts_once_per_score(self, pipeline, tmp_path, sort_counts, names):
        args = ["eval", "--scores-csv", str(pipeline / "scores.csv"), "--out", str(tmp_path)]
        if names:
            args += ["--scores", names]
        assert main(args) == 0
        expected = len(names.split(",")) if names else len(cli_mod.SCORE_NAMES)
        assert sort_counts["roc_curve"] == expected
        assert sort_counts["numpy"].sorts == expected

    @pytest.mark.parametrize("grid", [None, "0.0,0.25,1.0"])
    def test_sweep_lambda_sorts_once_per_grid_point(
        self, pipeline, tmp_path, sort_counts, grid
    ):
        args = ["sweep-lambda", "--scores-csv", str(pipeline / "scores.csv"),
                "--out", str(tmp_path)]
        if grid:
            args += ["--lambda2", grid]
        assert main(args) == 0
        expected = len(grid.split(",")) if grid else 11
        assert sort_counts["roc_curve"] == expected
        assert sort_counts["numpy"].sorts == expected


class TestTracedPipeline:
    """The benchmark's traced run, at these sizes: a wrapped name that is gone
    or a layer metric that reads 0 fails here rather than in the benchmark."""

    def test_layer_metrics_cover_every_layer(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import pipeline as bench
        from tracer import Tracer, layer_metrics
        from workloads import Workload

        workload = Workload(name="tier1", gen=SMALL_GEN, train=SMALL_TRAIN)
        cfg = workload.write_configs(3, tmp_path / "configs")
        run = bench.Run(main, tmp_path / "run", floor=None, expected=None)
        tracer = Tracer("tier1")
        tracer.install()
        try:
            with tracer.span("pipeline"):
                bench._pipeline(run, cfg)
        finally:
            tracer.uninstall()
        assert run.failures == []
        csv_bytes = sum((run.run_dir / f).stat().st_size for f in bench.CLI_CSVS)
        metrics = layer_metrics(tracer, csv_bytes)
        # one batched Logits, EvidencePair and Prediction per scored group,
        # and one score call per name per group
        assert metrics["evidence.objects"] == 6
        assert metrics["scores.calls"] == 2 * len(cli_mod.SCORE_NAMES)
        # one forward pass, one digamma and one trigamma call per SGD batch
        batches = math.ceil(
            SMALL_GEN["train_samples"] / cli_mod._TRAIN_DEFAULTS["batch_size"]
        ) * SMALL_TRAIN["epochs"]
        assert metrics["model.forward_rows_per_train_row"] == 1.0
        assert metrics["special.digamma_array.calls"] == batches
        assert metrics["special.trigamma_array.calls"] == batches
        # one grouped threshold sweep per evaluated score
        assert metrics["metrics.sweeps_per_score"] == 1.0


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_unwritable_out_is_config_error(
        self, pipeline, tmp_path, capsys, monkeypatch, command
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{command} ran before rejecting --out")

        # the check comes before the work, not after it
        work = {"train": "train", "score": "predict_batch"}[command]
        monkeypatch.setattr(cli_mod, work, must_not_run)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        data = str(pipeline / "synth")
        argv = {
            "train": ["--epochs", "1"],
            "score": ["--checkpoint", str(pipeline / "checkpoint.json")],
        }[command]
        code = main([command, *argv, "--data", data, "--out", str(blocker / "o")])
        assert code == 1
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("args, code", [
        (["--help"], 0),
        (["score", "--checkpoint", "c.json", "--data", "d", "--out", "o",
          "--scores", "u_s_q"], 1),
    ], ids=["help", "unknown_score"])
    def test_python_dash_m_exits_with_main_code(self, tmp_path, args, code):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "betaood", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == code
        assert "Traceback" not in done.stderr
        if code == 0:
            assert "Usage:" in done.stdout
        else:
            assert "unknown score name(s) u_s_q" in done.stderr

    @pytest.mark.parametrize("flag, argv", [
        ("--out", ["gen-data", "--out", "a\0b"]),
        ("--config", ["gen-data", "--config", "c\0", "--out", "{o}"]),
        ("--config", ["train", "--config", "c\0", "--data", "d", "--out", "{o}"]),
        ("--out", ["train", "--data", "d", "--out", "o\0"]),
        ("--checkpoint", ["score", "--checkpoint", "k\0", "--data", "d", "--out", "{o}"]),
        ("--scores-csv", ["eval", "--scores-csv", "x\0y", "--out", "{o}"]),
        ("--preds", ["eval", "--scores-csv", "s.csv", "--preds", "p\0", "--out", "{o}"]),
        ("--scores-csv", ["sweep-lambda", "--scores-csv", "x\0", "--out", "{o}"]),
    ], ids=["gen_data_out", "gen_data_config", "train_config", "train_out", "score_checkpoint",
            "eval_scores_csv", "eval_preds", "sweep_scores_csv"])
    def test_nul_in_path_option_is_usage_error(self, tmp_path, capsys, flag, argv):
        out = tmp_path / "o"
        code = main([a.format(o=out) for a in argv])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"usage error: Invalid value for '{flag}'") and "NUL" in err
        assert not out.exists()

    def test_numeric_failure_maps_to_exit_3(self, pipeline, tmp_path, monkeypatch):
        def boom(ds):
            raise NumericError("synthetic numeric failure")

        monkeypatch.setattr(cli_mod, "detection_metrics", boom)
        code = main([
            "eval", "--scores-csv", str(pipeline / "scores.csv"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3


def _tree(root: Path) -> set[str]:
    """Every path under root, relative to it."""
    return {str(p.relative_to(root)) for p in root.rglob("*")}


class TestOutputLayer:
    """Every command writes through one staged writer: names from input text stay
    inside --out, and a failed write leaves no traceback and nothing behind."""

    def _run(self, argv, tmp_path, capsys, out):
        """Exit code and stderr of a command, after checking that it wrote nothing
        outside ``out`` and printed no traceback."""
        top = out.relative_to(tmp_path).parts[0]

        def outside():
            return {p for p in _tree(tmp_path) if p != top and not p.startswith(f"{top}/")}

        before = outside()
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert outside() == before
        return code, err

    @pytest.mark.parametrize("name", [
        "../x", "{tmp}/elsewhere/y", "nodir/y", "a\0b", "n" * 300, "", ".", "..",
    ], ids=["parent", "absolute", "subdir", "nul", "300_chars", "empty", "dot", "dotdot"])
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_gen_data_name_that_is_no_file_name_is_config_error(
        self, tmp_path, capsys, name, how
    ):
        name = name.format(tmp=tmp_path)
        cfg = _write_config(tmp_path, "gen.json", {**SMALL_GEN, "name": name})
        argv = ["gen-data", "--config", cfg]
        if how == "flag":
            argv = ["gen-data", "--name", name]
        out = tmp_path / "o"
        code, err = self._run(argv, tmp_path, capsys, out)
        assert code == 1
        assert "'name'" in err and "must be a file name part" in err and repr(name) in err
        assert ("command line" if how == "flag" else cfg) in err
        assert not out.exists()

    def test_longest_gen_data_name_fits(self, tmp_path, capsys):
        name = "n" * (255 - len(".train.jsonl.npy"))
        out = tmp_path / "o"
        code, _ = self._run(["gen-data", "--config", _write_config(
            tmp_path, "gen.json", SMALL_GEN), "--name", name], tmp_path, capsys, out)
        assert code == 0
        assert (out / f"{name}.train.jsonl.npy").is_file()
        code, err = self._run(["gen-data", "--name", name + "n"], tmp_path, capsys, out)
        assert code == 1 and "at most 239 bytes" in err

    @pytest.mark.parametrize("column", ["sub/evil", "../ok", "a\0b", "s" * 300, ".."])
    def test_eval_score_column_that_is_no_file_name_is_data_error(
        self, tmp_path, capsys, column
    ):
        src = tmp_path / "scores.csv"
        rows = [[0, 0, 0.1, 0.1], [1, 1, 0.9, 0.9]]
        _write_scores_csv(src, ["sample_id", "is_ood", "ok", column], rows)
        out = tmp_path / "o"
        code, err = self._run(["eval", "--scores-csv", str(src)], tmp_path, capsys, out)
        assert code == 2
        assert f"scores CSV {src}: column {column!r} must be a file name part" in err
        assert not out.exists()
        # a column that is not evaluated names no file
        code, _ = self._run(["eval", "--scores-csv", str(src), "--scores", "ok"],
                            tmp_path, capsys, out)
        assert code == 0 and _tree(out) == {"roc_ok.csv", "metrics.csv"}

    def test_directory_at_an_output_file_leaves_no_file_written(
        self, pipeline, tmp_path, capsys
    ):
        out = tmp_path / "o"
        (out / "metrics.csv").mkdir(parents=True)
        (out / "keep.txt").write_text("kept")
        code, err = self._run(["eval", "--scores-csv", str(pipeline / "scores.csv")],
                              tmp_path, capsys, out)
        assert code == 1
        assert f"cannot write {out / 'metrics.csv'}" in err
        assert _tree(out) == {"metrics.csv", "keep.txt"}
        assert (out / "keep.txt").read_text() == "kept"

    @pytest.mark.parametrize("error, code", [
        (OSError(28, "No space left on device"), 1),
        (DataError("synthetic data error"), 2),
    ], ids=["os_error", "data_error"])
    def test_failing_write_removes_the_directories_it_made(
        self, pipeline, tmp_path, capsys, monkeypatch, error, code
    ):
        def write_then_fail(curve, path):
            Path(path).write_text("partial")
            raise error

        monkeypatch.setattr(cli_mod, "write_roc_csv", write_then_fail)
        out = tmp_path / "a" / "b" / "c"
        got, err = self._run(["eval", "--scores-csv", str(pipeline / "scores.csv"),
                              "--scores", "u_s_p"], tmp_path, capsys, out)
        assert got == code
        if code == 1:
            assert f"cannot write {out / 'roc_u_s_p.csv'}: No space left on device" in err
        assert not (tmp_path / "a").exists()

    def test_failing_write_keeps_an_existing_out_as_it_was(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "o"
        code, _ = self._run(["gen-data", "--config", _write_config(
            tmp_path, "gen.json", SMALL_GEN)], tmp_path, capsys, out)
        assert code == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        real = cli_mod.write_jsonl
        calls = []

        def fail_on_third(data, path):  # two datasets and their sidecars are written
            calls.append(path)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            real(data, path)

        monkeypatch.setattr(cli_mod, "write_jsonl", fail_on_third)
        code, err = self._run(["gen-data", "--seed", "4"], tmp_path, capsys, out)
        assert code == 1 and f"cannot write {out / 'synth.test.jsonl'}" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files

    @pytest.mark.parametrize("command", ["gen-data", "train", "score", "eval", "sweep-lambda",
                                         "eval_aggregate"])
    def test_success_leaves_only_the_command_files(self, pipeline, tmp_path, capsys, command):
        data = str(pipeline / "synth")
        argv, files = {
            "gen-data": (["gen-data", "--config", _write_config(tmp_path, "g.json", SMALL_GEN)],
                         {f"synth.{s}.jsonl{x}" for s in ("train", "val", "test", "ood")
                          for x in ("", ".npy")} | {"gen_data_config.json"}),
            "train": (["train", "--data", data, "--epochs", "1"],
                      {"checkpoint.json", "train_config.json"}),
            "score": (["score", "--checkpoint", str(pipeline / "checkpoint.json"), "--data",
                       data, "--scores", "u_s_p"], {"scores.csv", "preds.csv", "scores.csv.npy",
                                                    "preds.csv.npy", "score_config.json"}),
            "eval": (["eval", "--scores-csv", str(pipeline / "scores.csv"), "--scores",
                      "u_s_p,u_s_n", "--preds", str(pipeline / "preds.csv")],
                     {"roc_u_s_p.csv", "roc_u_s_n.csv", "metrics.csv", "map.csv"}),
            "sweep-lambda": (["sweep-lambda", "--scores-csv", str(pipeline / "scores.csv")],
                             {"sweep.csv"}),
            "eval_aggregate": (["eval", "--aggregate", _metrics_csv(tmp_path)],
                               {"aggregate.csv"}),
        }[command]
        out = tmp_path / "o"
        code, _ = self._run(argv, tmp_path, capsys, out)
        assert code == 0
        assert _tree(out) == files

    @pytest.mark.parametrize("flag, argv", [
        ("--scores", ["score", "--checkpoint", "{p}/checkpoint.json", "--data", "{p}/synth",
                      "--scores", ""]),
        ("--scores", ["eval", "--scores-csv", "{p}/scores.csv", "--scores", ""]),
        ("--aggregate", ["eval", "--aggregate", ""]),
        ("--lambda2", ["sweep-lambda", "--scores-csv", "{p}/scores.csv", "--lambda2", ""]),
    ], ids=["score_scores", "eval_scores", "eval_aggregate", "sweep_lambda2"])
    def test_empty_list_flag_is_config_error(self, pipeline, tmp_path, capsys, flag, argv):
        out = tmp_path / "o"
        code, err = self._run([a.format(p=pipeline) for a in argv], tmp_path, capsys, out)
        assert code == 1
        assert f"config error: {flag} is empty" in err
        assert not out.exists()


def _metrics_csv(tmp_path: Path) -> str:
    path = tmp_path / "metrics.csv"
    _write_scores_csv(path, ["score", "fpr95", "auroc", "aupr"], [["u_s_p", 0.5, 0.5, 0.5]])
    return str(path)
