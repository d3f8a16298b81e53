import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import betaood.cli as cli_mod
import betaood.metrics as metrics_mod
from betaood.cli import main
from betaood.datagen import Dataset, read_jsonl, write_jsonl
from betaood.errors import NumericError
from betaood.evidence import Logits, evidence_to_prediction, logits_to_evidence
from betaood.metrics import ScoredDataset, roc_curve
from betaood.model import checkpoint_from_json, predict_batch
from betaood.scores import score_by_name

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
            assert (
                (out_a / f"synth.{split}.jsonl").read_bytes()
                == (out_b / f"synth.{split}.jsonl").read_bytes()
            )

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
    ], ids=["nan_feature", "extra_feature", "short_labels", "label_2", "label_0_7"])
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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

    def test_missing_score_column_rejected(self, pipeline, tmp_path):
        code = main([
            "eval", "--scores-csv", str(pipeline / "scores.csv"),
            "--scores", "not_a_column", "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_requires_scores_csv_or_aggregate(self, tmp_path):
        assert main(["eval", "--out", str(tmp_path / "o")]) == 1

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
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("text", [
        "",
        "score,fpr95,auroc,aupr\r\nu_s_pn,0.5,0.9\r\n",
        "score,fpr95,auroc,aupr\r\nu_s_pn,0.5,high,0.5\r\n",
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
        assert list(out.iterdir()) == []

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
        assert list(out.iterdir()) == []

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

    def test_numeric_failure_maps_to_exit_3(self, pipeline, tmp_path, monkeypatch):
        def boom(ds):
            raise NumericError("synthetic numeric failure")

        monkeypatch.setattr(cli_mod, "detection_metrics", boom)
        code = main([
            "eval", "--scores-csv", str(pipeline / "scores.csv"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
