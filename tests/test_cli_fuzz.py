"""Bounded fuzzer of the CLI's exit-code contract.

Each example mutates one input artifact of a tiny pipeline (a config file,
a dataset file, the checkpoint, or a scores, preds or metrics CSV) so that
it breaks a rule, and runs the command that reads it.  The command must exit
1, 2 or 3, name the mutated file on stderr without a traceback, and leave
--out uncreated.  The examples are the same on every run.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaood.cli import main

TINY_GEN = {
    "feature_dim": 3,
    "label_count": 2,
    "train_samples": 40,
    "val_samples": 8,
    "test_samples": 12,
    "ood_samples": 12,
}
TINY_TRAIN = {"hidden": [4], "epochs": 1, "batch_size": 16}

# (mutated artifact, kind of text, the command that reads it): {f} is the
# mutated file and {d} the directory that holds it with the other artifacts.
TARGETS = [
    ("gen_data_config.json", "json", ["gen-data", "--config", "{f}"]),
    ("train_config.json", "json", ["train", "--config", "{f}", "--data", "{d}/synth"]),
    ("score_config.json", "json", ["score", "--config", "{f}", "--checkpoint",
                                   "{d}/checkpoint.json", "--data", "{d}/synth"]),
    ("checkpoint.json", "json", ["score", "--checkpoint", "{f}", "--data", "{d}/synth"]),
    ("synth.train.jsonl", "rows", ["train", "--data", "{d}/synth"]),
    ("synth.test.jsonl", "rows", ["score", "--checkpoint", "{d}/checkpoint.json",
                                  "--data", "{d}/synth"]),
    ("scores.csv", "csv", ["eval", "--scores-csv", "{f}"]),
    ("scores.csv", "csv", ["sweep-lambda", "--scores-csv", "{f}"]),
    ("preds.csv", "csv", ["eval", "--scores-csv", "{d}/scores.csv", "--preds", "{f}"]),
    ("metrics.csv", "csv", ["eval", "--aggregate", "{f}"]),
]
# "file_name" gives the gen-data config's name, or a CSV header cell, a value
# that names no file in --out; "bool" puts a JSON boolean into a dataset row.
# Each is a "value" mutation where it does not apply.
MUTATIONS = ["truncate", "empty", "bad_utf8", "directory", "drop", "duplicate", "value",
             "file_name", "bool"]

NAN, INF = float("nan"), float("inf")
# Values that break the rule of a JSON value, by the type of the valid one.
BAD_JSON = {
    int: ["x", 2.5, NAN, INF, -INF, 1e308, True, -1, None],
    float: ["x", NAN, INF, -INF, True, None],
    str: [3, None, ["x"]],
    list: ["x", [None], [NAN], [True]],
    dict: ["x", 3, None],
}
# ... of a checkpoint parameter, whose finite values are all valid
BAD_PARAM = ["x", NAN, INF, -INF, None]
# ... of a dataset row's feature and label
BAD_FEATURE = [NAN, INF, -INF, "x", "2", None, [1.0], {}]
BAD_LABEL = [2, -1, 0.5, NAN, INF, 1e308, "x", "1", None, [1]]
# ... of a string that becomes part of a file name, or a CSV header cell
BAD_NAME = ["/", "a/b", "..", ".", "a\0b", "", "n" * 300]
# ... of a CSV cell, by the column's rule (_cell_rule)
BAD_CELL = {
    "sample_id": ["x", "1.5", "nan", "1e308", ""],
    "is_ood": ["2", "-1", "0.5", "x", "nan", ""],
    "p": ["nan", "inf", "-inf", "1e308", "-1e308", "7.5", "-0.5", "x", ""],
    "y": ["2", "-1", "0.5", "x", "nan", "1e308", ""],
    "metric": ["nan", "inf", "-inf", "1e308", "1.5", "-0.1", "x", ""],
    "score": ["nan", "inf", "-inf", "x", ""],
}


def _cell_rule(name: str, column: str) -> str | None:
    """The BAD_CELL key of a column of CSV file ``name``; None for a column
    that may hold any text (a metrics CSV's score names)."""
    if name == "metrics.csv":
        return None if column == "score" else "metric"
    if name == "preds.csv":
        return column if column == "sample_id" else column[0]
    return column if column in ("sample_id", "is_ood") else "score"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    gen = root / "gen.json"
    gen.write_text(json.dumps(TINY_GEN))
    train = root / "train.json"
    train.write_text(json.dumps(TINY_TRAIN))
    run = root / "run"
    for argv in (
        ["gen-data", "--config", str(gen), "--seed", "5"],
        ["train", "--config", str(train), "--data", f"{run}/synth"],
        ["score", "--checkpoint", f"{run}/checkpoint.json", "--data", f"{run}/synth",
         "--scores", "u_s_p,u_s_n"],
        ["eval", "--scores-csv", f"{run}/scores.csv"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(run)]) == 0
    return run


def _mutate_json(text: str, mutation: str, data) -> str:
    doc = json.loads(text)
    if mutation == "file_name" and "name" in doc:
        doc["name"] = data.draw(st.sampled_from(BAD_NAME), label="bad name")
        return json.dumps(doc)
    key = data.draw(st.sampled_from(sorted(doc)), label="key")
    if mutation == "drop":
        # a checkpoint section (arch, train_config, params) holds exactly its keys
        section = isinstance(doc[key], dict)
        how = data.draw(st.sampled_from(["rename", "pop", "add"] if section else ["rename"]),
                        label="how")
        if how == "rename":  # the key is gone and an unknown one takes its place
            doc[f"{key}_x"] = doc.pop(key)
        else:
            inner = data.draw(st.sampled_from(sorted(doc[key])), label="inner key")
            if how == "pop":
                del doc[key][inner]
            else:
                doc[key][f"{inner}_x"] = doc[key][inner]
        return json.dumps(doc)
    if mutation == "duplicate":  # json keeps the last of two values
        bad = data.draw(st.sampled_from(BAD_JSON[type(doc[key])]), label="bad")
        return text.rstrip()[:-1] + f",{json.dumps(key)}:{json.dumps(bad)}}}"
    if key == "params":
        name = data.draw(st.sampled_from(sorted(doc["params"])), label="param")
        flat = doc["params"]
        while isinstance(flat[name], list) and isinstance(flat[name][0], list):
            flat, name = flat[name], 0
        flat[name][0] = data.draw(st.sampled_from(BAD_PARAM), label="bad param")
    elif isinstance(doc[key], dict):
        inner = data.draw(st.sampled_from(sorted(doc[key])), label="inner key")
        doc[key][inner] = data.draw(
            st.sampled_from(BAD_JSON[type(doc[key][inner])]), label="bad inner"
        )
    else:
        doc[key] = data.draw(st.sampled_from(BAD_JSON[type(doc[key])]), label="bad")
    return json.dumps(doc)


def _mutate_row(line: str, mutation: str, data) -> str:
    doc = json.loads(line)
    if mutation == "bool":  # numpy would read true as 1
        key = data.draw(st.sampled_from(["features", "labels"]), label="field")
        doc[key][data.draw(st.integers(0, len(doc[key]) - 1), label="index")] = (
            data.draw(st.booleans(), label="bool"))
        return json.dumps(doc)
    key = data.draw(st.sampled_from(["features", "labels", "split"]), label="field")
    if mutation == "drop":
        doc[f"{key}_x"] = doc.pop(key)
    elif mutation == "duplicate":  # json keeps the last of two values
        return line[:-1] + f',"{key}":{3 if key == "split" else json.dumps("x")}}}'
    elif key == "split":
        doc[key] = data.draw(st.sampled_from(BAD_JSON[str]), label="bad")
    elif data.draw(st.booleans(), label="whole field"):
        doc[key] = "x"
    else:
        bad = BAD_FEATURE if key == "features" else BAD_LABEL
        doc[key][data.draw(st.integers(0, len(doc[key]) - 1), label="index")] = (
            data.draw(st.sampled_from(bad), label="bad")
        )
    return json.dumps(doc)


def _mutate_csv(name: str, lines: list[str], mutation: str, data) -> list[str]:
    rows = [line.split(",") for line in lines]
    if mutation == "file_name":
        j = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
        rows[0][j] = data.draw(st.sampled_from(BAD_NAME), label="bad name")
    elif mutation in ("value", "bool"):
        rules = {j: _cell_rule(name, column) for j, column in enumerate(rows[0])}
        j = data.draw(st.sampled_from([j for j, rule in rules.items() if rule]), label="column")
        i = data.draw(st.integers(1, len(rows) - 1), label="row")
        rows[i][j] = data.draw(st.sampled_from(BAD_CELL[rules[j]]), label="bad")
    else:
        j = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
        if mutation == "drop":  # from the header only, so that rows are wider
            del rows[0][j]
        else:
            for row in rows:
                row.insert(j, row[j])
    return [",".join(row) for row in rows]


def _mutate(path: Path, kind: str, mutation: str, data) -> None:
    text = path.read_bytes().decode()  # CSV rows end in "\r\n"
    if mutation == "empty":
        path.write_text("")
    elif mutation == "bad_utf8":
        raw = text.encode()
        at = data.draw(st.integers(0, len(raw)), label="offset")
        path.write_bytes(raw[:at] + b"\xff" + raw[at:])
    elif mutation == "directory":
        path.unlink()
        path.mkdir()
    elif kind == "json":
        if mutation == "truncate":  # anywhere before the closing brace
            path.write_text(text[: data.draw(st.integers(0, len(text.rstrip()) - 1))])
        else:
            path.write_text(_mutate_json(text, mutation, data))
    else:
        newline = "\r\n" if kind == "csv" else "\n"
        lines = text.split(newline)[:-1]
        first = 1  # the header row, or the dataset's header comment
        i = data.draw(st.integers(first, len(lines) - 1), label="line")
        if mutation == "truncate":
            # inside line i: a JSON row loses its closing brace, a CSV row a column
            end = len(lines[i]) - 1 if kind == "rows" else lines[i].rindex(",")
            cut = data.draw(st.integers(1, end), label="cut")
            path.write_text(newline.join(lines[:i] + [lines[i][:cut]]))
        elif kind == "rows":
            lines[i] = _mutate_row(lines[i], mutation, data)
            path.write_text(newline.join(lines) + newline)
        else:
            path.write_text(newline.join(_mutate_csv(path.name, lines, mutation, data)) + newline)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(target=st.sampled_from(TARGETS), mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_artifact_exits_1_2_or_3_and_names_it(artifacts, target, mutation, data):
    name, kind, argv = target
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for p in artifacts.iterdir():
            shutil.copy(p, work / p.name)
        mutated = work / name
        _mutate(mutated, kind, mutation, data)
        out = work / "out"
        args = [a.format(f=mutated, d=work) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*args, "--out", str(out)])
        assert code in (1, 2, 3), (code, err.getvalue())
        assert str(mutated) in err.getvalue() and "Traceback" not in err.getvalue()
        assert not out.exists()
