"""Command-line pipeline: gen-data, train, score, eval, sweep-lambda.

Config precedence is flags > config file > defaults; the effective config
is echoed into every output directory.  Exit codes: 0 success, 1 usage or
config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .datagen import (
    Dataset,
    OodSpec,
    default_spec,
    generate_ind,
    generate_ood,
    read_jsonl,
    write_jsonl,
)
from .errors import ConfigError, DataError, NumericError
from .metrics import (
    ScoredDataset,
    detection_metrics,
    mean_average_precision,
    roc_curve,
    write_roc_csv,
)
from .model import (
    ArchConfig,
    TrainConfig,
    check_fields,
    checkpoint_from_json,
    checkpoint_to_json,
    predict_batch,
    train,
)
from .scores import SCORE_NAMES, mix_scores, score_by_name
from .tables import read_table, write_table

_GEN_DEFAULTS = {
    "name": "synth",
    "feature_dim": 8,
    "label_count": 5,
    "train_samples": 2000,
    "val_samples": 500,
    "test_samples": 500,
    "cluster_spread": 1.0,
    "mean_scale": 4.0,
    "seed": 0,
    "ood_mode": "novel_cluster",
    "ood_shift": 5.0,
    "ood_samples": 500,
}

_TRAIN_DEFAULTS = {"hidden": [32], **asdict(TrainConfig())}

_SCORE_DEFAULTS = {"scores": list(SCORE_NAMES), "lambda1": 0.5, "lambda2": 0.5}


def _load_config(path, defaults: dict, overrides: dict) -> dict:
    """Merge defaults < config file < explicit flags; the file's keys and values
    and the flags' values go through the one key/type rule (check_fields)."""
    merged = dict(defaults)
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # undecodable bytes or invalid JSON
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        check_fields(doc, defaults, f"config {path}")
        merged.update(doc)
    flags = {key: value for key, value in overrides.items() if value is not None}
    check_fields(flags, defaults, "command line")
    merged.update(flags)
    return merged


def _check_out(out: str) -> list[str]:
    """Reject an --out that could not be created before any work is done: its
    nearest existing ancestor must be a writable directory.  Creates nothing;
    returns the directories from --out up that do not exist yet, topmost first."""
    existing, missing = str(Path(out).absolute()), []
    while not os.path.exists(existing):
        missing.insert(0, existing)
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        problem = "is not a directory"
    elif not os.access(existing, os.W_OK | os.X_OK):
        problem = "is not writable"
    else:
        return missing
    raise ConfigError(f"cannot create output directory {out}: {existing} {problem}")


def _write_out(out: str, files: dict) -> Path:
    """Write a command's files: ``files`` maps each name to a callable that writes
    one path, in a stage directory inside --out.  After the last write every file
    there (a dataset's sidecar too) moves into --out.  On any error the stage and
    the directories this call made are removed; an OSError exits 1, naming the file."""
    out_dir, made, stage, name = Path(out), [], None, None
    try:
        for path in _check_out(out):
            with contextlib.suppress(FileExistsError):  # a path through ".."
                os.mkdir(path)
                made.append(path)
        stage = tempfile.mkdtemp(prefix=".stage-", dir=out)
        for name, write in files.items():
            write(os.path.join(stage, name))
        names = os.listdir(stage)
        for name in names:  # before any move: a move cannot be taken back
            if os.path.isdir(out_dir / name):
                raise ConfigError(f"cannot write {out_dir / name}: a directory is in the way")
        for name in names:
            os.replace(os.path.join(stage, name), out_dir / name)
        os.rmdir(stage)
    except BaseException as exc:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        for path in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(path)
        if not isinstance(exc, OSError):
            raise
        raise ConfigError(f"cannot write {out_dir / (name or '')}: {exc.strerror or exc}") from exc
    return out_dir


def _table(header: list[str], columns, cache: bool = False):
    """A _write_out writer of a CSV table (tables.write_table)."""
    return lambda path: write_table(path, header, columns, cache)


def _config_json(cfg: dict):
    """A _write_out writer of the effective config, echoed into each command's --out."""
    return lambda path: Path(path).write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")


def _check_name(value: str, affix: str, what: str, error) -> None:
    """The rule of a string that becomes part of a file name in --out: it is not
    empty, "." or "..", holds no "/" or NUL, and with ``affix``, the rest of the
    longest file name it forms, takes at most 255 bytes."""
    room = 255 - len(affix)
    try:
        fits = len(os.fsencode(value)) <= room
    except UnicodeEncodeError:  # a lone surrogate names no file
        fits = False
    if not fits or value in ("", ".", "..") or "/" in value or "\0" in value:
        raise error(f"{what} {value!r} must be a file name part: not empty, '.' or '..', "
                    f"no '/' or NUL, at most {room} bytes")


def _split_flag(value: str | None, flag: str) -> list[str] | None:
    """A comma-separated flag's items; None if it was not given, an error if empty."""
    if value == "":
        raise ConfigError(f"{flag} is empty: give a comma-separated list, or leave it out")
    return None if value is None else value.split(",")


class _Path(click.Path):
    """A path option: a NUL byte in it is a usage error naming the option."""

    def convert(self, value, param, ctx):
        if "\0" in os.fsdecode(value):
            self.fail("a path holds no NUL byte", param, ctx)
        return super().convert(value, param, ctx)


@click.group()
def cli():
    """Beta-evidential multi-label OOD detection pipeline."""


@cli.command("gen-data")
@click.option("--config", "config_path", type=_Path(), default=None)
@click.option("--out", required=True, type=_Path())
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
def cmd_gen_data(config_path, out, seed, name):
    """Generate the four JSONL dataset files (train/val/test/ood)."""
    cfg = _load_config(config_path, _GEN_DEFAULTS, {"seed": seed, "name": name})
    where = "command line" if name is not None else f"config {config_path}"
    _check_name(cfg["name"], ".train.jsonl.npy", f"malformed {where}: 'name'", ConfigError)
    _check_out(out)
    spec = default_spec(
        feature_dim=cfg["feature_dim"],
        label_count=cfg["label_count"],
        samples_per_split={
            "train": cfg["train_samples"],
            "val": cfg["val_samples"],
            "test": cfg["test_samples"],
        },
        cluster_spread=cfg["cluster_spread"],
        mean_scale=cfg["mean_scale"],
        seed=cfg["seed"],
    )
    ood_spec = OodSpec(
        mode=cfg["ood_mode"],
        shift_distance=cfg["ood_shift"],
        samples=cfg["ood_samples"],
        seed=cfg["seed"],
    )
    ind = generate_ind(spec)
    ood = generate_ood(spec, ood_spec)
    base = cfg["name"]
    unlabeled = Dataset(X=ood, Y=np.zeros((len(ood), 0), dtype=int), split="ood")
    splits = [*ind.items(), ("ood", unlabeled)]
    out_dir = _write_out(out, {
        **{f"{base}.{split}.jsonl": functools.partial(write_jsonl, ds) for split, ds in splits},
        "gen_data_config.json": _config_json(cfg),
    })
    click.echo(f"wrote {base}.{{train,val,test,ood}}.jsonl to {out_dir}")


@cli.command("train")
@click.option("--config", "config_path", type=_Path(), default=None)
@click.option("--data", required=True, type=str,
              help="Dataset prefix, e.g. outdir/synth")
@click.option("--out", required=True, type=_Path())
@click.option("--seed", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
def cmd_train(config_path, data, out, seed, epochs, batch_size):
    """Train the two-head network; writes checkpoint.json, prints loss CSV."""
    overrides = {"seed": seed, "epochs": epochs, "batch_size": batch_size}
    cfg = _load_config(config_path, _TRAIN_DEFAULTS, overrides)
    _check_out(out)
    train_path = Path(f"{data}.train.jsonl")
    if not train_path.is_file():
        raise DataError(f"training file not found: {train_path}")
    ds = read_jsonl(train_path)
    if not len(ds):
        raise DataError(f"training file {train_path} is empty")
    for what, values in (("labels", ds.Y), ("features", ds.X)):
        if not values.shape[1]:
            raise DataError(f"training file {train_path} has no {what}")
    arch = ArchConfig(input_dim=ds.X.shape[1], hidden=tuple(cfg["hidden"]),
                      label_count=ds.Y.shape[1])
    tc = TrainConfig(**{k: v for k, v in cfg.items() if k != "hidden"})
    ckpt = train(ds.X, ds.Y, arch, tc)
    _write_out(out, {
        "checkpoint.json": lambda path: Path(path).write_text(checkpoint_to_json(ckpt) + "\n"),
        "train_config.json": _config_json(cfg),
    })
    click.echo("epoch,mean_loss")
    for i, loss_value in enumerate(ckpt.loss_trace, start=1):
        click.echo(f"{i},{loss_value!r}")


def _load_checkpoint(path):
    ckpt_path = Path(path)
    if not ckpt_path.is_file():
        raise DataError(f"checkpoint not found: {ckpt_path}")
    try:
        return checkpoint_from_json(ckpt_path.read_text())
    except (OSError, ValueError, ConfigError, DataError) as exc:
        raise DataError(f"checkpoint {ckpt_path}: {exc}") from exc


@cli.command("score")
@click.option("--config", "config_path", type=_Path(), default=None)
@click.option("--checkpoint", required=True, type=_Path())
@click.option("--data", required=True, type=str)
@click.option("--out", required=True, type=_Path())
@click.option("--scores", "scores_arg", type=str, default=None,
              help="Comma-separated score names")
@click.option("--lambda1", type=float, default=None)
@click.option("--lambda2", type=float, default=None)
def cmd_score(config_path, checkpoint, data, out, scores_arg, lambda1, lambda2):
    """Score test (IND) and OOD samples; writes scores.csv and preds.csv."""
    overrides = {"scores": _split_flag(scores_arg, "--scores"), "lambda1": lambda1,
                 "lambda2": lambda2}
    cfg = _load_config(config_path, _SCORE_DEFAULTS, overrides)
    for key in ("lambda1", "lambda2"):
        if not 0.0 <= cfg[key] <= 1.0:
            where, name = (("command line", f"--{key}") if overrides[key] is not None
                           else (f"config {config_path}", repr(key)))
            raise ConfigError(f"malformed {where}: {name} must be in [0, 1], got {cfg[key]!r}")
    requested = cfg["scores"]
    _check_score_names(requested, SCORE_NAMES, "valid")
    _check_out(out)
    ckpt = _load_checkpoint(checkpoint)
    test_path = Path(f"{data}.test.jsonl")
    ood_path = Path(f"{data}.ood.jsonl")
    for p in (test_path, ood_path):
        if not p.is_file():
            raise DataError(f"dataset file not found: {p}")
    test = read_jsonl(test_path)
    ood = read_jsonl(ood_path)
    input_dim = ckpt.params.arch.input_dim
    for p, group in ((test_path, test), (ood_path, ood)):
        if not len(group):
            raise DataError(f"dataset file {p} has no rows")
        if group.X.shape[1] != input_dim:
            raise DataError(
                f"{p} has {group.X.shape[1]} features per row, but "
                f"checkpoint {checkpoint} expects {input_dim}"
            )
    if test.Y.shape[1] != ckpt.params.arch.label_count:  # preds.csv has y_j under each p_j
        raise DataError(f"{test_path} has {test.Y.shape[1]} labels per row, but checkpoint "
                        f"{checkpoint} expects {ckpt.params.arch.label_count}")

    groups = []  # per group its (N, k) score matrix and (N, L) probabilities
    for path, group in ((test_path, test), (ood_path, ood)):
        values = np.empty((len(group), len(requested)))
        # finite logits near the float maximum can still overflow evidence or scores
        try:
            with np.errstate(over="raise", invalid="raise"):
                logits, ev, pred = predict_batch(ckpt.params, group.X)
                for j, nm in enumerate(requested):
                    values[:, j] = score_by_name(
                        nm, ev, logits, cfg["lambda1"], cfg["lambda2"]
                    )
        except (NumericError, FloatingPointError, OverflowError) as exc:
            raise NumericError(f"checkpoint {checkpoint} on {path}: {exc}") from None
        groups.append((values, pred.p))

    is_ood = np.repeat([0, 1], [len(test), len(ood)])
    score_columns = [np.arange(is_ood.size), is_ood, *np.concatenate([v for v, _ in groups]).T]
    pred_columns = [np.arange(len(test)), *groups[0][1].T, *test.Y.T]
    _write_out(out, {
        "scores.csv": _table(["sample_id", "is_ood", *requested], score_columns, True),
        "preds.csv": _table(_preds_header(ckpt.params.arch.label_count), pred_columns, True),
        "score_config.json": _config_json(cfg),
    })
    click.echo(f"scored {len(test) + len(ood)} samples ({len(test)} IND, {len(ood)} OOD)")


def _check_score_names(names: list, known, listing: str) -> None:
    """Each requested score name is one of ``known`` and is listed once."""
    unknown = [nm for nm in names if nm not in known]
    if unknown:
        raise ConfigError(
            f"unknown score name(s) {', '.join(unknown)}; {listing}: {', '.join(known)}"
        )
    twice = [nm for i, nm in enumerate(names) if nm in names[:i]]
    if twice:
        raise ConfigError(f"score name {twice[0]!r} is listed twice")


def _preds_header(n_labels: int) -> list[str]:
    """The columns of a predictions CSV, as score writes them and eval reads them."""
    return ["sample_id", *(f"p_{j}" for j in range(n_labels)),
            *(f"y_{j}" for j in range(n_labels))]


_METRICS_HEADER = ["score", "fpr95", "auroc", "aupr"]


def _read_scores_csv(path):
    """Returns (is_ood array, {score name: value array}); sample ids must be distinct."""

    def schema(header):
        if header[:2] != ["sample_id", "is_ood"]:
            raise DataError(f"scores CSV {path} must start with sample_id,is_ood columns")
        if len(set(header)) != len(header):
            raise DataError(f"scores CSV {path} names a column twice")
        return [int, int] + [float] * (len(header) - 2)

    header, columns = read_table(path, "scores CSV", schema)
    _check_unique(columns[0], path, "sample_id")
    return columns[1], dict(zip(header[2:], columns[2:]))


def _check_unique(values: np.ndarray, path, what: str) -> None:
    """Reject the first value that repeats an earlier row, by line (header is line 1)."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    # a run of equal values keeps file order: each row after its first repeats it
    repeats = np.nonzero(ranked[1:] == ranked[:-1])[0] + 1
    if repeats.size:
        k = repeats[np.argmin(order[repeats])]
        i, first = order[k], order[np.searchsorted(ranked, ranked[k])]
        raise DataError(f"{path}:{i + 2}: {what} {values.tolist()[i]!r} repeats line {first + 2}")


# What a CSV cell may hold: (test over a column's values, what the cell must be).
_FINITE = (np.isfinite, "a finite number")
_BINARY = (lambda v: (v == 0) | (v == 1), "0 or 1")
_UNIT = (lambda v: (v >= 0) & (v <= 1), "a number in [0, 1]")


def _check_cells(path, cells: dict) -> None:
    """Reject the first cell, by line and then by column, that breaks its rule;
    ``cells`` maps each checked column's name to its values and its rule."""
    first = None
    for nm, (values, (test, wanted)) in cells.items():
        ok = test(values)
        if not ok.all() and (first is None or np.argmin(ok) < first[0]):
            first = (int(np.argmin(ok)), nm, wanted)
    if first is not None:
        i, nm, wanted = first
        raise DataError(
            f"{path}:{i + 2}: column {nm!r} holds {cells[nm][0][i].item()!r}, not {wanted}"
        )


def _check_score_cells(path, is_ood, columns: dict, names) -> None:
    """The scores CSV's cell rules: is_ood is 0 or 1, and each named score finite."""
    scores = {nm: (columns[nm], _FINITE) for nm in names}
    _check_cells(path, {"is_ood": (is_ood, _BINARY), **scores})


def _read_preds_csv(path):
    """Returns the (N, L) probabilities and the (N, L) labels; sample ids must be distinct."""

    def schema(header):
        n_labels = (len(header) - 1) // 2
        if n_labels < 1 or header != _preds_header(n_labels):
            raise DataError(f"predictions CSV {path} must have columns sample_id, p_0.., y_0..")
        return [int] + [float] * n_labels + [int] * n_labels

    header, columns = read_table(path, "predictions CSV", schema)
    _check_unique(columns[0], path, "sample_id")
    n_labels = len(header) // 2
    return np.column_stack(columns[1 : 1 + n_labels]), np.column_stack(columns[1 + n_labels :])


@cli.command("eval")
@click.option("--scores-csv", "scores_csv", type=_Path(), default=None)
@click.option("--scores", "scores_arg", type=str, default=None,
              help="Comma-separated score names (default: all columns)")
@click.option("--preds", "preds_csv", type=_Path(), default=None)
@click.option("--aggregate", type=str, default=None,
              help="Comma-separated metrics.csv paths to aggregate (mean+median)")
@click.option("--out", required=True, type=_Path())
def cmd_eval(scores_csv, scores_arg, preds_csv, aggregate, out):
    """Detection metrics per score plus ROC export; or aggregate over runs."""
    _check_out(out)
    requested = _split_flag(scores_arg, "--scores")
    if aggregate is not None:
        for flag, value in {"--scores-csv": scores_csv, "--scores": scores_arg,
                            "--preds": preds_csv}.items():
            if value is not None:
                raise ConfigError(f"--aggregate takes no {flag}: it reads only metrics CSVs")
        _aggregate_metrics(_split_flag(aggregate, "--aggregate"), out)
        return
    if scores_csv is None:
        raise ConfigError("either --scores-csv or --aggregate is required")
    is_ood, columns = _read_scores_csv(scores_csv)
    requested = requested or list(columns)
    _check_score_names(requested, list(columns), f"columns of {scores_csv}")
    for nm in requested:
        _check_name(nm, "roc_.csv", f"scores CSV {scores_csv}: column", DataError)
    _check_score_cells(scores_csv, is_ood, columns, requested)
    files, rows = {}, []
    try:
        for nm in requested:
            curve = roc_curve(ScoredDataset(scores=columns[nm], is_ood=is_ood))
            m = detection_metrics(curve)
            rows.append((m.fpr95, m.auroc, m.aupr))
            files[f"roc_{nm}.csv"] = functools.partial(write_roc_csv, curve)
    except DataError as exc:
        raise DataError(f"{scores_csv}: {exc}") from exc
    files["metrics.csv"] = _table(_METRICS_HEADER, [requested, *np.array(rows).T])
    if preds_csv is not None:
        probs, labels = _read_preds_csv(preds_csv)
        rules = [_UNIT] * probs.shape[1] + [_BINARY] * labels.shape[1]
        values = [*probs.T, *labels.T]
        _check_cells(preds_csv, dict(zip(_preds_header(probs.shape[1])[1:], zip(values, rules))))
        try:
            value = mean_average_precision(probs, labels)
        except DataError as exc:
            raise DataError(f"{preds_csv}: {exc}") from exc
        files["map.csv"] = _table(["metric", "value"], [["map"], np.array([value])])
    out_dir = _write_out(out, files)
    click.echo(f"evaluated {len(requested)} score(s) into {out_dir}")


def _aggregate_metrics(paths, out: str) -> None:
    """Mean and median of every (score, metric) cell across run metrics files."""
    tables = []
    for mp in map(Path, paths):
        header, (names, *metrics) = read_table(
            mp, "metrics CSV", lambda header: [str] + [float] * (len(header) - 1))
        if header != _METRICS_HEADER:
            raise DataError(f"metrics CSV {mp} must have columns {','.join(_METRICS_HEADER)}")
        _check_unique(np.array(names, dtype=object), mp, "score")
        _check_cells(mp, {nm: (v, _UNIT) for nm, v in zip(_METRICS_HEADER[1:], metrics)})
        values = [column.tolist() for column in metrics]
        tables.append((mp, {nm: [column[i] for column in values] for i, nm in enumerate(names)}))
    first, first_rows = tables[0]
    for mp, rows in tables[1:]:
        if rows.keys() != first_rows.keys():
            only_one = sorted(rows.keys() ^ first_rows.keys())
            raise DataError(
                f"metrics CSVs {first} and {mp} differ in rows for score(s) {', '.join(only_one)}"
            )
    kinds = _METRICS_HEADER[1:]
    cells = [[rows[nm][j] for _, rows in tables] for nm in first_rows for j in range(len(kinds))]
    columns = [[nm for nm in first_rows for _ in kinds], kinds * len(first_rows),
               np.array([np.mean(v) for v in cells]), np.array([np.median(v) for v in cells])]
    out_dir = _write_out(out, {
        "aggregate.csv": _table(["score", "metric", "mean", "median"], columns),
    })
    click.echo(f"aggregated {len(paths)} run(s) into {out_dir / 'aggregate.csv'}")


@cli.command("sweep-lambda")
@click.option("--scores-csv", "scores_csv", required=True, type=_Path())
@click.option("--lambda2", "lambda2_arg", type=str, default=None,
              help="Comma-separated grid (default 0.0,0.1,...,1.0)")
@click.option("--out", required=True, type=_Path())
def cmd_sweep_lambda(scores_csv, lambda2_arg, out):
    """Metrics of the combined sum score over a lambda2 grid; writes sweep.csv."""
    _check_out(out)
    grid = _split_flag(lambda2_arg, "--lambda2")
    is_ood, columns = _read_scores_csv(scores_csv)
    for needed in ("u_s_p", "u_s_n"):
        if needed not in columns:
            raise ConfigError(f"sweep-lambda needs column {needed!r} in {scores_csv}")
    _check_score_cells(scores_csv, is_ood, columns, ("u_s_p", "u_s_n"))
    try:
        grid = [k / 10.0 for k in range(11)] if grid is None else [float(v) for v in grid]
    except ValueError as exc:
        raise ConfigError(f"bad --lambda2 grid: {exc}") from exc
    for lam in grid:
        if not (0.0 <= lam <= 1.0):
            raise ConfigError(f"lambda2 values must be in [0, 1], got {lam}")
    rows = []
    try:
        for lam in grid:
            mixed = mix_scores(lam, columns["u_s_p"], columns["u_s_n"])
            m = detection_metrics(roc_curve(ScoredDataset(scores=mixed, is_ood=is_ood)))
            rows.append((lam, m.fpr95, m.auroc, m.aupr))
    except DataError as exc:
        raise DataError(f"{scores_csv}: {exc}") from exc
    out_dir = _write_out(out, {
        "sweep.csv": _table(["lambda2", "fpr95", "auroc", "aupr"], np.array(rows).T),
    })
    click.echo(f"swept {len(grid)} lambda2 values into {out_dir / 'sweep.csv'}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except NumericError as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
