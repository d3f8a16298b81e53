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
    OOD_MODES,
    Dataset,
    OodSpec,
    default_spec,
    generate_ood,
    generate_split,
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
from .tables import equal_neighbours, read_table, row_line, write_table

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
            with open(path, encoding="utf-8") as fh:
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


def _table(header: list[str], parts, cache: bool = False):
    """A _write_out writer of a CSV table (tables.write_table)."""
    return lambda path: write_table(path, header, parts, cache)


def _config_json(cfg: dict):
    """A _write_out writer of the effective config, echoed into each command's --out."""
    return lambda path: Path(path).write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n",
                                              encoding="utf-8")


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


@contextlib.contextmanager
def _array_sizes(keys: str, source: str):
    """Report a size that no array can hold, met while the block builds its
    arrays, as a config error naming the size ``keys`` and their ``source``."""
    try:
        yield
    except (OverflowError, ValueError, MemoryError):
        raise ConfigError(f"arrays too large to build: lower {keys} in {source}") from None


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
    """Generate the four JSONL dataset files (train/val/test/ood).

    The splits are drawn, checked and written one at a time in that order, so no
    two splits' arrays are held together."""
    cfg = _load_config(config_path, _GEN_DEFAULTS, {"seed": seed, "name": name})
    where = "command line" if name is not None else f"config {config_path}"
    _check_name(cfg["name"], ".train.jsonl.npy", f"malformed {where}: 'name'", ConfigError)
    source = f"config {config_path}"
    # the specs' checks that a config can fail, each by its gen-data key
    for key, bad, rule in (("cluster_spread", cfg["cluster_spread"] <= 0, "must be > 0"),
                           ("ood_mode", cfg["ood_mode"] not in OOD_MODES,
                            f"must be one of {OOD_MODES}"),
                           ("ood_shift", cfg["ood_shift"] <= 0, "must be > 0")):
        if bad:
            raise ConfigError(f"malformed {source}: {key!r} {rule}, got {cfg[key]!r}")
    _check_out(out)
    samples = {split: cfg[f"{split}_samples"] for split in ("train", "val", "test")}
    with _array_sizes("feature_dim, label_count", source):
        try:
            spec = default_spec(cfg["feature_dim"], cfg["label_count"], samples,
                                cfg["cluster_spread"], cfg["mean_scale"], cfg["seed"])
        except ConfigError as exc:  # the cluster means coincide
            blame = (f"'mean_scale' {cfg['mean_scale']!r} is too small to tell the label "
                     "clusters apart" if cfg["feature_dim"] > 1 or not cfg["mean_scale"] else
                     f"'feature_dim' 1 gives the 'label_count' {cfg['label_count']} label "
                     "clusters only the directions -1 and +1")
            raise ConfigError(f"malformed {source}: {blame} ({exc})") from None
    ood_spec = OodSpec(cfg["ood_mode"], cfg["ood_shift"], cfg["ood_samples"], cfg["seed"])
    overflow = []  # the first split whose features overflow

    def draw(split: str) -> Dataset:
        """One split as generate_ind or generate_ood draws it; an error names its keys."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught by write
            if split == "ood":
                with _array_sizes("feature_dim, ood_samples", source):
                    X = generate_ood(spec, ood_spec)
                return Dataset(X=X, Y=np.zeros((len(X), 0), dtype=int))
            with _array_sizes("feature_dim, label_count, train_samples, val_samples, "
                              "test_samples", source):
                try:
                    return generate_split(spec, split)
                except ConfigError as exc:  # a split too small to hold every label
                    raise ConfigError(f"malformed {source}: {exc}") from None

    def write(split: str, path: str) -> None:
        """Draw a split, then write it.  After an overflow the later splits are only
        drawn, as a generation error of any split wins; the last one, ood, reports it."""
        ds = draw(split)
        if not overflow and not np.isfinite(ds.X).all():
            overflow.append(split)
        if not overflow:
            write_jsonl(ds, path)
        elif split == "ood":
            keys = "cluster_spread, mean_scale" + ", ood_shift" * (overflow[0] == "ood")
            raise NumericError(f"{overflow[0]} features overflow: lower {keys} in {source}")

    base = cfg["name"]
    out_dir = _write_out(out, {
        **{f"{base}.{split}.jsonl": functools.partial(write, split)
           for split in ("train", "val", "test", "ood")},
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
    ds = read_jsonl(train_path)
    if not len(ds):
        raise DataError(f"training file {train_path} is empty")
    for what, values in (("labels", ds.Y), ("features", ds.X)):
        if not values.shape[1]:
            raise DataError(f"training file {train_path} has no {what}")
    arch = ArchConfig(input_dim=ds.X.shape[1], hidden=tuple(cfg["hidden"]),
                      label_count=ds.Y.shape[1])
    tc = TrainConfig(**{k: v for k, v in cfg.items() if k != "hidden"})
    with _array_sizes("hidden", f"config {config_path}"):
        ckpt = train(ds.X, ds.Y, arch, tc)
    _write_out(out, {
        "checkpoint.json": lambda path: Path(path).write_text(checkpoint_to_json(ckpt) + "\n",
                                                              encoding="utf-8"),
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
        return checkpoint_from_json(ckpt_path.read_text(encoding="utf-8"))
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
    """Score test (IND) and OOD samples; writes scores.csv and preds.csv.

    Each group's scores fill its rows of one (test + OOD, scores) matrix, whose
    columns scores.csv writes; only the test group's probabilities are kept."""
    overrides = {"scores": _split_flag(scores_arg, "--scores"), "lambda1": lambda1,
                 "lambda2": lambda2}
    cfg = _load_config(config_path, _SCORE_DEFAULTS, overrides)
    source = {key: f"command line: --{key}" if flag is not None else
              f"config {config_path}: {key!r}" for key, flag in overrides.items()}
    for key in ("lambda1", "lambda2"):
        _lambda_value(cfg[key], source[key])
    requested = cfg["scores"]
    _check_score_names(requested, SCORE_NAMES, "valid", source["scores"])
    _check_out(out)
    ckpt = _load_checkpoint(checkpoint)
    test_path = Path(f"{data}.test.jsonl")
    ood_path = Path(f"{data}.ood.jsonl")
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

    # one row per sample, test then OOD; each group's logits and evidence go before the next
    values = np.empty((len(test) + len(ood), len(requested)))
    for rows, path, group in ((slice(0, len(test)), test_path, test),
                              (slice(len(test), None), ood_path, ood)):
        # finite logits near the float maximum can still overflow evidence or scores
        try:
            with np.errstate(over="raise", invalid="raise"):
                logits, ev, pred = predict_batch(ckpt.params, group.X)
                for j, nm in enumerate(requested):
                    values[rows, j] = score_by_name(
                        nm, ev, logits, cfg["lambda1"], cfg["lambda2"]
                    )
        except (NumericError, FloatingPointError) as exc:
            raise NumericError(f"checkpoint {checkpoint} on {path}: {exc}") from None
        if group is test:  # preds.csv holds the test rows only
            probs = pred.p
        del logits, ev, pred

    is_ood = np.repeat([0, 1], [len(test), len(ood)])
    _write_out(out, {
        "scores.csv": _table(["sample_id", "is_ood", *requested],
                             [np.arange(is_ood.size), is_ood, values], True),
        "preds.csv": _table(_preds_header(ckpt.params.arch.label_count),
                            [np.arange(len(test)), probs, test.Y], True),
        "score_config.json": _config_json(cfg),
    })
    click.echo(f"scored {len(test) + len(ood)} samples ({len(test)} IND, {len(ood)} OOD)")


def _check_score_names(names: list, known, listing: str, source: str) -> None:
    """At least one score name is requested, each one of ``known`` and listed once;
    ``source`` names the file and key, or the flag, that requested them."""
    if not names:
        problem = "is empty: list at least one score name"
    elif unknown := [nm for nm in names if nm not in known]:
        problem = f"holds unknown score name(s) {', '.join(unknown)}; {listing}: {', '.join(known)}"
    elif twice := [nm for i, nm in enumerate(names) if nm in names[:i]]:
        problem = f"lists score name {twice[0]!r} twice"
    else:
        return
    raise ConfigError(f"malformed {source} {problem}")


def _preds_header(n_labels: int) -> list[str]:
    """The columns of a predictions CSV, as score writes them and eval reads them."""
    return ["sample_id", *(f"p_{j}" for j in range(n_labels)),
            *(f"y_{j}" for j in range(n_labels))]


_METRICS_HEADER = ["score", "fpr95", "auroc", "aupr"]


def _read_scores_csv(path):
    """Returns (is_ood array, {score name: value array}); sample ids must be distinct."""

    def schema(header):
        if header[:2] != ["sample_id", "is_ood"] or len(header) == 2:
            raise DataError(f"scores CSV {path} must have columns sample_id, is_ood, then scores")
        if len(set(header)) != len(header):
            raise DataError(f"scores CSV {path} names a column twice")
        return [int, int] + [float] * (len(header) - 2)

    header, columns = read_table(path, "scores CSV", schema)
    _check_unique(columns[0], path, "sample_id")
    return columns[1], dict(zip(header[2:], columns[2:]))


def _check_unique(values: np.ndarray, path, what: str) -> None:
    """Reject the first value that repeats an earlier row, naming the lines where both
    rows start (tables.row_line)."""
    first, second = equal_neighbours(values)
    if second.size:  # the least second is its run's second row, paired with the first
        k = np.argmin(second)
        i, earlier = second[k], first[k]
        raise DataError(f"{path}:{row_line(path, i)}: {what} {values.tolist()[i]!r} repeats "
                        f"line {row_line(path, earlier)}")


# What a CSV cell may hold: (test over a column's values, what the cell must be).
_FINITE = (np.isfinite, "a finite number")
_BINARY = (lambda v: (v == 0) | (v == 1), "0 or 1")
_UNIT = (lambda v: (v >= 0) & (v <= 1), "a number in [0, 1]")


def _check_cells(path, cells: dict) -> None:
    """Reject the first cell, by row and then by column, that breaks its rule;
    ``cells`` maps each checked column's name to its values and its rule."""
    first = None
    for nm, (values, (test, wanted)) in cells.items():
        ok = test(values)
        if not ok.all() and (first is None or np.argmin(ok) < first[0]):
            first = (int(np.argmin(ok)), nm, wanted)
    if first is not None:
        i, nm, wanted = first
        raise DataError(f"{path}:{row_line(path, i)}: column {nm!r} holds "
                        f"{cells[nm][0][i].item()!r}, not {wanted}")


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
    _check_score_names(requested, list(columns), f"columns of {scores_csv}",
                       "command line: --scores")
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
    files["metrics.csv"] = _table(_METRICS_HEADER, [requested, np.array(rows)])
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


def _lambda_value(value, source: str):
    """A lambda: a number in [0, 1], or a str that float reads as one (a --lambda2 grid
    value); ``source`` names the flag, or the config file and key, that gave it."""
    with contextlib.suppress(ValueError):
        value = float(value) if isinstance(value, str) else value
    if isinstance(value, str) or not 0.0 <= value <= 1.0:
        raise ConfigError(f"malformed {source} must be in [0, 1], got {value!r}")
    return value


@cli.command("sweep-lambda")
@click.option("--scores-csv", "scores_csv", required=True, type=_Path())
@click.option("--lambda2", "lambda2_arg", type=str, default=None,
              help="Comma-separated grid (default 0.0,0.1,...,1.0)")
@click.option("--out", required=True, type=_Path())
def cmd_sweep_lambda(scores_csv, lambda2_arg, out):
    """Metrics of the combined sum score over a lambda2 grid; writes sweep.csv."""
    _check_out(out)
    grid = _split_flag(lambda2_arg, "--lambda2")
    grid = ([k / 10.0 for k in range(11)] if grid is None
            else [_lambda_value(v, "command line: --lambda2") for v in grid])
    if twice := [lam for i, lam in enumerate(grid) if lam in grid[:i]]:
        raise ConfigError(f"malformed command line: --lambda2 lists {twice[0]!r} twice")
    is_ood, columns = _read_scores_csv(scores_csv)
    for needed in ("u_s_p", "u_s_n"):
        if needed not in columns:
            raise DataError(f"scores CSV {scores_csv} has no column {needed!r} for sweep-lambda")
    _check_score_cells(scores_csv, is_ood, columns, ("u_s_p", "u_s_n"))
    rows = []
    try:
        for lam in grid:
            mixed = mix_scores(lam, columns["u_s_p"], columns["u_s_n"])
            m = detection_metrics(roc_curve(ScoredDataset(scores=mixed, is_ood=is_ood)))
            rows.append((lam, m.fpr95, m.auroc, m.aupr))
    except DataError as exc:
        raise DataError(f"{scores_csv}: {exc}") from exc
    out_dir = _write_out(out, {
        "sweep.csv": _table(["lambda2", "fpr95", "auroc", "aupr"], [np.array(rows)]),
    })
    click.echo(f"swept {len(grid)} lambda2 values into {out_dir / 'sweep.csv'}")


def main(argv=None) -> int:
    try:
        return cli.main(args=argv, standalone_mode=False) or 0  # click returns an Exit's code
    except click.Abort:  # Ctrl-C or end of input during a command, as click's standalone mode
        click.echo("Aborted!", err=True)
        return 1
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except NumericError as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
