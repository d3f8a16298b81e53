"""Command-line pipeline: gen-data, train, score, eval, sweep-lambda.

Config precedence is flags > config file > defaults; the effective config
is echoed into every output directory.  Exit codes: 0 success, 1 usage or
config error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import json
import os
import sys
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

_TRAIN_DEFAULTS = {
    "hidden": [32],
    "learning_rate_backbone": 0.05,
    "learning_rate_head": 10.0,
    "epochs": 20,
    "batch_size": 64,
    "seed": 0,
}

_SCORE_DEFAULTS = {
    "scores": list(SCORE_NAMES),
    "lambda1": 0.5,
    "lambda2": 0.5,
}


# What a config value must be, by the type of its default: (one, list of them).
_EXPECTED = {
    int: ("an integer", "integers"),
    float: ("a finite number", "finite numbers"),
    str: ("a string", "strings"),
}


def _has_type_of(value, default) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, type(default))


def _check_types(doc: dict, defaults: dict, path) -> None:
    """Each value must have its default's type; a list, its first element's."""
    for key, value in doc.items():
        default = defaults[key]
        if isinstance(default, list):
            ok = isinstance(value, list) and all(_has_type_of(v, default[0]) for v in value)
            expected = f"a list of {_EXPECTED[type(default[0])][1]}"
        else:
            ok = _has_type_of(value, default)
            expected = _EXPECTED[type(default)][0]
        if not ok:
            raise ConfigError(
                f"config key {key!r} in {path} must be {expected}, got {value!r}"
            )


def _load_config(path, defaults: dict, overrides: dict) -> dict:
    """Merge defaults < config file < explicit flags; reject unknown keys and
    values whose type differs from the default's."""
    merged = dict(defaults)
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
        _check_types(doc, defaults, path)
        merged.update(doc)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return merged


def _check_out(out: str) -> None:
    """Reject an --out that could not be created before any work is done: its
    nearest existing ancestor must be a writable directory.  Creates nothing."""
    existing = Path(out).absolute()
    while not os.path.exists(existing):
        existing = existing.parent
    if not existing.is_dir():
        problem = "is not a directory"
    elif not os.access(existing, os.W_OK | os.X_OK):
        problem = "is not writable"
    else:
        return
    raise ConfigError(f"cannot create output directory {out}: {existing} {problem}")


def _prepare_out(out: str) -> Path:
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return out_dir


def _echo_config(out_dir: Path, command: str, cfg: dict) -> None:
    with open(out_dir / f"{command}_config.json", "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
        fh.write("\n")


@click.group()
def cli():
    """Beta-evidential multi-label OOD detection pipeline."""


@cli.command("gen-data")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
def cmd_gen_data(config_path, out, seed, name):
    """Generate the four JSONL dataset files (train/val/test/ood)."""
    cfg = _load_config(config_path, _GEN_DEFAULTS, {"seed": seed, "name": name})
    out_dir = _prepare_out(out)
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
    for split, ds in ind.items():
        write_jsonl(ds, out_dir / f"{base}.{split}.jsonl")
    unlabeled = np.zeros((len(ood), 0), dtype=int)
    write_jsonl(Dataset(X=ood, Y=unlabeled, split="ood"), out_dir / f"{base}.ood.jsonl")
    _echo_config(out_dir, "gen_data", cfg)
    click.echo(f"wrote {base}.{{train,val,test,ood}}.jsonl to {out_dir}")


@cli.command("train")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--data", required=True, type=str,
              help="Dataset prefix, e.g. outdir/synth")
@click.option("--out", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
def cmd_train(config_path, data, out, seed, epochs, batch_size):
    """Train the two-head network; writes checkpoint.json, prints loss CSV."""
    cfg = _load_config(
        config_path,
        _TRAIN_DEFAULTS,
        {"seed": seed, "epochs": epochs, "batch_size": batch_size},
    )
    _check_out(out)
    train_path = Path(f"{data}.train.jsonl")
    if not train_path.is_file():
        raise DataError(f"training file not found: {train_path}")
    ds = read_jsonl(train_path)
    if not len(ds):
        raise DataError(f"training file {train_path} is empty")
    if not ds.Y.shape[1]:
        raise DataError(f"training file {train_path} has no labels")
    arch = ArchConfig(
        input_dim=ds.X.shape[1],
        hidden=tuple(cfg["hidden"]),
        label_count=ds.Y.shape[1],
    )
    tc = TrainConfig(
        learning_rate_backbone=cfg["learning_rate_backbone"],
        learning_rate_head=cfg["learning_rate_head"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        seed=cfg["seed"],
    )
    ckpt = train(ds.X, ds.Y, arch, tc)
    # created only now, so that a run that fails leaves no directory behind
    out_dir = _prepare_out(out)
    with open(out_dir / "checkpoint.json", "w") as fh:
        fh.write(checkpoint_to_json(ckpt))
        fh.write("\n")
    _echo_config(out_dir, "train", cfg)
    click.echo("epoch,mean_loss")
    for i, loss_value in enumerate(ckpt.loss_trace, start=1):
        click.echo(f"{i},{loss_value!r}")


def _load_checkpoint(path):
    ckpt_path = Path(path)
    if not ckpt_path.is_file():
        raise DataError(f"checkpoint not found: {ckpt_path}")
    try:
        return checkpoint_from_json(ckpt_path.read_text())
    except (ConfigError, DataError) as exc:
        raise DataError(f"checkpoint {ckpt_path}: {exc}") from exc


@cli.command("score")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--checkpoint", required=True, type=click.Path())
@click.option("--data", required=True, type=str)
@click.option("--out", required=True, type=click.Path())
@click.option("--scores", "scores_arg", type=str, default=None,
              help="Comma-separated score names")
@click.option("--lambda1", type=float, default=None)
@click.option("--lambda2", type=float, default=None)
def cmd_score(config_path, checkpoint, data, out, scores_arg, lambda1, lambda2):
    """Score test (IND) and OOD samples; writes scores.csv and preds.csv."""
    overrides = {
        "scores": scores_arg.split(",") if scores_arg else None,
        "lambda1": lambda1,
        "lambda2": lambda2,
    }
    cfg = _load_config(config_path, _SCORE_DEFAULTS, overrides)
    requested = cfg["scores"]
    bad = [s for s in requested if s not in SCORE_NAMES]
    if bad:
        raise ConfigError(
            f"unknown score name(s) {', '.join(bad)}; valid: {', '.join(SCORE_NAMES)}"
        )
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
        if len(group) and group.X.shape[1] != input_dim:
            raise DataError(
                f"{p} has {group.X.shape[1]} features per row, but "
                f"checkpoint {checkpoint} expects {input_dim}"
            )

    groups = []  # (is_ood, (N, k) score matrix, (N, L) probabilities)
    for is_ood, path, group in ((0, test_path, test), (1, ood_path, ood)):
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
        groups.append((str(is_ood), values, pred.p))

    # created only now, so that a run that fails leaves no directory behind
    out_dir = _prepare_out(out)
    # cells are repr of Python floats (not np.float64): shortest round-trip text
    rows = ((is_ood, row) for is_ood, values, _ in groups for row in values.tolist())
    score_rows = ([str(i), is_ood, *map(repr, row)] for i, (is_ood, row) in enumerate(rows))
    write_table(out_dir / "scores.csv", ["sample_id", "is_ood", *requested], score_rows)
    pred_rows = (
        [str(i), *map(repr, p), *map(str, y)]
        for i, (p, y) in enumerate(zip(groups[0][2].tolist(), test.Y.tolist()))
    )
    n_labels = ckpt.params.arch.label_count
    header = ["sample_id"]
    header += [f"p_{j}" for j in range(n_labels)]
    header += [f"y_{j}" for j in range(n_labels)]
    write_table(out_dir / "preds.csv", header, pred_rows)
    _echo_config(out_dir, "score", cfg)
    click.echo(f"scored {len(test) + len(ood)} samples ({len(test)} IND, {len(ood)} OOD)")


def _read_scores_csv(path):
    """Returns (is_ood array, {score name: value array}); sample ids must be distinct."""

    def schema(header):
        if header[:2] != ["sample_id", "is_ood"]:
            raise DataError(
                f"scores CSV {path} must start with sample_id,is_ood columns"
            )
        if len(set(header[2:])) != len(header) - 2:
            raise DataError(f"scores CSV {path} names a score column twice")
        return [int, int] + [float] * (len(header) - 2)

    header, columns = read_table(path, "scores CSV", schema)
    _check_unique(columns[0].tolist(), path, "sample_id")
    return columns[1], dict(zip(header[2:], columns[2:]))


def _check_unique(values: list, path, what: str) -> None:
    """Reject the first value that repeats an earlier row, by line (header is line 1)."""
    seen = {}
    for i, value in enumerate(values):
        if value in seen:
            raise DataError(
                f"{path}:{i + 2}: {what} {value!r} repeats line {seen[value] + 2}"
            )
        seen[value] = i


def _check_finite(columns: dict, names, path) -> None:
    """Reject the first non-finite score of the named columns by line and column."""
    for nm in names:
        bad = np.flatnonzero(~np.isfinite(columns[nm]))
        if bad.size:
            raise DataError(
                f"{path}:{bad[0] + 2}: column {nm!r} holds a non-finite score "
                f"({float(columns[nm][bad[0]])!r})"
            )


def _read_preds_csv(path):
    """Returns the (N, L) probabilities and the (N, L) labels."""

    def schema(header):
        n_labels = sum(1 for h in header if h.startswith("p_"))
        if header[:1] != ["sample_id"] or n_labels < 1 or len(header) != 1 + 2 * n_labels:
            raise DataError(
                f"predictions CSV {path} must have columns sample_id, p_0.., y_0.."
            )
        return [None] + [float] * n_labels + [int] * n_labels

    header, columns = read_table(path, "predictions CSV", schema)
    n_labels = len(header) // 2
    return np.column_stack(columns[1 : 1 + n_labels]), np.column_stack(columns[1 + n_labels :])


@cli.command("eval")
@click.option("--scores-csv", "scores_csv", type=click.Path(), default=None)
@click.option("--scores", "scores_arg", type=str, default=None,
              help="Comma-separated score names (default: all columns)")
@click.option("--preds", "preds_csv", type=click.Path(), default=None)
@click.option("--aggregate", type=str, default=None,
              help="Comma-separated metrics.csv paths to aggregate (mean+median)")
@click.option("--out", required=True, type=click.Path())
def cmd_eval(scores_csv, scores_arg, preds_csv, aggregate, out):
    """Detection metrics per score plus ROC export; or aggregate over runs."""
    out_dir = _prepare_out(out)
    if aggregate is not None:
        _aggregate_metrics(aggregate.split(","), out_dir)
        return
    if scores_csv is None:
        raise ConfigError("either --scores-csv or --aggregate is required")
    is_ood, columns = _read_scores_csv(scores_csv)
    requested = scores_arg.split(",") if scores_arg else list(columns)
    missing = [s for s in requested if s not in columns]
    if missing:
        raise ConfigError(
            f"score column(s) not in {scores_csv}: {', '.join(missing)}"
        )
    # every column is checked before any output file is written
    _check_finite(columns, requested, scores_csv)
    try:
        datasets = [
            (nm, ScoredDataset(scores=columns[nm], is_ood=is_ood)) for nm in requested
        ]
    except DataError as exc:
        raise DataError(f"{scores_csv}: {exc}") from exc
    if preds_csv is not None:
        probs, labels = _read_preds_csv(preds_csv)
        try:
            value = mean_average_precision(probs, labels)
        except DataError as exc:
            raise DataError(f"{preds_csv}: {exc}") from exc
    rows = []
    for nm, ds in datasets:
        curve = roc_curve(ds)
        m = detection_metrics(curve)
        rows.append([nm, repr(m.fpr95), repr(m.auroc), repr(m.aupr)])
        write_roc_csv(curve, out_dir / f"roc_{nm}.csv")
    write_table(out_dir / "metrics.csv", ["score", "fpr95", "auroc", "aupr"], rows)
    if preds_csv is not None:
        write_table(out_dir / "map.csv", ["metric", "value"], [["map", repr(value)]])
    click.echo(f"evaluated {len(requested)} score(s) into {out_dir}")


def _metrics_schema(header):
    return [str] + [float] * (len(header) - 1)


def _aggregate_metrics(paths, out_dir: Path) -> None:
    """Mean and median of every (score, metric) cell across run metrics files."""
    tables = []
    for p in paths:
        mp = Path(p)
        header, (names, *metrics) = read_table(mp, "metrics CSV", _metrics_schema)
        _check_unique(names, mp, "score")
        values = [column.tolist() for column in metrics]
        rows = {nm: [column[i] for column in values] for i, nm in enumerate(names)}
        tables.append((mp, header[1:], rows))
    first, metric_names, first_rows = tables[0]
    for mp, header, rows in tables[1:]:
        if header != metric_names:
            raise DataError(
                f"metrics CSV {mp} has metric columns {header}, "
                f"but {first} has {metric_names}"
            )
        missing = [nm for nm in first_rows if nm not in rows]
        if missing:
            raise DataError(
                f"metrics CSV {mp} has no row for score(s) {', '.join(missing)} "
                f"found in {first}"
            )
        extra = [nm for nm in rows if nm not in first_rows]
        if extra:
            raise DataError(
                f"metrics CSV {first} has no row for score(s) {', '.join(extra)} "
                f"found in {mp}"
            )
    out_rows = []
    for nm in first_rows:
        for j, metric in enumerate(metric_names):
            values = [rows[nm][j] for _, _, rows in tables]
            out_rows.append(
                [nm, metric, repr(float(np.mean(values))), repr(float(np.median(values)))]
            )
    write_table(out_dir / "aggregate.csv", ["score", "metric", "mean", "median"], out_rows)
    click.echo(f"aggregated {len(paths)} run(s) into {out_dir / 'aggregate.csv'}")


@cli.command("sweep-lambda")
@click.option("--scores-csv", "scores_csv", required=True, type=click.Path())
@click.option("--lambda2", "lambda2_arg", type=str, default=None,
              help="Comma-separated grid (default 0.0,0.1,...,1.0)")
@click.option("--out", required=True, type=click.Path())
def cmd_sweep_lambda(scores_csv, lambda2_arg, out):
    """Metrics of the combined sum score over a lambda2 grid; writes sweep.csv."""
    out_dir = _prepare_out(out)
    is_ood, columns = _read_scores_csv(scores_csv)
    for needed in ("u_s_p", "u_s_n"):
        if needed not in columns:
            raise ConfigError(
                f"sweep-lambda needs column {needed!r} in {scores_csv}"
            )
    _check_finite(columns, ("u_s_p", "u_s_n"), scores_csv)
    if lambda2_arg:
        try:
            grid = [float(v) for v in lambda2_arg.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --lambda2 grid: {exc}") from exc
    else:
        grid = [k / 10.0 for k in range(11)]
    for lam in grid:
        if not (0.0 <= lam <= 1.0):
            raise ConfigError(f"lambda2 values must be in [0, 1], got {lam}")
    # every grid point is checked before sweep.csv is written
    try:
        datasets = [
            ScoredDataset(
                scores=mix_scores(lam, columns["u_s_p"], columns["u_s_n"]),
                is_ood=is_ood,
            )
            for lam in grid
        ]
    except DataError as exc:
        raise DataError(f"{scores_csv}: {exc}") from exc
    rows = []
    for lam, ds in zip(grid, datasets):
        m = detection_metrics(roc_curve(ds))
        rows.append([repr(lam), repr(m.fpr95), repr(m.auroc), repr(m.aupr)])
    write_table(out_dir / "sweep.csv", ["lambda2", "fpr95", "auroc", "aupr"], rows)
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
