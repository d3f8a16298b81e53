"""Deterministic synthetic multi-label IND/OOD data.

IND samples draw a label subset by weight, sum the corresponding cluster
means, and add isotropic Gaussian noise.  OOD samples either translate the
IND cluster structure along a seeded random direction ("shifted") or sample
around fresh cluster means that carry none of the known class signatures
("novel_cluster").  All generation is a pure function of (spec, seed), and
no split's draw depends on another's: ``generate_split`` draws one IND split,
so gen-data draws, checks and writes one split at a time and never holds
two.  Files are JSONL with a leading comment header, each row its features
and labels; the file's name, not its rows, says which split it holds.

``write_jsonl`` also saves the parsed arrays to ``<file>.npy`` (``tables.write_text``);
``read_jsonl`` returns them while the file's bytes match and they pass _table_rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import tables
from .errors import ConfigError, DataError

_SPLITS = ("train", "val", "test")
OOD_MODES = ("shifted", "novel_cluster")
_PRESENCE_RETRIES = 20


@dataclass(frozen=True)
class SyntheticSpec:
    """Cluster layout and sampling plan for the IND data."""

    feature_dim: int
    label_count: int
    samples_per_split: dict
    label_cluster_means: np.ndarray  # (L, D)
    cluster_spread: float
    co_occurrence: list  # [(label index tuple, weight), ...]
    seed: int

    def __post_init__(self):
        means = np.asarray(self.label_cluster_means, dtype=float)
        object.__setattr__(self, "label_cluster_means", means)
        if means.shape != (self.label_count, self.feature_dim):
            raise ConfigError(
                f"cluster means must have shape ({self.label_count}, "
                f"{self.feature_dim}), got {means.shape}"
            )
        first, second = tables.equal_neighbours(means)
        if first.size:  # the row-major first pair
            k = np.argmin(first)
            raise ConfigError(f"cluster means {first[k]} and {second[k]} coincide")
        if self.cluster_spread <= 0:
            raise ConfigError("cluster_spread must be > 0")
        if set(self.samples_per_split) != set(_SPLITS):
            raise ConfigError(f"samples_per_split must cover {_SPLITS}")
        if any(n < 1 for n in self.samples_per_split.values()):
            raise ConfigError("every split needs at least one sample")
        if not self.co_occurrence:
            raise ConfigError("co_occurrence must list at least one label subset")
        covered = set()
        for subset, weight in self.co_occurrence:
            if not subset:
                raise ConfigError("empty label subset in co_occurrence")
            if weight <= 0:
                raise ConfigError("co_occurrence weights must be positive")
            if any(not (0 <= l < self.label_count) for l in subset):
                raise ConfigError(f"label index out of range in subset {subset}")
            covered.update(subset)
        if covered != set(range(self.label_count)):
            missing = sorted(set(range(self.label_count)) - covered)
            raise ConfigError(f"labels {missing} appear in no co_occurrence subset")


@dataclass(frozen=True)
class OodSpec:
    mode: str
    shift_distance: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.mode not in OOD_MODES:
            raise ConfigError(f"unknown OOD mode {self.mode!r}")
        if self.shift_distance <= 0:
            raise ConfigError("shift_distance must be > 0")
        if self.samples < 1:
            raise ConfigError("OOD sample count must be >= 1")


@dataclass(frozen=True)
class Dataset:
    """One dataset file: (N, D) features and (N, L) 0/1 labels.

    Unlabeled (OOD) rows have L = 0 and are stored with labels null.
    """

    X: np.ndarray
    Y: np.ndarray

    def __len__(self) -> int:
        return len(self.X)


def default_spec(
    feature_dim: int = 8,
    label_count: int = 5,
    samples_per_split: dict | None = None,
    cluster_spread: float = 1.0,
    mean_scale: float = 4.0,
    seed: int = 0,
) -> SyntheticSpec:
    """Spec with seeded random class-mean directions and singleton+pair subsets.

    When the feature dimension allows it the class directions are drawn
    orthonormal (QR of a seeded Gaussian matrix) so every seed gets equally
    well-separated clusters; with more labels than dimensions they fall back
    to independent unit directions.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xD5))))
    if label_count <= feature_dim:
        q, _ = np.linalg.qr(rng.normal(size=(feature_dim, label_count)))
        means = mean_scale * q.T
    else:
        means = rng.normal(size=(label_count, feature_dim))
        means *= mean_scale / np.linalg.norm(means, axis=1, keepdims=True)
    subsets = [((l,), 1.0) for l in range(label_count)]
    for l in range(label_count):
        subsets.append(((l, (l + 1) % label_count), 0.5))
    return SyntheticSpec(
        feature_dim=feature_dim,
        label_count=label_count,
        samples_per_split=samples_per_split or {"train": 2000, "val": 500, "test": 500},
        label_cluster_means=means,
        cluster_spread=cluster_spread,
        co_occurrence=subsets,
        seed=seed,
    )


def _split_rng(seed: int, tag: int, attempt: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, tag, attempt))))


def _subset_table(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each co-occurrence subset's probability (S,), label indicator row (S, L)
    and summed cluster mean (S, D)."""
    weights = np.array([w for _, w in spec.co_occurrence], dtype=float)
    indicators = np.zeros((len(spec.co_occurrence), spec.label_count), dtype=int)
    mean_sums = np.empty((len(spec.co_occurrence), spec.feature_dim))
    for k, (subset, _) in enumerate(spec.co_occurrence):
        indicators[k, list(subset)] = 1
        mean_sums[k] = spec.label_cluster_means[list(subset)].sum(axis=0)
    return weights / weights.sum(), indicators, mean_sums


def _noisy(rng: np.random.Generator, means: np.ndarray, sigma: float) -> np.ndarray:
    """The bits of means + sigma * noise, the noise drawn in means' shape, with no
    array besides means and the result."""
    x = rng.normal(size=means.shape)
    x *= sigma
    x += means
    return x


def generate_split(spec: SyntheticSpec, split: str) -> Dataset:
    """One IND split ("train", "val" or "test"), deterministically, with every label
    present; it does not depend on the other splits, so each can be drawn alone."""
    n, tag = spec.samples_per_split[split], _SPLITS.index(split)
    weights, indicators, mean_sums = _subset_table(spec)
    for attempt in range(_PRESENCE_RETRIES):
        rng = _split_rng(spec.seed, tag, attempt)
        choices = rng.choice(len(spec.co_occurrence), size=n, p=weights)
        y = indicators.take(choices, axis=0)
        # each attempt has its own generator, so a rejected one need not draw noise
        if np.all(y.sum(axis=0) > 0):
            means = mean_sums.take(choices, axis=0)
            return Dataset(X=_noisy(rng, means, spec.cluster_spread), Y=y)
    raise ConfigError(
        f"'{split}_samples' {n} is too small for 'label_count' {spec.label_count}: none of "
        f"{_PRESENCE_RETRIES} draws of the split held every label as a positive"
    )


def generate_ind(spec: SyntheticSpec) -> dict[str, Dataset]:
    """The three IND splits by name, deterministically, with every label present in each."""
    return {split: generate_split(spec, split) for split in _SPLITS}


def _row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=1), scaled by the largest entry if squares could overflow."""
    scale = float(np.abs(a).max())
    scale = scale if 1e150 <= scale < np.inf else 1.0  # dividing by 1.0 changes no bit
    return np.linalg.norm(a / scale, axis=1) * scale


def generate_ood(ind_spec: SyntheticSpec, ood_spec: OodSpec) -> np.ndarray:
    """(N, D) unlabeled OOD features at >= shift_distance * sigma from IND means."""
    rng = _split_rng(ood_spec.seed, 0x00D)
    sigma = ind_spec.cluster_spread
    if ood_spec.mode == "shifted":
        direction = rng.normal(size=ind_spec.feature_dim)
        direction /= np.linalg.norm(direction)
        offset = ood_spec.shift_distance * sigma * direction
        weights, _, mean_sums = _subset_table(ind_spec)
        choices = rng.choice(len(weights), size=ood_spec.samples, p=weights)
        return _noisy(rng, mean_sums.take(choices, axis=0) + offset, sigma)
    # novel_cluster: fresh cluster means at an IND-typical radius but carrying
    # none of the known class signatures.  Directions are sampled in the
    # orthogonal complement of the class-mean span when one exists (otherwise
    # uniformly), and the radius grows until every novel mean sits at least
    # shift_distance * sigma from every IND mean.
    means_ind = ind_spec.label_cluster_means
    q, r = np.linalg.qr(means_ind.T)
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-9 * max(1.0, np.abs(r).max())))
    span_basis = q[:, :rank] if rank < ind_spec.feature_dim else None

    def _direction():
        for _ in range(64):
            u = rng.normal(size=ind_spec.feature_dim)
            if span_basis is not None:
                u = u - span_basis @ (span_basis.T @ u)
            norm = np.linalg.norm(u)
            if norm > 1e-9:
                return u / norm
        raise DataError("could not sample a novel-cluster direction")

    n_clusters = max(2, ind_spec.label_count)
    norms = _row_norms(means_ind)
    # means below about 1e-162 have norm 0, and a zero radius never grows
    radius = max(float(np.mean(norms)), np.finfo(float).tiny)
    min_gap = ood_spec.shift_distance * sigma
    # no candidate passes while radius + min(norms) < min_gap; 1e-6 covers rounding
    while (radius + float(norms.min())) * (1.0 + 1e-6) < min_gap:
        radius *= 1.3
    novel_means = []
    while len(novel_means) < n_clusters:
        for _ in range(200):
            cand = radius * _direction()
            if np.min(_row_norms(means_ind - cand)) >= min_gap:
                novel_means.append(cand)
                break
        else:
            radius *= 1.3  # guaranteed to terminate: distance grows with radius
    picks = rng.integers(0, n_clusters, size=ood_spec.samples)
    return _noisy(rng, np.array(novel_means).take(picks, axis=0), sigma)


_HEADER = "# betaood dataset v1"
# numpy dtype kinds of a number array: bool, signed and unsigned int, float
_NUMBER = "biuf"


def write_jsonl(data: Dataset, path) -> None:
    """One JSON object per line, the bytes of json.dumps(row, separators=(",", ":")),
    after a comment header; rows without labels carry labels: null.  Before it
    opens the file it rejects what read_jsonl would not give back (_table_rule)."""
    X, Y = np.asarray(data.X), np.asarray(data.Y)
    if problem := _table_rule(X, Y):
        raise DataError(f"cannot write {path}: {problem}")
    X, Y = X.astype(float, copy=False), Y.astype(float if Y.dtype.kind == "f" else np.int64,
                                                 copy=False)
    labels = ["[", Y, "]}\n"] if Y.shape[1] else ["null}\n"]
    rows = tables.number_rows(['{"features":[', X, '],"labels":', *labels], len(X))
    # cached if the parse gives the arrays back: rows and int labels
    tables.write_text(path, chain([(_HEADER + "\n").encode()], rows),
                      [X, Y] if len(X) and Y.dtype == np.int64 else None)


def read_jsonl(path) -> Dataset:
    """Parse a dataset file; malformed lines are reported with their number.

    Every row must hold as many features and labels as the first row, every
    feature must be finite and every label 0 or 1; other keys are ignored.
    A matching cache of X and Y, if they pass _table_rule, stands in for the parse.
    """
    if not Path(path).exists():  # a directory fails the read, which says why
        raise DataError(f"dataset file not found: {Path(path)}")
    cached = tables.load_cache(path)
    if cached and len(cached) == 2:
        X, Y = cached
        if X.dtype == np.float64 and Y.dtype == np.int64 and len(X) and not _table_rule(X, Y):
            return Dataset(X=X, Y=Y)
    return _parse_jsonl(path)


def _parse_jsonl(path) -> Dataset:
    """The rows in file order; raises for the first bad line.  Each line is an
    object whose features and labels are lists of numbers, as many as the first
    row's, and each row, as a one-row table, meets _table_rule."""
    rows, problem = [], None  # rows: each row's (features, labels, line)
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    doc = json.loads(line)
                    x, y = doc["features"], doc["labels"]
                    y = [] if y is None else y
                    # json.loads gives int or float for a number, bool for true and false
                    if not (type(x) is type(y) is list
                            and {*map(type, x), *map(type, y)} <= {int, float}):
                        problem = "features and labels must be lists of numbers, not true or false"
                    elif rows and (len(x), len(y)) != (rows[0][0].size, rows[0][1].size):
                        problem = (f"{len(x)} features and {len(y)} labels, but line "
                                   f"{rows[0][2]} has {rows[0][0].size} and {rows[0][1].size}")
                    else:
                        rows.append((np.array(x, dtype=float), np.array(y), lineno))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    problem = f"malformed dataset line: {exc}"
                if problem:
                    break
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    if rows:
        features, labels, _ = zip(*rows)
        X, Y = np.array(features), np.array(labels)
        # every row meets the rule if the stacked table does; only otherwise is
        # each row checked, in file order
        if _table_rule(X, Y):
            for x, y, row_line in rows:
                if rule := _table_rule(x[None], y[None]):
                    raise DataError(f"{path}:{row_line}: {rule}")
    if problem:
        raise DataError(f"{path}:{lineno}: {problem}")
    if not rows:
        return Dataset(X=np.empty((0, 0)), Y=np.empty((0, 0), dtype=int))
    return Dataset(X=X, Y=Y.astype(int, copy=False))


def _table_rule(X: np.ndarray, Y: np.ndarray) -> str | None:
    """The first rule that a table of features X and labels Y breaks, or None:
    X and Y are 2-D with one row per sample; X holds finite numbers, not numeric
    strings; Y the numbers 0 or 1, not bools (written True/False, which is not JSON)."""
    if not (X.ndim == Y.ndim == 2 and len(X) == len(Y)):
        return (f"features and labels must be 2-D with one row per sample, "
                f"got shapes {X.shape} and {Y.shape}")
    if X.dtype.kind not in _NUMBER or not np.isfinite(X).all():
        return "features must be finite numbers"
    if Y.dtype.kind == "b":
        return "labels must be the numbers 0 or 1, not bools"
    if Y.dtype.kind not in _NUMBER:
        return f"labels must be the numbers 0 or 1, got dtype {Y.dtype}"
    if (bad := Y[(Y != 0) & (Y != 1)]).size:
        return f"labels must be the numbers 0 or 1, got {bad[0].item()!r}"
    return None
