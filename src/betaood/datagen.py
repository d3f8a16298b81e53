"""Deterministic synthetic multi-label IND/OOD data.

IND samples draw a label subset by weight, sum the corresponding cluster
means, and add isotropic Gaussian noise.  OOD samples either translate the
IND cluster structure along a seeded random direction ("shifted") or sample
around fresh cluster means that carry none of the known class signatures
("novel_cluster").  All generation is a pure function of (spec, seed);
files are JSONL with a leading comment header.

``write_jsonl`` also saves the parsed arrays to ``<file>.npy`` (``tables.save_cache``);
``read_jsonl`` returns them while the file's bytes match and they pass the row rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tables
from .errors import ConfigError, DataError

_SPLITS = ("train", "val", "test")
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
        for i in range(self.label_count):
            for j in range(i + 1, self.label_count):
                if np.array_equal(means[i], means[j]):
                    raise ConfigError(f"cluster means {i} and {j} coincide")
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
        if self.mode not in ("shifted", "novel_cluster"):
            raise ConfigError(f"unknown OOD mode {self.mode!r}")
        if self.shift_distance <= 0:
            raise ConfigError("shift_distance must be > 0")
        if self.samples < 1:
            raise ConfigError("OOD sample count must be >= 1")


@dataclass(frozen=True)
class Dataset:
    """One dataset file: (N, D) features, (N, L) 0/1 labels and the rows' split.

    Unlabeled (OOD) rows have L = 0 and are stored with labels null; split
    is None for a file with no rows.
    """

    X: np.ndarray
    Y: np.ndarray
    split: str | None

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


def _generate_split(spec: SyntheticSpec, split: str, tag: int) -> Dataset:
    n = spec.samples_per_split[split]
    weights, indicators, mean_sums = _subset_table(spec)
    for attempt in range(_PRESENCE_RETRIES):
        rng = _split_rng(spec.seed, tag, attempt)
        choices = rng.choice(len(spec.co_occurrence), size=n, p=weights)
        y = indicators[choices]
        # each attempt has its own generator, so a rejected one need not draw noise
        if np.all(y.sum(axis=0) > 0):
            noise = rng.normal(size=(n, spec.feature_dim))
            return Dataset(X=mean_sums[choices] + spec.cluster_spread * noise, Y=y, split=split)
    raise DataError(
        f"split {split!r} missing some label as positive after "
        f"{_PRESENCE_RETRIES} regeneration attempts; increase the sample count"
    )


def generate_ind(spec: SyntheticSpec) -> dict[str, Dataset]:
    """The three IND splits by name, deterministically, with every label present in each."""
    return {split: _generate_split(spec, split, tag) for tag, split in enumerate(_SPLITS)}


def generate_ood(ind_spec: SyntheticSpec, ood_spec: OodSpec) -> np.ndarray:
    """(N, D) unlabeled OOD features at >= shift_distance * sigma from IND means."""
    rng = _split_rng(ood_spec.seed, 0x00D)
    sigma = ind_spec.cluster_spread
    shape = (ood_spec.samples, ind_spec.feature_dim)
    if ood_spec.mode == "shifted":
        direction = rng.normal(size=ind_spec.feature_dim)
        direction /= np.linalg.norm(direction)
        offset = ood_spec.shift_distance * sigma * direction
        weights, _, mean_sums = _subset_table(ind_spec)
        choices = rng.choice(len(weights), size=ood_spec.samples, p=weights)
        return mean_sums[choices] + offset + sigma * rng.normal(size=shape)
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
    radius = float(np.mean(np.linalg.norm(means_ind, axis=1)))
    min_gap = ood_spec.shift_distance * sigma
    novel_means = []
    while len(novel_means) < n_clusters:
        accepted = False
        for _ in range(200):
            cand = radius * _direction()
            if np.min(np.linalg.norm(means_ind - cand, axis=1)) >= min_gap:
                novel_means.append(cand)
                accepted = True
                break
        if not accepted:
            radius *= 1.3  # guaranteed to terminate: distance grows with radius
    picks = rng.integers(0, n_clusters, size=ood_spec.samples)
    return np.array(novel_means)[picks] + sigma * rng.normal(size=shape)


_HEADER = "# betaood dataset v1"
# numpy dtype kinds of a number array: bool, signed and unsigned int, float
_NUMBER = "biuf"


def write_jsonl(data: Dataset, path) -> None:
    """One JSON object per line, the bytes of json.dumps(row, separators=(",", ":")),
    after a comment header; rows without labels carry labels: null.  Rejects
    what read_jsonl would: non-finite features, labels other than 0 or 1 or
    stored as bools (written as True/False, which is not JSON), and rows whose
    split is not a string."""
    X = np.asarray(data.X, dtype=float)
    if not np.isfinite(X).all():
        raise DataError(f"cannot write {path}: features must be finite")
    if data.Y.dtype.kind == "b" or _broken_rule(X, data.Y, None, [], 2, None):
        raise DataError(f"cannot write {path}: labels must be the numbers 0 or 1, not bools")
    if len(X) and (problem := _broken_rule(X, data.Y, None, [data.split], 2, None)):
        raise DataError(f"cannot write {path}: {problem}")
    labeled = data.Y.shape[1] > 0
    tail = ',"split":' + json.dumps(data.split) + "}\n"
    chunk = tables.CHUNK_ROWS
    with open(path, "wb") as fh:  # ASCII: json.dumps escapes every other character
        fh.write(block := (_HEADER + "\n").encode())
        key = tables.digest([block])
        for start in range(0, len(X), chunk):
            rows = zip(X[start : start + chunk].tolist(), data.Y[start : start + chunk].tolist())
            fh.write(block := "".join([
                '{"features":[' + ",".join(map(repr, x)) + '],"labels":'
                + ("[" + ",".join(map(str, y)) + "]" if labeled else "null") + tail
                for x, y in rows
            ]).encode())
            key = tables.digest([block], key)
    # cached if the parse gives the arrays back: rows, int labels, a split numpy keeps
    fit = (len(X) and len(data.Y) == len(X) and data.Y.dtype.kind in "iu"
           and np.array(data.split).item() == data.split)  # not one ending in NUL
    arrays = [X, data.Y.astype(np.int64), np.array(data.split)]
    tables.save_cache(path, key, arrays if fit else None)


def read_jsonl(path) -> Dataset:
    """Parse a dataset file; malformed lines are reported with their number.

    Every row must hold as many features and labels as the first row, every
    feature must be finite and every label 0 or 1; the split is the first row's.
    A matching cache, if its arrays pass the row rules, stands in for the parse.
    """
    cached = tables.load_cache(path)
    if cached and len(cached) == 3:
        X, Y, split = cached
        if (X.dtype == np.float64 and Y.dtype == np.int64 and split.dtype.kind == "U"
                and split.ndim == 0 and _broken_rule(X, Y, None, [split.item()], 2, None) is None
                and len(Y) == len(X) > 0 and np.isfinite(X).all()):
            return Dataset(X=X, Y=Y, split=split.item())
    return _parse_jsonl(path)


def _parse_jsonl(path) -> Dataset:
    """Each row in file order, checked against the row rules; raises for the first bad line."""
    rows, first = [], None  # first: the first row's (features, labels, line)
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    doc = json.loads(line)
                    x, labels, split = doc["features"], doc["labels"], doc["split"]
                    y = [] if labels is None else labels
                    fx, fy = np.asarray(x), np.asarray(y)
                    problem = _broken_rule(fx, fy, labels, [split], 1, first)
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise DataError(f"{path}:{lineno}: malformed dataset line: {exc}") from exc
                # a list of numbers, so the test is safe; numpy reads true as 1
                if problem is None and (bool in map(type, x) or bool in map(type, y)):
                    problem = "features and labels must be numbers, not true or false"
                if problem:
                    raise DataError(f"{path}:{lineno}: {problem}")
                first = first or (fx.size, fy.size, lineno)
                rows.append((fx, fy, lineno, split))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    if not rows:
        return Dataset(X=np.empty((0, 0)), Y=np.empty((0, 0), dtype=int), split=None)
    features, labels, linenos, splits = zip(*rows)
    X = np.array(features, dtype=float)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{linenos[int(np.argmin(finite))]}: features must be finite")
    return Dataset(X=X, Y=np.array(labels, dtype=int), split=splits[0])


def _broken_rule(X: np.ndarray, Y: np.ndarray, labels, splits: list, ndim: int,
                 first) -> str | None:
    """The first rule that one row (ndim 1) or a table of rows (ndim 2) breaks,
    or None.  X and Y are the features and labels as numpy reads them with no
    dtype given, so a string makes them strings: features and labels are
    lists of numbers, not of numeric strings; labels are 0 or 1 (0.7 is not
    0); each split is a string; and a row has as many features and labels as
    ``first``, the file's first row as (features, labels, line)."""
    if not (X.ndim == Y.ndim == ndim and X.dtype.kind in _NUMBER and Y.dtype.kind in _NUMBER):
        return "features and labels must be lists of numbers"
    if not np.all((Y == 0) | (Y == 1)):
        return f"labels must be 0 or 1, got {labels!r}"
    wrong = [split for split in splits if not isinstance(split, str)]
    if wrong:
        return f"split must be a string, got {wrong[0]!r}"
    if first and (X.shape[-1], Y.shape[-1]) != first[:2]:
        return (f"{X.shape[-1]} features and {Y.shape[-1]} labels, "
                f"but line {first[2]} has {first[0]} and {first[1]}")
    return None
