"""Deterministic synthetic multi-label IND/OOD data.

IND samples draw a label subset by weight, sum the corresponding cluster
means, and add isotropic Gaussian noise.  OOD samples either translate the
IND cluster structure along a seeded random direction ("shifted") or sample
around fresh cluster means that carry none of the known class signatures
("novel_cluster").  All generation is a pure function of (spec, seed);
files are JSONL with a leading comment header.
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


def write_jsonl(data: Dataset, path) -> None:
    """One JSON object per line, the bytes of json.dumps(row, separators=(",", ":")),
    after a comment header; rows without labels carry labels: null."""
    X = np.asarray(data.X, dtype=float)
    if not np.isfinite(X).all():
        raise DataError(f"cannot write {path}: features must be finite")
    labeled = data.Y.shape[1] > 0
    tail = ',"split":' + json.dumps(data.split) + "}\n"
    chunk = tables.CHUNK_ROWS
    with open(path, "w") as fh:
        fh.write(_HEADER + "\n")
        for start in range(0, len(X), chunk):
            rows = zip(X[start : start + chunk].tolist(), data.Y[start : start + chunk].tolist())
            fh.write("".join([
                '{"features":[' + ",".join(map(repr, x)) + '],"labels":'
                + ("[" + ",".join(map(str, y)) + "]" if labeled else "null") + tail
                for x, y in rows
            ]))


def read_jsonl(path) -> Dataset:
    """Parse a dataset file; malformed lines are reported with their number.

    Every row must hold as many features and labels as the first row, every
    feature must be finite and every label 0 or 1; the split is the first row's.
    """
    parts, docs, linenos = [], [], []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    docs.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    docs.append(exc)  # reported in line order by _raise_first_bad_row
                linenos.append(lineno)
                if len(docs) == tables.CHUNK_ROWS:
                    parts.append(_stack_rows(path, docs, linenos, parts))
                    docs = []
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    if docs:
        parts.append(_stack_rows(path, docs, linenos, parts))
    if not parts:
        return Dataset(X=np.empty((0, 0)), Y=np.empty((0, 0), dtype=int), split=None)
    X = np.concatenate([x for x, _, _ in parts])
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{linenos[int(np.argmin(finite))]}: features must be finite")
    return Dataset(X=X, Y=np.concatenate([y for _, y, _ in parts]), split=parts[0][2])


def _stack_rows(path, docs: list, linenos: list[int], parts: list):
    """(X, Y, first split) of consecutive parsed rows, converted at once and checked
    against the first row; a row that breaks a rule is found by _raise_first_bad_row."""
    try:
        X = np.array([doc["features"] for doc in docs], dtype=float)
        labels = [[] if doc["labels"] is None else doc["labels"] for doc in docs]
        Y = np.array(labels, dtype=int)
        splits = [doc["split"] for doc in docs]
        X0, Y0, _ = parts[0] if parts else (X, Y, None)
        valid = (
            X.ndim == Y.ndim == 2
            and (X.shape[1], Y.shape[1]) == (X0.shape[1], Y0.shape[1])
            and np.array_equal(Y, np.array(labels, dtype=float))
            and np.all((Y == 0) | (Y == 1))
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        _raise_first_bad_row(path, docs, linenos, parts)
    return X, Y, splits[0]


def _raise_first_bad_row(path, docs: list, linenos: list[int], parts: list) -> None:
    """Raise for the first row of this chunk that breaks a rule; earlier chunks passed."""
    first = (parts[0][0].shape[1], parts[0][1].shape[1]) if parts else None
    for doc, lineno in zip(docs, linenos[len(linenos) - len(docs):]):
        try:
            if isinstance(doc, json.JSONDecodeError):
                raise doc
            features = np.asarray(doc["features"], dtype=float)
            labels = doc["labels"]
            doc["split"]  # required, though only the first row's is kept
            y = np.asarray([] if labels is None else labels, dtype=int)
            y_float = np.asarray([] if labels is None else labels, dtype=float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}:{lineno}: malformed dataset line: {exc}") from exc
        if features.ndim != 1 or y.ndim != 1:
            raise DataError(
                f"{path}:{lineno}: features and labels must be lists of numbers"
            )
        if not (np.array_equal(y, y_float) and np.all((y == 0) | (y == 1))):
            raise DataError(f"{path}:{lineno}: labels must be 0 or 1, got {labels!r}")
        first = first or (features.size, y.size)
        if (features.size, y.size) != first:
            raise DataError(
                f"{path}:{lineno}: {features.size} features and {y.size} labels, "
                f"but line {linenos[0]} has {first[0]} and {first[1]}"
            )
    raise DataError(f"{path}: rows do not stack into one table")
