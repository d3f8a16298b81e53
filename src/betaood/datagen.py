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
class LabeledSample:
    features: np.ndarray
    y: np.ndarray
    split: str


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


def _generate_split(spec: SyntheticSpec, split: str, tag: int) -> list[LabeledSample]:
    n = spec.samples_per_split[split]
    weights = np.array([w for _, w in spec.co_occurrence], dtype=float)
    weights /= weights.sum()
    for attempt in range(_PRESENCE_RETRIES):
        rng = _split_rng(spec.seed, tag, attempt)
        choices = rng.choice(len(spec.co_occurrence), size=n, p=weights)
        samples = []
        counts = np.zeros(spec.label_count, dtype=int)
        for c in choices:
            subset = spec.co_occurrence[c][0]
            y = np.zeros(spec.label_count, dtype=int)
            y[list(subset)] = 1
            counts += y
            mean = spec.label_cluster_means[list(subset)].sum(axis=0)
            features = mean + spec.cluster_spread * rng.normal(size=spec.feature_dim)
            samples.append(LabeledSample(features=features, y=y, split=split))
        if np.all(counts > 0):
            return samples
    raise DataError(
        f"split {split!r} missing some label as positive after "
        f"{_PRESENCE_RETRIES} regeneration attempts; increase the sample count"
    )


def generate_ind(spec: SyntheticSpec) -> list[LabeledSample]:
    """All three IND splits, deterministically, with every label present in each."""
    out = []
    for tag, split in enumerate(_SPLITS):
        out.extend(_generate_split(spec, split, tag))
    return out


def generate_ood(ind_spec: SyntheticSpec, ood_spec: OodSpec) -> list[np.ndarray]:
    """Unlabeled OOD feature vectors at >= shift_distance * sigma from IND means."""
    rng = _split_rng(ood_spec.seed, 0x00D)
    sigma = ind_spec.cluster_spread
    if ood_spec.mode == "shifted":
        direction = rng.normal(size=ind_spec.feature_dim)
        direction /= np.linalg.norm(direction)
        offset = ood_spec.shift_distance * sigma * direction
        weights = np.array([w for _, w in ind_spec.co_occurrence], dtype=float)
        weights /= weights.sum()
        choices = rng.choice(len(ind_spec.co_occurrence), size=ood_spec.samples, p=weights)
        out = []
        for c in choices:
            subset = ind_spec.co_occurrence[c][0]
            mean = ind_spec.label_cluster_means[list(subset)].sum(axis=0)
            out.append(mean + offset + sigma * rng.normal(size=ind_spec.feature_dim))
        return out
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
    return [
        novel_means[k] + sigma * rng.normal(size=ind_spec.feature_dim)
        for k in picks
    ]


_HEADER = "# betaood dataset v1"


def write_jsonl(samples, path) -> None:
    """One JSON object per line; OOD entries carry labels: null."""
    with open(path, "w") as fh:
        fh.write(_HEADER + "\n")
        for s in samples:
            if isinstance(s, LabeledSample):
                doc = {
                    "features": list(s.features),
                    "labels": [int(v) for v in s.y],
                    "split": s.split,
                }
            else:
                doc = {"features": list(np.asarray(s, dtype=float)), "labels": None,
                       "split": "ood"}
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def read_jsonl(path) -> list[LabeledSample]:
    """Parse a dataset file; malformed lines are reported with their number.

    Every row must hold as many features and labels as the first row, and
    every feature must be finite.
    """
    out = []
    linenos = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                doc = json.loads(line)
                features = np.asarray(doc["features"], dtype=float)
                labels = doc["labels"]
                split = doc["split"]
                y = (
                    np.zeros(0, dtype=int)
                    if labels is None
                    else np.asarray(labels, dtype=int)
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed dataset line: {exc}") from exc
            if features.ndim != 1 or y.ndim != 1:
                raise DataError(
                    f"{path}:{lineno}: features and labels must be lists of numbers"
                )
            if out and (features.size, y.size) != (out[0].features.size, out[0].y.size):
                raise DataError(
                    f"{path}:{lineno}: {features.size} features and {y.size} labels, "
                    f"but line {linenos[0]} has {out[0].features.size} and "
                    f"{out[0].y.size}"
                )
            out.append(LabeledSample(features=features, y=y, split=split))
            linenos.append(lineno)
    if out:
        finite = np.isfinite(np.array([s.features for s in out])).all(axis=1)
        if not finite.all():
            lineno = linenos[int(np.argmin(finite))]
            raise DataError(f"{path}:{lineno}: features must be finite")
    return out
