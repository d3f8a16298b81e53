"""Binary OOD-detection evaluation: AUROC, AUPR, FPR@TPR, ROC export, mAP.

The positive class is OOD (configurable).  Thresholds sweep the distinct
score values in descending order, grouping ties into a single step, so
AUROC is exactly the pairwise estimator with ties counted 0.5 and every
metric is deterministic and oracle-checkable.  ``roc_curve`` sorts a score
once; AUROC, AUPR, FPR@TPR and the ROC export all read that one sweep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .tables import write_table


@dataclass(frozen=True)
class ScoredDataset:
    """Parallel score / is-OOD arrays with both classes present."""

    scores: np.ndarray
    is_ood: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        is_ood = np.asarray(self.is_ood)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "is_ood", is_ood)
        if scores.ndim != 1 or scores.shape != is_ood.shape:
            raise DataError("scores and is_ood must be 1-d and equal length")
        if not np.all(np.isfinite(scores)):
            raise DataError("scores must be finite")
        if not np.all((is_ood == 0) | (is_ood == 1)):
            raise DataError("is_ood entries must be 0 or 1")
        if is_ood.sum() == 0 or is_ood.sum() == is_ood.size:
            raise DataError(
                "both classes must be present: detection metrics are undefined "
                "on a single-class dataset"
            )


@dataclass(frozen=True)
class DetectionMetrics:
    auroc: float
    aupr: float
    fpr95: float


@dataclass(frozen=True, eq=False)
class RocCurve:
    """The grouped descending-threshold sweep of one score.

    ``tp[k]`` and ``fp[k]`` are the read-only int64 counts of positives and
    negatives admitted once the k-th distinct score value is a threshold;
    ``n_pos`` and ``n_neg`` are the class sizes.
    """

    tp: np.ndarray
    fp: np.ndarray
    n_pos: int
    n_neg: int

    @property
    def fpr(self) -> np.ndarray:
        """False-positive rates from 0 to 1, with the leading 0."""
        return np.concatenate([[0.0], self.fp / self.n_neg])

    @property
    def tpr(self) -> np.ndarray:
        """True-positive rates from 0 to 1, with the leading 0."""
        return np.concatenate([[0.0], self.tp / self.n_pos])

    @property
    def points(self) -> list[tuple[float, float]]:
        """Ordered (fpr, tpr) points, Python floats, from (0, 0) to (1, 1)."""
        return list(zip(self.fpr.tolist(), self.tpr.tolist()))


def roc_curve(ds: ScoredDataset, positive_is_ood: bool = True) -> RocCurve:
    """Sort the scores once and count TP/FP after each run of equal scores."""
    positive = ds.is_ood.astype(bool) if positive_is_ood else ~ds.is_ood.astype(bool)
    # any order within a run of equal scores gives the same counts at its end
    order = np.argsort(-ds.scores)
    sorted_scores = ds.scores[order]
    sorted_pos = positive[order].astype(int)
    # indices where a run of equal scores ends
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    boundaries = np.concatenate([distinct, [sorted_scores.size - 1]])
    tp = np.cumsum(sorted_pos)[boundaries]
    fp = (boundaries + 1) - tp
    tp.flags.writeable = False
    fp.flags.writeable = False
    return RocCurve(tp=tp, fp=fp, n_pos=int(positive.sum()), n_neg=int((~positive).sum()))


def detection_metrics(curve: RocCurve, target_tpr: float = 0.95) -> DetectionMetrics:
    """AUROC, AUPR and the FPR at ``target_tpr`` of one sweep.

    AUROC is the trapezoidal area under the ROC; AUPR the step sum
    sum((R_k - R_{k-1}) * P_k); the FPR is read at the first (largest)
    threshold whose TPR reaches the target, classifying positive when
    score >= threshold.
    """
    if not (0.0 < target_tpr <= 1.0):
        raise ConfigError(f"target_tpr must be in (0, 1], got {target_tpr!r}")
    fpr, tpr = curve.fpr, curve.tpr
    recall = tpr[1:]
    precision = curve.tp / (curve.tp + curve.fp)
    return DetectionMetrics(
        auroc=float(np.sum(np.diff(fpr) * (recall + tpr[:-1]) * 0.5)),
        aupr=float(np.sum((recall - tpr[:-1]) * precision)),
        fpr95=float(fpr[1 + int(np.argmax(recall >= target_tpr))]),
    )


# One-metric views, one sweep each; the oracle tests and the benchmark's
# tracer (perfbench/tracer.py) call them by name.
def auroc(ds: ScoredDataset, positive_is_ood: bool = True) -> float:
    return detection_metrics(roc_curve(ds, positive_is_ood)).auroc


def aupr(ds: ScoredDataset, positive_is_ood: bool = True) -> float:
    return detection_metrics(roc_curve(ds, positive_is_ood)).aupr


def fpr_at_tpr(
    ds: ScoredDataset,
    target_tpr: float = 0.95,
    positive_is_ood: bool = True,
) -> float:
    return detection_metrics(roc_curve(ds, positive_is_ood), target_tpr).fpr95


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP of one label column: mean precision at each positive in the descending
    ranking, tied scores in row order (their order changes AP, so the sort is stable)."""
    order = np.argsort(-scores, kind="stable")
    hits = labels[order].astype(int)
    ranks = np.arange(1, hits.size + 1)
    cum_hits = np.cumsum(hits)
    mask = hits == 1
    return float(np.mean(cum_hits[mask] / ranks[mask]))


def mean_average_precision(prob_matrix: np.ndarray, label_matrix: np.ndarray) -> float:
    """Mean over label columns of average precision.

    Every column must contain at least one positive; an all-negative column
    is reported with its index.
    """
    probs = np.asarray(prob_matrix, dtype=float)
    labels = np.asarray(label_matrix)
    if probs.ndim != 2 or probs.shape != labels.shape:
        raise DataError("probability and label matrices must be 2-d and equal shape")
    empty = np.nonzero(labels.sum(axis=0) == 0)[0]
    if empty.size:
        raise DataError(f"label column {int(empty[0])} has no positive samples")
    aps = [average_precision(probs[:, j], labels[:, j]) for j in range(probs.shape[1])]
    # exact summation keeps the result invariant to label ordering
    return math.fsum(aps) / len(aps)


@functools.lru_cache(maxsize=2)
def _rate_cells(n: int) -> np.ndarray:
    """repr of k / n for k = 0..n, an object array: the same division as ``fp / n_neg``."""
    return np.array([repr(r) for r in (np.arange(n + 1) / n).tolist()], dtype=object)


def write_roc_csv(curve: RocCurve, path) -> None:
    """One row per ROC point, from (0, 0); each cell is gathered by its count."""
    fp, tp = (np.concatenate([[0], counts]) for counts in (curve.fp, curve.tp))
    write_table(path, ["fpr", "tpr"], [_rate_cells(curve.n_neg)[fp], _rate_cells(curve.n_pos)[tp]])
