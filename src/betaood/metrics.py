"""Binary OOD-detection evaluation: AUROC, AUPR, FPR@TPR, ROC export, mAP.

The positive class is OOD (configurable).  Thresholds sweep the distinct
score values in descending order, grouping ties into a single step, so
AUROC is exactly the pairwise estimator with ties counted 0.5 and every
metric is deterministic and oracle-checkable.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class RocCurve:
    """Ordered (fpr, tpr) points, Python floats, from (0, 0) to (1, 1)."""

    points: list[tuple[float, float]]


def _sweep(ds: ScoredDataset, positive_is_ood: bool = True):
    """Cumulative TP/FP counts over the grouped descending-threshold sweep.

    Returns (tp, fp, n_pos, n_neg) where tp[k], fp[k] are the counts after
    admitting the k-th distinct score value.
    """
    positive = ds.is_ood.astype(bool) if positive_is_ood else ~ds.is_ood.astype(bool)
    order = np.argsort(-ds.scores, kind="stable")
    sorted_scores = ds.scores[order]
    sorted_pos = positive[order].astype(int)
    # indices where a run of equal scores ends
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    boundaries = np.concatenate([distinct, [sorted_scores.size - 1]])
    tp = np.cumsum(sorted_pos)[boundaries]
    fp = (boundaries + 1) - tp
    return tp, fp, int(positive.sum()), int((~positive).sum())


def roc_curve(ds: ScoredDataset, positive_is_ood: bool = True) -> RocCurve:
    """Full grouped-sweep ROC point list, starting at (0, 0)."""
    tp, fp, n_pos, n_neg = _sweep(ds, positive_is_ood)
    points = zip((fp / n_neg).tolist(), (tp / n_pos).tolist())
    return RocCurve(points=[(0.0, 0.0), *points])


def auroc(ds: ScoredDataset, positive_is_ood: bool = True) -> float:
    """Trapezoidal area under the grouped-sweep ROC."""
    fpr, tpr = np.array(roc_curve(ds, positive_is_ood).points).T
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) * 0.5))


def aupr(ds: ScoredDataset, positive_is_ood: bool = True) -> float:
    """Area under precision-recall via step interpolation sum((R_k - R_{k-1}) * P_k)."""
    tp, fp, n_pos, _ = _sweep(ds, positive_is_ood)
    recall = tp / n_pos
    precision = tp / (tp + fp)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def fpr_at_tpr(
    ds: ScoredDataset,
    target_tpr: float = 0.95,
    positive_is_ood: bool = True,
) -> float:
    """FPR at the largest threshold whose TPR reaches target_tpr.

    Classifies positive when score >= threshold; the sweep stops at the
    first (largest) threshold with TPR >= target.
    """
    if not (0.0 < target_tpr <= 1.0):
        raise ConfigError(f"target_tpr must be in (0, 1], got {target_tpr!r}")
    tp, fp, n_pos, n_neg = _sweep(ds, positive_is_ood)
    tpr = tp / n_pos
    idx = int(np.argmax(tpr >= target_tpr))
    return float(fp[idx] / n_neg)


def detection_metrics(
    ds: ScoredDataset,
    target_tpr: float = 0.95,
    positive_is_ood: bool = True,
) -> DetectionMetrics:
    return DetectionMetrics(
        auroc=auroc(ds, positive_is_ood),
        aupr=aupr(ds, positive_is_ood),
        fpr95=fpr_at_tpr(ds, target_tpr, positive_is_ood),
    )


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP of one label column: mean precision at each positive in the descending ranking."""
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


def write_roc_csv(curve: RocCurve, path) -> None:
    write_table(path, ["fpr", "tpr"], ([repr(f), repr(t)] for f, t in curve.points))
