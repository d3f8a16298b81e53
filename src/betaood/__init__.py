"""Beta-evidential multi-label classification and uncertainty-based OOD scoring."""

from .errors import BetaOodError, ConfigError, DataError, NumericError
from .evidence import (
    EvidencePair,
    Logits,
    Prediction,
    SubjectiveOpinion,
    evidence_to_opinion,
    evidence_to_prediction,
    logits_to_evidence,
)
from .loss import LossGradient, beta_loss, beta_loss_grad
from .metrics import (
    DetectionMetrics,
    RocCurve,
    ScoredDataset,
    aupr,
    detection_metrics,
    fpr_at_tpr,
    mean_average_precision,
    roc_curve,
)
from .scores import (
    SCORE_NAMES,
    baseline_score,
    ood_score_max,
    ood_score_sum,
    score_by_name,
)

__version__ = "0.1.0"

__all__ = [
    "BetaOodError",
    "ConfigError",
    "DataError",
    "NumericError",
    "EvidencePair",
    "Logits",
    "Prediction",
    "SubjectiveOpinion",
    "evidence_to_opinion",
    "evidence_to_prediction",
    "logits_to_evidence",
    "LossGradient",
    "beta_loss",
    "beta_loss_grad",
    "DetectionMetrics",
    "RocCurve",
    "ScoredDataset",
    "aupr",
    "detection_metrics",
    "fpr_at_tpr",
    "mean_average_precision",
    "roc_curve",
    "SCORE_NAMES",
    "baseline_score",
    "ood_score_max",
    "ood_score_sum",
    "score_by_name",
]
