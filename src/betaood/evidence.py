"""Mapping two-head logits to Beta evidence, subjective opinions, and means.

Evidence is alpha = ELU(f_pos) + 2 and beta = ELU(f_neg) + 2, so every
entry is strictly greater than 1.  Opinions use the subjective-logic
decomposition with prior weight W and base rate a; the defaults W=2,
a=0.5 make belief + disbelief + uncertainty sum to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_PRIOR_WEIGHT = 2.0
DEFAULT_BASE_RATE = 0.5


def _check_pair(what: str, a: np.ndarray, b: np.ndarray) -> None:
    """Both arrays (L,) or both (N, L) with equal shapes, L >= 1, all finite."""
    if a.ndim not in (1, 2) or a.shape != b.shape or a.shape[-1] < 1:
        raise ConfigError(
            f"{what} must be (L,) or (N, L) arrays of equal shape with at "
            f"least one label, got shapes {a.shape} and {b.shape}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ConfigError(f"{what} must be finite")


@dataclass(frozen=True)
class Logits:
    """Raw two-head network outputs: one sample (L,) or a batch (N, L)."""

    f_pos: np.ndarray
    f_neg: np.ndarray

    def __post_init__(self):
        f_pos = np.asarray(self.f_pos, dtype=float)
        f_neg = np.asarray(self.f_neg, dtype=float)
        object.__setattr__(self, "f_pos", f_pos)
        object.__setattr__(self, "f_neg", f_neg)
        _check_pair("logit heads", f_pos, f_neg)


@dataclass(frozen=True)
class EvidencePair:
    """Positive (alpha) and negative (beta) Beta evidence, (L,) or (N, L)."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        _check_pair("evidence", alpha, beta)
        if np.any(alpha <= 0.0) or np.any(beta <= 0.0):
            raise ConfigError("evidence must be strictly positive")


@dataclass(frozen=True)
class SubjectiveOpinion:
    """Belief/disbelief/uncertainty triple per label, plus shared priors."""

    belief: np.ndarray
    disbelief: np.ndarray
    uncertainty: np.ndarray
    base_rate: float
    prior_weight: float


@dataclass(frozen=True)
class Prediction:
    """Predicted label probability alpha/(alpha+beta), (L,) or (N, L)."""

    p: np.ndarray


def min_zero(x) -> np.ndarray:
    """min(x, 0) written into new zeros of min's result dtype: one allocation and
    numpy's same-dtype loop at every size, with the bits of min(x, 0.0)."""
    zeros = np.zeros(np.shape(x), np.result_type(x, 0.0))
    return np.minimum(x, zeros, out=zeros)


def elu_array(x: np.ndarray) -> np.ndarray:
    """Vectorized ELU; expm1(x) >= x for x <= 0, and x first keeps +0.0 at x = -0.0.
    expm1 and max write into min_zero's array, so a call allocates one array
    of x's size."""
    low = min_zero(x)
    return np.maximum(x, np.expm1(low, out=low), out=low)


def elu_grad_array(x: np.ndarray) -> np.ndarray:
    """Vectorized ELU derivative: 1 for x > 0, as exp(0) is exactly 1; exp(x) otherwise.
    exp writes into min_zero's array."""
    low = min_zero(x)
    return np.exp(low, out=low)


def logits_to_evidence(logits: Logits) -> EvidencePair:
    """alpha = ELU(f_pos) + 2, beta = ELU(f_neg) + 2; every entry > 1."""
    return EvidencePair(
        alpha=elu_array(logits.f_pos) + 2.0,
        beta=elu_array(logits.f_neg) + 2.0,
    )


def evidence_to_opinion(
    ev: EvidencePair,
    prior_weight: float = DEFAULT_PRIOR_WEIGHT,
    base_rate: float = DEFAULT_BASE_RATE,
) -> SubjectiveOpinion:
    """Subjective-logic opinion from evidence.

    b = (alpha - aW)/(alpha + beta), d = (beta - aW)/(alpha + beta),
    u = W/(alpha + beta).  Rejects (W, a) combinations that would push
    belief or disbelief below zero for this evidence.
    """
    aw = base_rate * prior_weight
    total = ev.alpha + ev.beta
    below = (ev.alpha < aw) | (ev.beta < aw)
    if np.any(below):
        bad = np.unravel_index(np.argmax(below), below.shape)
        sample = f"sample {bad[0]}, " if below.ndim == 2 else ""
        raise ConfigError(
            f"opinion simplex violated at {sample}label {bad[-1]}: evidence "
            f"(alpha={ev.alpha[bad]:.6g}, beta={ev.beta[bad]:.6g}) is below "
            f"base_rate*prior_weight = {aw:.6g}; belief/disbelief would be negative"
        )
    return SubjectiveOpinion(
        belief=(ev.alpha - aw) / total,
        disbelief=(ev.beta - aw) / total,
        uncertainty=prior_weight / total,
        base_rate=base_rate,
        prior_weight=prior_weight,
    )


def evidence_to_prediction(ev: EvidencePair) -> Prediction:
    """Predicted label probability: the mean alpha/(alpha+beta)."""
    return Prediction(p=ev.alpha / (ev.alpha + ev.beta))
