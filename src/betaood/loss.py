"""Closed-form Bayes-risk Beta loss and its analytic gradient.

For a multi-hot label vector y the loss averages, over labels,
y*(psi(a+b) - psi(a)) + (1-y)*(psi(a+b) - psi(b)), which is the exact
expectation of binary cross-entropy under Beta(a, b).  Each label reads
only a+b and its labelled evidence (a where y = 1, else b), so the kernels
take those two stacked and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evidence import EvidencePair, Logits, elu_grad_array, logits_to_evidence
from .special import digamma_array as _digamma_vec
from .special import trigamma_array as _trigamma_vec


@dataclass(frozen=True)
class LossGradient:
    """Loss derivatives w.r.t. evidence and, chained through ELU, the logits."""

    d_alpha: np.ndarray
    d_beta: np.ndarray
    d_fpos: np.ndarray
    d_fneg: np.ndarray


def _check_labels(ev: EvidencePair, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != ev.alpha.shape:
        raise ConfigError(
            f"label vector length {y.shape} does not match evidence length "
            f"{ev.alpha.shape}"
        )
    if not np.all((y == 0) | (y == 1)):
        raise ConfigError("labels must be exactly 0 or 1")
    return y.astype(float)


def evidence_stack(alpha: np.ndarray, beta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """alpha + beta and the labelled evidence stacked on a new leading axis of size 2.

    The labels y must be exactly 0 or 1.
    """
    return np.stack([alpha + beta, np.where(y == 1.0, alpha, beta)])


def loss_terms(stack: np.ndarray) -> np.ndarray:
    """Per-label loss from an evidence_stack, with one digamma call on it."""
    psi = _digamma_vec(stack)
    return psi[0] - psi[1]


def mean_loss_grad(stack: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d/d(alpha), d/d(beta) of the label-mean loss, with one trigamma call.

    The labelled evidence's own term goes to d/d(alpha) where y = 1 and to
    d/d(beta) elsewhere; the other derivative is psi'(alpha + beta) alone.
    """
    psi1 = _trigamma_vec(stack)
    n = y.shape[-1]
    own = psi1[0] - psi1[1]
    labelled = y == 1.0
    d_alpha = np.where(labelled, own, psi1[0]) / n
    d_beta = np.where(labelled, psi1[0], own) / n
    return d_alpha, d_beta


def beta_loss(ev: EvidencePair, y: np.ndarray) -> float:
    """Mean over labels of the expected BCE under the predicted Beta."""
    yf = _check_labels(ev, y)
    return float(np.mean(loss_terms(evidence_stack(ev.alpha, ev.beta, yf))))


def beta_loss_grad(ev: EvidencePair, y: np.ndarray, logits: Logits) -> LossGradient:
    """Analytic gradient of beta_loss w.r.t. evidence and logits.

    The logits must reproduce the evidence under logits_to_evidence; an
    inconsistent pair is rejected rather than silently trusted.
    """
    derived = logits_to_evidence(logits)
    if not (
        np.allclose(derived.alpha, ev.alpha, rtol=0.0, atol=1e-12)
        and np.allclose(derived.beta, ev.beta, rtol=0.0, atol=1e-12)
    ):
        raise ConfigError("logits do not reproduce the given evidence")
    d_alpha, d_beta = evidence_grad(ev, y)
    return LossGradient(
        d_alpha=d_alpha,
        d_beta=d_beta,
        d_fpos=d_alpha * elu_grad_array(logits.f_pos),
        d_fneg=d_beta * elu_grad_array(logits.f_neg),
    )


def evidence_grad(ev: EvidencePair, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d(beta_loss)/d(alpha) and d(beta_loss)/d(beta), with the 1/L factor."""
    yf = _check_labels(ev, y)
    return mean_loss_grad(evidence_stack(ev.alpha, ev.beta, yf), yf)
