"""Closed-form Bayes-risk Beta loss and its analytic gradient.

For a multi-hot label vector y the loss averages, over labels,
y*(psi(a+b) - psi(a)) + (1-y)*(psi(a+b) - psi(b)), which is the exact
expectation of binary cross-entropy under Beta(a, b).  Each label reads
only a+b and its labelled evidence (a where y = 1, else b), so
``loss_and_grad`` stacks those two from the evidence block [a | b] and
shifts the stack once for both kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .evidence import EvidencePair, Logits, elu_grad_array, logits_to_evidence
from .special import digamma_array as _digamma_vec
from .special import recurrence_shift
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


def loss_and_grad(evidence: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-label loss and the derivatives of the label-mean loss as one block,
    from the (..., 2L) evidence block [alpha | beta] and labels y exactly 0 or 1:
    d/d(alpha) in the first L entries of the last axis, d/d(beta) in the last L.

    alpha + beta and the labelled evidence are stacked and shifted once, every
    entry by the steps its smallest needs; digamma and trigamma evaluate their
    series on the shifted stack, and each gets its sum of the shift added in
    place.  The one mask y = 1 picks the labelled evidence and sends its own
    term to d/d(alpha) there and to d/d(beta) elsewhere; the other derivative
    is psi'(alpha + beta) alone.  Raises NumericError if alpha + beta is not
    finite.
    """
    n = y.shape[-1]
    alpha, beta = evidence[..., :n], evidence[..., n:]
    labelled = y == 1.0
    stack = np.array([alpha + beta, np.where(labelled, alpha, beta)])
    if not np.isfinite(stack[0]).all():
        raise NumericError("non-finite evidence: alpha + beta overflows")
    shifted, sums = recurrence_shift(stack)
    psi, psi1 = _digamma_vec(shifted), _trigamma_vec(shifted)
    if sums is not None:
        psi += sums[0]
        psi1 += sums[1]
    own = psi1[0] - psi1[1]
    d = np.concatenate((np.where(labelled, own, psi1[0]), np.where(labelled, psi1[0], own)),
                       axis=-1)
    d /= n
    return psi[0] - psi[1], d


def beta_loss(ev: EvidencePair, y: np.ndarray) -> float:
    """Mean over labels of the expected BCE under the predicted Beta."""
    yf = _check_labels(ev, y)
    terms, _ = loss_and_grad(np.concatenate((ev.alpha, ev.beta), axis=-1), yf)
    return float(np.mean(terms))


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
    _, d = loss_and_grad(np.concatenate((ev.alpha, ev.beta), axis=-1), yf)
    d_alpha, d_beta = np.split(d, 2, axis=-1)
    return d_alpha, d_beta
