"""Uncertainty-based OOD scores over Beta evidence, plus posthoc baselines.

Every scorer follows one convention: larger value means more likely OOD.
The baselines (maxlogit, msp, jointenergy) are conventionally larger-is-IND,
so they are negated here; they read the positive head only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .evidence import EvidencePair, Logits

BASELINE_METHODS = ("maxlogit", "msp", "jointenergy")

# Stable string identifiers used by the CLI and CSV outputs.
SCORE_NAMES = (
    "u_m_p",
    "u_m_n",
    "u_m_pn",
    "u_s_p",
    "u_s_n",
    "u_s_pn",
    "maxlogit",
    "msp",
    "jointenergy",
)


def _check_lambda(lam: float) -> None:
    if not (0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must be in [0, 1], got {lam!r}")


def mix_scores(lam: float, pos, neg):
    """The combined score: weight lam on the positive part, 1 - lam on the negative."""
    return lam * pos + (1.0 - lam) * neg


def _rows(x: np.ndarray) -> np.ndarray:
    return x if x.ndim == 2 else x[None, :]


def _fsum_rows(x: np.ndarray) -> np.ndarray:
    """Exact sum of each row; fsum makes it invariant to label order."""
    return np.array([math.fsum(row) for row in x.tolist()], dtype=float)


def _per_sample(values: np.ndarray, like: np.ndarray):
    """A Python float for one (L,) sample, the (N,) array for an (N, L) batch."""
    return float(values[0]) if like.ndim == 1 else values


def ood_score_max(
    ev: EvidencePair, mode: str, lambda1: float = 0.5
) -> float | np.ndarray:
    """Max-aggregated uncertainty score; larger means more likely OOD.

    positive: 1/max(alpha); negative: 1 - max(1/beta); combined mixes the
    two with weight lambda1 on the positive part.  Reduces over the label
    axis: a float for (L,) evidence, an (N,) array for (N, L).
    """
    _check_lambda(lambda1)
    alpha, beta = _rows(ev.alpha), _rows(ev.beta)
    if mode == "positive":
        out = 1.0 / np.max(alpha, axis=1)
    elif mode == "negative":
        out = 1.0 - np.max(1.0 / beta, axis=1)
    elif mode == "combined":
        pos = 1.0 / np.max(alpha, axis=1)
        neg = 1.0 - np.max(1.0 / beta, axis=1)
        out = mix_scores(lambda1, pos, neg)
    else:
        raise ConfigError(f"unknown evidence mode {mode!r}")
    return _per_sample(out, ev.alpha)


def ood_score_sum(
    ev: EvidencePair, mode: str, lambda2: float = 0.5
) -> float | np.ndarray:
    """Sum-aggregated uncertainty score; larger means more likely OOD.

    positive: L/sum(alpha); negative: 1 - mean(1/beta); combined mixes the
    two with weight lambda2 on the positive part.  Reduces over the label
    axis: a float for (L,) evidence, an (N,) array for (N, L).
    """
    _check_lambda(lambda2)
    alpha, beta = _rows(ev.alpha), _rows(ev.beta)
    n = ev.label_count
    if mode == "positive":
        out = n / _fsum_rows(alpha)
    elif mode == "negative":
        out = 1.0 - _fsum_rows(1.0 / beta) / n
    elif mode == "combined":
        pos = n / _fsum_rows(alpha)
        neg = 1.0 - _fsum_rows(1.0 / beta) / n
        out = mix_scores(lambda2, pos, neg)
    else:
        raise ConfigError(f"unknown evidence mode {mode!r}")
    return _per_sample(out, ev.alpha)


def baseline_score(logits: Logits, method: str) -> float | np.ndarray:
    """Posthoc baseline on the positive head, negated into larger-is-OOD.

    A float for (L,) logits, an (N,) array for (N, L).
    """
    f = _rows(logits.f_pos)
    if method == "maxlogit":
        out = -np.max(f, axis=1)
    elif method == "msp":
        # stable sigmoid via softplus: sigma(f) = exp(f - softplus(f))
        sigmoid = np.exp(f - np.logaddexp(0.0, f))
        out = -np.max(sigmoid, axis=1)
    elif method == "jointenergy":
        # softplus(f) = log(1 + exp(f)), overflow-safe
        out = -_fsum_rows(np.logaddexp(0.0, f))
    else:
        raise ConfigError(
            f"unknown baseline method {method!r}; valid: {', '.join(BASELINE_METHODS)}"
        )
    return _per_sample(out, logits.f_pos)


def score_by_name(name: str, ev: EvidencePair, logits: Logits,
                  lambda1: float = 0.5, lambda2: float = 0.5) -> float | np.ndarray:
    """Dispatch on a stable score identifier.

    A float for one (L,) sample, an (N,) array for an (N, L) batch.
    """
    if name == "u_m_p":
        return ood_score_max(ev, "positive", lambda1)
    if name == "u_m_n":
        return ood_score_max(ev, "negative", lambda1)
    if name == "u_m_pn":
        return ood_score_max(ev, "combined", lambda1)
    if name == "u_s_p":
        return ood_score_sum(ev, "positive", lambda2)
    if name == "u_s_n":
        return ood_score_sum(ev, "negative", lambda2)
    if name == "u_s_pn":
        return ood_score_sum(ev, "combined", lambda2)
    if name in BASELINE_METHODS:
        return baseline_score(logits, name)
    raise ConfigError(
        f"unknown score {name!r}; valid names: {', '.join(SCORE_NAMES)}"
    )
