"""Uncertainty-based OOD scores over Beta evidence, plus posthoc baselines.

Every scorer follows one convention: larger value means more likely OOD.
The baselines (maxlogit, msp, jointenergy) are conventionally larger-is-IND,
so they are negated here; they read the positive head only.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .evidence import EvidencePair, Logits


def _label_sums(x: np.ndarray) -> np.ndarray:
    """Each (N, L) row's sum, smallest value first: the same bits in any label order."""
    x = np.sort(x, axis=1)
    sums = x[:, 0].copy()
    for column in x.T[1:]:
        sums += column
    return sums


def _row_max(x: np.ndarray) -> np.ndarray:
    """Each (N, L) row's maximum, one column at a time into a copy of the first:
    np.max(x, axis=1)'s bits, without its per-row reduction over a short axis.
    Of a tie of -0.0 and 0.0 either may come out, as of np.max, whose pick
    varies with the row's width and layout."""
    top = x[:, 0].copy()
    for column in x.T[1:]:
        np.maximum(top, column, out=top)
    return top


# The score family.  Each kernel maps (N, L) rows to (N,) scores.
# Per aggregation (m: max, s: sum): the positive part on alpha and the negative
# part on beta; the combined mode mixes the two.
_EVIDENCE = {
    "m": (lambda a: 1.0 / _row_max(a),
          lambda b: 1.0 - _row_max(1.0 / b)),
    "s": (lambda a: a.shape[1] / _label_sums(a),
          lambda b: 1.0 - _label_sums(1.0 / b) / b.shape[1]),
}
# Per baseline: its score on the positive logits f, negated into larger-is-OOD.
_BASELINES = {
    "maxlogit": lambda f: -_row_max(f),
    # stable sigmoid via softplus: sigma(f) = exp(f - softplus(f))
    "msp": lambda f: -_row_max(np.exp(f - np.logaddexp(0.0, f))),
    # softplus(f) = log(1 + exp(f)), overflow-safe
    "jointenergy": lambda f: -_label_sums(np.logaddexp(0.0, f)),
}
# The short form of each evidence mode in a score name u_<m|s>_<p|n|pn>.
_MODES = {"p": "positive", "n": "negative", "pn": "combined"}

BASELINE_METHODS = tuple(_BASELINES)

# Stable string identifiers used by the CLI and CSV outputs.
SCORE_NAMES = (*(f"u_{agg}_{short}" for agg in _EVIDENCE for short in _MODES),
               *BASELINE_METHODS)


def _check_lambda(lam: float) -> None:
    if not (0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must be in [0, 1], got {lam!r}")


def mix_scores(lam: float, pos, neg):
    """The combined score: weight lam on the positive part, 1 - lam on the negative."""
    return lam * pos + (1.0 - lam) * neg


def _rows(x: np.ndarray) -> np.ndarray:
    return x if x.ndim == 2 else x[None, :]


def _per_sample(values: np.ndarray, like: np.ndarray):
    """A Python float for one (L,) sample, the (N,) array for an (N, L) batch."""
    return float(values[0]) if like.ndim == 1 else values


def _evidence_score(agg: str, ev: EvidencePair, mode: str, lam: float):
    """The ``agg`` family's score in ``mode``, with weight lam on the positive part."""
    _check_lambda(lam)
    if mode not in _MODES.values():
        raise ConfigError(f"unknown evidence mode {mode!r}")
    pos, neg = _EVIDENCE[agg]
    alpha, beta = _rows(ev.alpha), _rows(ev.beta)
    if mode == "combined":
        return _per_sample(mix_scores(lam, pos(alpha), neg(beta)), ev.alpha)
    return _per_sample(pos(alpha) if mode == "positive" else neg(beta), ev.alpha)


def ood_score_max(
    ev: EvidencePair, mode: str, lambda1: float = 0.5
) -> float | np.ndarray:
    """Max-aggregated uncertainty score; larger means more likely OOD.

    positive: 1/max(alpha); negative: 1 - max(1/beta); combined mixes the
    two with weight lambda1 on the positive part.  Reduces over the label
    axis: a float for (L,) evidence, an (N,) array for (N, L).
    """
    return _evidence_score("m", ev, mode, lambda1)


def ood_score_sum(
    ev: EvidencePair, mode: str, lambda2: float = 0.5
) -> float | np.ndarray:
    """Sum-aggregated uncertainty score; larger means more likely OOD.

    positive: L/sum(alpha); negative: 1 - mean(1/beta); combined mixes the
    two with weight lambda2 on the positive part.  Reduces over the label
    axis: a float for (L,) evidence, an (N,) array for (N, L).
    """
    return _evidence_score("s", ev, mode, lambda2)


def baseline_score(logits: Logits, method: str) -> float | np.ndarray:
    """Posthoc baseline on the positive head, negated into larger-is-OOD.

    A float for (L,) logits, an (N,) array for (N, L).
    """
    if method not in _BASELINES:
        raise ConfigError(
            f"unknown baseline method {method!r}; valid: {', '.join(BASELINE_METHODS)}"
        )
    return _per_sample(_BASELINES[method](_rows(logits.f_pos)), logits.f_pos)


def score_by_name(name: str, ev: EvidencePair, logits: Logits,
                  lambda1: float = 0.5, lambda2: float = 0.5) -> float | np.ndarray:
    """Dispatch on a stable score identifier: a baseline's method, or
    u_<m|s>_<p|n|pn> for the max (lambda1) or sum (lambda2) family in one mode.

    A float for one (L,) sample, an (N,) array for an (N, L) batch.
    """
    if name not in SCORE_NAMES:
        raise ConfigError(f"unknown score {name!r}; valid names: {', '.join(SCORE_NAMES)}")
    if name in _BASELINES:
        return baseline_score(logits, name)
    _, agg, short = name.split("_")
    return _evidence_score(agg, ev, _MODES[short], lambda1 if agg == "m" else lambda2)
