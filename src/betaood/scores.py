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


def _two_sum_halves(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add the halves of the (k, N) rows by TwoSum down to one (N,) row, which with
    the (k - 1, N) errors sums to each column's sum exactly.  Overwrites rows."""
    n, errors = len(rows), np.empty((len(rows) - 1, rows.shape[1]))
    while n > 1:
        half = n // 2
        a, b, e = rows[:half], rows[n - half : n], errors[len(rows) - n :][:half]
        s = a + b
        t = s - a  # the error of s is (a - (s - t)) + (b - t)
        np.subtract(a, np.subtract(s, t, out=e), out=e)
        e += np.subtract(b, t, out=t)
        a[...], n = s, n - half
    return rows[0], errors


def _fsum_rows(x: np.ndarray) -> np.ndarray:
    """math.fsum of each row, bit for bit, so invariant to label order.

    TwoSum halving gives a row's sum as s plus errors e, exactly; halving the e gives
    E plus residuals g, and TwoSum(s, E) = (r, f): the sum is r + f + sum(g). fsum
    rounds it half-even: to r if every g is 0, or if f - d and f + d, d = 2 sum|g|,
    lie strictly inside the half-gaps from r to its neighbours.  Other rows, rows of
    under two labels, r == 0 (fsum gives +0.0) and sums of |x| past 2**1023 (inf, nan,
    fsum's intermediate overflow) take math.fsum in row order, with its errors.
    """
    sums, keep = np.zeros(len(x)), np.zeros(len(x), dtype=bool)
    if x.shape[1] > 1:
        with np.errstate(all="ignore"):  # the caller raises on over/invalid
            rows = x.T.copy()
            small = np.add.reduce(np.abs(rows), axis=0) <= 2.0**1023
            s, e = _two_sum_halves(rows)
            big, g = _two_sum_halves(e)
            r, (f,) = _two_sum_halves(np.stack([s, big]))
            d = 2.0 * np.add.reduce(np.abs(g), axis=0)
            inside = ((f + d < (np.nextafter(r, np.inf) - r) / 2)
                      & (f - d > (np.nextafter(r, -np.inf) - r) / 2))
            keep = small & (r != 0) & ((d == 0) | inside)
            sums = np.where(keep, r, 0.0)
    for i in np.flatnonzero(~keep).tolist():
        sums[i] = math.fsum(x[i].tolist())
    return sums


# The score family.  Each kernel maps (N, L) rows to (N,) scores.
# Per aggregation (m: max, s: sum): the positive part on alpha and the negative
# part on beta; the combined mode mixes the two.
_EVIDENCE = {
    "m": (lambda a: 1.0 / np.max(a, axis=1),
          lambda b: 1.0 - np.max(1.0 / b, axis=1)),
    "s": (lambda a: a.shape[1] / _fsum_rows(a),
          lambda b: 1.0 - _fsum_rows(1.0 / b) / b.shape[1]),
}
# Per baseline: its score on the positive logits f, negated into larger-is-OOD.
_BASELINES = {
    "maxlogit": lambda f: -np.max(f, axis=1),
    # stable sigmoid via softplus: sigma(f) = exp(f - softplus(f))
    "msp": lambda f: -np.max(np.exp(f - np.logaddexp(0.0, f)), axis=1),
    # softplus(f) = log(1 + exp(f)), overflow-safe
    "jointenergy": lambda f: -_fsum_rows(np.logaddexp(0.0, f)),
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
