"""Array digamma/trigamma.

digamma_array/trigamma_array shift x to >= 6 by the recurrence, then sum a
fixed Bernoulli asymptotic series in Horner form.  Their bits come from
numpy's float64 loops, which numpy picks by CPU at run time (log among them):
they repeat for one numpy build on one set of CPU targets, not across platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Asymptotic series cutoff after the recurrence shift.
_SHIFT_THRESHOLD = 6.0

# Bernoulli numbers B_2 .. B_16 as the coefficients of the psi expansion,
# psi(x) ~ ln x - 1/(2x) - sum_k B_{2k} / (2k * x^{2k}); _PSI_COEFFS = B_{2k} / 2k.
_BERNOULLI_2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)
_PSI_COEFFS = tuple(b2k / (2.0 * k) for k, b2k in enumerate(_BERNOULLI_2K, start=1))
_UNSHIFTED = np.empty(0, np.intp), np.empty((2, 0))  # no entry below the threshold


def recurrence_shift(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recurrence shift of every entry below the threshold to x >= 6.

    Returns the shifted x, the flat (C-order) indices `at` of the entries
    below the threshold, and a (2, len(at)) array of their sums of -1/x
    (digamma) and +1/x**2 (trigamma) over the steps, for add_shift_sums.
    Those entries are gathered once, through one nonzero on a flat copy of x,
    into a ladder whose row r holds each one after r steps of +1.  Rows
    already past the threshold are masked to inf, so they add 1/inf = 0, and
    the sums reduce over the rows in row order: every entry sees the
    operations of a step-by-step loop in the loop's order.  Its shifted value
    is its smallest ladder entry past the threshold.
    """
    x = np.asarray(x, dtype=float)
    return _shift(x, np.minimum.reduce(x, axis=None) if x.size else np.inf)


def _shift(x: np.ndarray, lowest) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """recurrence_shift of a float array x whose smallest entry is ``lowest``."""
    if lowest >= _SHIFT_THRESHOLD:
        return x, *_UNSHIFTED
    if not lowest > 0.0:
        raise ConfigError("the recurrence shift requires finite x > 0")
    # fl(x + 1) is monotone, so the smallest entry takes the most steps
    lowest, steps = float(lowest), 0
    while lowest < _SHIFT_THRESHOLD:
        lowest += 1.0
        steps += 1
    shifted = x.flatten()
    at = (shifted < _SHIFT_THRESHOLD).nonzero()[0]
    ladder = np.empty((steps + 1, at.size))
    ladder[0] = shifted[at]
    for r in range(steps):
        np.add(ladder[r], 1.0, out=ladder[r + 1])
    past = ladder >= _SHIFT_THRESHOLD
    masked = np.where(past[:steps], np.inf, ladder[:steps])
    # 0 - a - b is 0 + (-a) + (-b) bit for bit, so one reduce serves both; it
    # adds the at most 6 rows in order (numpy sums pairwise from 8 terms on)
    sums = np.empty((2, steps, at.size))
    np.divide(-1.0, masked, out=sums[0])
    # below about 1e-154, x * x underflows: psi' is inf there, not an error
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(1.0, masked * masked, out=sums[1])
    shifted[at] = np.where(past, ladder, np.inf).min(axis=0)
    return shifted.reshape(x.shape), at, np.add.reduce(sums, axis=1)


def add_shift_sums(result, at: np.ndarray, part: np.ndarray):
    """result, computed from a shifted x, with the sums `part` added at `at` only."""
    if not at.size:
        return result
    flat = result.reshape(-1)  # a view; a copy of the scalar np.log gives for 0-d x
    flat[at] += part
    return result if isinstance(result, np.ndarray) else flat[0]


def _check_domain(x: np.ndarray, name: str):
    """The smallest entry of x, which must be finite and > 0 (inf for an empty x)."""
    if not x.size:
        return np.inf
    lowest = np.minimum.reduce(x, axis=None)
    # NaN fails both comparisons
    if not (lowest > 0.0 and np.maximum.reduce(x, axis=None) < np.inf):
        raise ConfigError(f"{name} requires finite x > 0")
    return lowest


def digamma_array(x):
    """Elementwise digamma psi(x) for x > 0, absolute error <= 1e-10 on [1e-3, 1e6]:
    on the shifted x, (ln x - 1/(2x)) - sum_k B_2k / (2k x**2k), in Horner form in 1/x**2."""
    x = np.asarray(x, dtype=float)
    x, at, sums = _shift(x, _check_domain(x, "digamma"))
    inv = 1.0 / x
    inv2 = inv * inv
    series = _PSI_COEFFS[-1] * inv2
    for c in reversed(_PSI_COEFFS[:-1]):
        series += c
        series *= inv2
    return add_shift_sums((np.log(x) - 0.5 * inv) - series, at, sums[0])


def trigamma_array(x):
    """Elementwise trigamma psi'(x) for x > 0, absolute error <= 1e-8 on [1e-3, 1e6]:
    on the shifted x, (1/x + 1/(2x**2)) + (1/x) sum_k B_2k / x**2k, the sum as in digamma."""
    x = np.asarray(x, dtype=float)
    x, at, sums = _shift(x, _check_domain(x, "trigamma"))
    inv = 1.0 / x
    inv2 = inv * inv
    series = _BERNOULLI_2K[-1] * inv2
    for b2k in reversed(_BERNOULLI_2K[:-1]):
        series += b2k
        series *= inv2
    return add_shift_sums((inv + 0.5 * inv2) + inv * series, at, sums[1])
