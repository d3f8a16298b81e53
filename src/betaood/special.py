"""Array digamma/trigamma.

digamma_array/trigamma_array use a recurrence shift to x >= 6 followed by a
fixed Bernoulli-coefficient asymptotic series, so results are bit-stable
across platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Asymptotic series cutoff after the recurrence shift.
_SHIFT_THRESHOLD = 6.0

# Bernoulli numbers B_2 .. B_16 as the coefficients of the psi expansion:
# psi(x) ~ ln x - 1/(2x) - sum_k B_{2k} / (2k * x^{2k}).
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


def recurrence_shift(x) -> tuple[np.ndarray, np.ndarray | float, np.ndarray | float]:
    """Recurrence shift of every entry below the threshold to x >= 6.

    Returns the shifted x and, per entry, the running sums of -1/x (digamma)
    and of +1/x**2 (trigamma) over the steps; with no entry below the
    threshold, x itself and scalar zero sums.  The entries below the
    threshold are gathered once into a ladder whose row r holds each one
    after r steps of +1.  Rows already past the threshold are masked to inf,
    so they add 1/inf = 0, and the sums reduce over the rows in row order:
    every entry sees the operations of a step-by-step loop in the loop's
    order.  Its shifted value is its smallest ladder entry past the threshold.
    """
    x = np.asarray(x, dtype=float)
    lowest = np.minimum.reduce(x, axis=None) if x.size else np.inf
    if lowest >= _SHIFT_THRESHOLD:
        return x, 0.0, 0.0
    if not lowest > 0.0:
        raise ConfigError("the recurrence shift requires finite x > 0")
    # fl(x + 1) is monotone, so the smallest entry takes the most steps
    lowest = float(lowest)
    steps = 0
    while lowest < _SHIFT_THRESHOLD:
        lowest += 1.0
        steps += 1
    below = x < _SHIFT_THRESHOLD
    xs = x[below]
    ladder = np.empty((steps + 1, xs.size))
    ladder[0] = xs
    ladder[1:] = 1.0
    np.add.accumulate(ladder, axis=0, out=ladder)
    past = ladder >= _SHIFT_THRESHOLD
    masked = np.where(past[:steps], np.inf, ladder[:steps])
    # 0 - a - b is 0 + (-a) + (-b) bit for bit, so one reduce serves both; it
    # adds the at most 6 rows in order (numpy sums pairwise from 8 terms on)
    sums = np.empty((2, steps, xs.size))
    np.divide(-1.0, masked, out=sums[0])
    # below about 1e-154, x * x underflows: psi' is inf there, not an error
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(1.0, masked * masked, out=sums[1])
    shifted = x.copy()
    shifted[below] = np.where(past, ladder, np.inf).min(axis=0)
    psi_sum, psi1_sum = np.zeros(x.shape), np.zeros(x.shape)
    psi_sum[below], psi1_sum[below] = np.add.reduce(sums, axis=1)
    return shifted, psi_sum, psi1_sum


def _check_domain(x: np.ndarray, name: str) -> None:
    # NaN fails both comparisons; an empty x has nothing to check
    if x.size and not (
        np.minimum.reduce(x, axis=None) > 0.0 and np.maximum.reduce(x, axis=None) < np.inf
    ):
        raise ConfigError(f"{name} requires finite x > 0")


def digamma_array(x):
    """Elementwise digamma psi(x) for x > 0, absolute error <= 1e-10 on [1e-3, 1e6]."""
    x = np.asarray(x, dtype=float)
    _check_domain(x, "digamma")
    x, acc, _ = recurrence_shift(x)
    inv = 1.0 / x
    inv2 = inv * inv
    result = np.log(x) - 0.5 * inv
    power = inv2.copy()
    for k, b2k in enumerate(_BERNOULLI_2K, start=1):
        result -= b2k / (2.0 * k) * power
        power *= inv2
    return acc + result


def trigamma_array(x):
    """Elementwise trigamma psi'(x) for x > 0, absolute error <= 1e-8 on [1e-3, 1e6]."""
    x = np.asarray(x, dtype=float)
    _check_domain(x, "trigamma")
    x, _, acc = recurrence_shift(x)
    inv = 1.0 / x
    inv2 = inv * inv
    result = inv + 0.5 * inv2
    power = inv2 * inv
    for b2k in _BERNOULLI_2K:
        result += b2k * power
        power *= inv2
    return acc + result
