"""Array digamma/trigamma.

digamma_array/trigamma_array shift x to >= 6 by the recurrence, then sum a
fixed Bernoulli asymptotic series in Horner form.  The shift steps every entry
as often as the array's smallest entry needs, so a value's last bits depend on
the smallest entry of its array.  Their bits come from numpy's float64 loops,
which numpy picks by CPU at run time (log among them): they repeat for one
numpy build on one set of CPU targets, not across platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Asymptotic series cutoff after the recurrence shift.
_SHIFT_THRESHOLD = 6.0

# The rung offsets 0, 1, ..., 5 of the shift as float64, read-only (see _shift).
_RUNG_OFFSETS = np.arange(_SHIFT_THRESHOLD)
_RUNG_OFFSETS.flags.writeable = False

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


def recurrence_shift(x) -> tuple[np.ndarray, np.ndarray | None]:
    """x + s and the sums of the s recurrence steps, or x and None if s = 0.

    s is the fewest steps with min(x) + s >= 6 in float arithmetic, so every
    entry of x + s is >= 6 and s <= 6.  Over the rungs z = x + r, r < s, the
    sums are -sum 1/z (digamma) and sum (1/z)*(1/z) (trigamma): a (2, *x.shape)
    array from one (2, s, *x.shape) broadcast, reduced over the rungs in order.
    Every entry of x must be finite and > 0.
    """
    return _shift(np.asarray(x, dtype=float), "the recurrence shift")


def _shift(x: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray | None]:
    """recurrence_shift of a float array x, which ``name`` requires finite and > 0.

    The rungs x + r take their offsets r from the float64 _RUNG_OFFSETS: int64
    offsets, exact in float64 and so giving the same bits, would make numpy
    cast them in a slower broadcast loop (8.8 against 2.6 us at (2, 64, 32),
    timeit, min of 5).
    """
    lowest = np.minimum.reduce(x, axis=None) if x.size else np.inf
    if x.size and not (lowest > 0.0 and np.maximum.reduce(x, axis=None) < np.inf):
        raise ConfigError(f"{name} requires finite x > 0")  # NaN fails both comparisons
    if lowest >= _SHIFT_THRESHOLD:
        return x, None
    steps = 1  # fl(x + s) is monotone in x, so the smallest entry needs the most
    while lowest + steps < _SHIFT_THRESHOLD:
        steps += 1
    rungs = np.empty((2, steps, *x.shape))
    np.add(x, _RUNG_OFFSETS[:steps].reshape(steps, *[1] * x.ndim), out=rungs[0])
    np.divide(-1.0, rungs[0], out=rungs[0])  # -(1/z), so its sum is -(sum 1/z)
    # below about 1e-154, 1/z squared overflows: psi' is inf there, not an error
    with np.errstate(over="ignore"):
        np.multiply(rungs[0], rungs[0], out=rungs[1])
    # numpy sums pairwise from 8 terms on; the at most 6 rungs add in order
    return x + steps, np.add.reduce(rungs, axis=1)


def digamma_array(x):
    """Elementwise digamma psi(x) for x > 0, absolute error <= 1e-10 on [1e-3, 1e6]:
    on the shifted x, (ln x - 1/(2x)) - sum_k B_2k / (2k x**2k), in Horner form in 1/x**2."""
    x, sums = _shift(np.asarray(x, dtype=float), "digamma")
    inv = 1.0 / x
    inv2 = inv * inv
    series = _PSI_COEFFS[-1] * inv2
    for c in reversed(_PSI_COEFFS[:-1]):
        series += c
        series *= inv2
    psi = (np.log(x) - 0.5 * inv) - series
    return psi if sums is None else psi + sums[0]


def trigamma_array(x):
    """Elementwise trigamma psi'(x) for x > 0, absolute error <= 1e-8 on [1e-3, 1e6]:
    on the shifted x, (1/x + 1/(2x**2)) + (1/x) sum_k B_2k / x**2k, the sum as in digamma."""
    x, sums = _shift(np.asarray(x, dtype=float), "trigamma")
    inv = 1.0 / x
    inv2 = inv * inv
    series = _BERNOULLI_2K[-1] * inv2
    for b2k in reversed(_BERNOULLI_2K[:-1]):
        series += b2k
        series *= inv2
    psi1 = (inv + 0.5 * inv2) + inv * series
    return psi1 if sums is None else psi1 + sums[1]
