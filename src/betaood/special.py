"""Array digamma/trigamma, the Beta density and the quadrature cross-check.

digamma_array/trigamma_array use a recurrence shift to x >= 6 followed by a
fixed Bernoulli-coefficient asymptotic series, so results are bit-stable
across platforms.  The Beta density is evaluated in log space.  The
expected-BCE quadrature is an independent adaptive integrator used to
cross-check the closed-form loss; it never shares code with the loss path.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError

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


def _check_positive(x: float, name: str) -> None:
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0.0):
        raise ConfigError(f"{name} requires x > 0, got {x!r}")


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


def log_beta(alpha: float, beta: float) -> float:
    """log B(alpha, beta) = lgamma(a) + lgamma(b) - lgamma(a+b)."""
    _check_positive(alpha, "log_beta")
    _check_positive(beta, "log_beta")
    return math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)


def beta_pdf(p: float, alpha: float, beta: float) -> float:
    """Beta density at p in the open interval (0, 1), computed in log space."""
    _check_positive(alpha, "beta_pdf")
    _check_positive(beta, "beta_pdf")
    if not (0.0 < p < 1.0):
        raise ConfigError(f"beta_pdf requires 0 < p < 1, got {p!r}")
    log_density = (
        (alpha - 1.0) * math.log(p)
        + (beta - 1.0) * math.log1p(-p)
        - log_beta(alpha, beta)
    )
    return math.exp(log_density)


# 15-point Gauss-Kronrod rule on [-1, 1]: Kronrod nodes/weights plus the
# embedded 7-point Gauss weights (zeros at the Kronrod-only nodes).
_GK_NODES = (
    -0.991455371120813,
    -0.949107912342759,
    -0.864864423359769,
    -0.741531185599394,
    -0.586087235467691,
    -0.405845151377397,
    -0.207784955007898,
    0.0,
    0.207784955007898,
    0.405845151377397,
    0.586087235467691,
    0.741531185599394,
    0.864864423359769,
    0.949107912342759,
    0.991455371120813,
)
_GK_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
    0.204432940075298,
    0.190350578064785,
    0.169004726639267,
    0.140653259715525,
    0.104790010322250,
    0.063092092629979,
    0.022935322010529,
)
_G_WEIGHTS = (
    0.0,
    0.129484966168870,
    0.0,
    0.279705391489277,
    0.0,
    0.381830050505119,
    0.0,
    0.417959183673469,
    0.0,
    0.381830050505119,
    0.0,
    0.279705391489277,
    0.0,
    0.129484966168870,
    0.0,
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    kronrod = 0.0
    gauss = 0.0
    for node, wk, wg in zip(_GK_NODES, _GK_WEIGHTS, _G_WEIGHTS):
        fx = f(mid + half * node)
        kronrod += wk * fx
        gauss += wg * fx
    return half * kronrod, abs(half * (kronrod - gauss))


def adaptive_quadrature(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_intervals: int = 4096,
) -> float:
    """Adaptive Gauss-Kronrod integration with a hard subdivision cap.

    Raises NumericError instead of returning a degraded result when the
    interval budget is exhausted before the tolerance is met.
    """
    intervals = [(a, b, *_gk15(f, a, b))]
    while True:
        total_err = sum(item[3] for item in intervals)
        if total_err <= tol:
            return sum(item[2] for item in intervals)
        if len(intervals) >= max_intervals:
            raise NumericError(
                f"quadrature failed to converge: error {total_err:.3e} > {tol:.3e} "
                f"after {len(intervals)} intervals"
            )
        # Split the interval with the largest error estimate.
        worst = max(range(len(intervals)), key=lambda i: intervals[i][3])
        lo, hi, _, _ = intervals.pop(worst)
        mid = 0.5 * (lo + hi)
        intervals.append((lo, mid, *_gk15(f, lo, mid)))
        intervals.append((mid, hi, *_gk15(f, mid, hi)))


def quadrature_expected_bce(
    y: int,
    alpha: float,
    beta: float,
    tol: float = 1e-9,
) -> float:
    """Expectation of binary cross-entropy under Beta(alpha, beta), by quadrature.

    Integrates -y*log(p) - (1-y)*log(1-p) against the Beta density.  Requires
    alpha, beta >= 1.01 so the endpoint behaviour stays integrable at the
    target accuracy.
    """
    if y not in (0, 1):
        raise ConfigError(f"label must be 0 or 1, got {y!r}")
    if alpha < 1.01 or beta < 1.01:
        raise ConfigError(
            f"quadrature_expected_bce requires alpha, beta >= 1.01, got "
            f"({alpha!r}, {beta!r})"
        )
    log_norm = log_beta(alpha, beta)

    def integrand(p: float) -> float:
        log_density = (
            (alpha - 1.0) * math.log(p) + (beta - 1.0) * math.log1p(-p) - log_norm
        )
        if y == 1:
            bce = -math.log(p)
        else:
            bce = -math.log1p(-p)
        return bce * math.exp(log_density)

    return adaptive_quadrature(integrand, 0.0, 1.0, tol=tol)
