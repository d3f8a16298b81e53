"""The quadrature oracle of the closed-form loss: the Beta density and an
adaptive Gauss-Kronrod integrator of the expected BCE; the loss kernel in its
earlier form, called on a stack its caller built; the recurrence shift
of the digamma/trigamma kernels, rung by rung and with int64 rung offsets;
the ELU pair with the scalar 0.0 as the zero of min(x, 0); the sum
scores' row sum as a Python loop; a ROC curve's (fpr, tpr) points as Python
floats; and ``assert_same_bytes``, a byte-for-byte
check of whole files whose failure names the first differing offset.

The Beta density is evaluated in log space.  The integrator shares no code
with the loss path, so the tests cross-check ``betaood.loss`` against it.
"""

from __future__ import annotations

import math

import numpy as np

from betaood.errors import ConfigError, NumericError
from betaood.special import digamma_array, recurrence_shift, trigamma_array


def evidence_stack_reference(alpha, beta, y):
    """alpha + beta and the labelled evidence (alpha where y = 1, else beta)
    stacked on a new leading axis of size 2, as loss.evidence_stack built it."""
    return np.array([alpha + beta, np.where(y == 1.0, alpha, beta)])


def stacked_loss_and_grad_reference(alpha, beta, y):
    """loss.loss_and_grad as it was when its callers built the stack: per-label
    terms and the (..., 2L) block of d/d(alpha) then d/d(beta), from
    evidence_stack_reference and a second y == 1 mask for the gradient's sides."""
    shifted, sums = recurrence_shift(evidence_stack_reference(alpha, beta, y))
    psi, psi1 = digamma_array(shifted), trigamma_array(shifted)
    if sums is not None:
        psi += sums[0]
        psi1 += sums[1]
    n = y.shape[-1]
    own = psi1[0] - psi1[1]
    labelled = y == 1.0
    d = np.concatenate((np.where(labelled, own, psi1[0]), np.where(labelled, psi1[0], own)),
                       axis=-1)
    d /= n
    return psi[0] - psi[1], d


def uniform_shift_reference(x):
    """special.recurrence_shift of an array x > 0 as a loop over its rungs.

    s is the fewest steps with min(x) + s >= 6 in float arithmetic.  Rung
    r < s takes z = x + r and inv = 1/z; the sums are psi-sum = -(sum inv)
    and psi'-sum = sum inv * inv, each added in rung order from r = 0.
    Returns (x + s, (psi-sum, psi'-sum)), or (x, None) when s = 0.
    """
    x = np.asarray(x, dtype=float)
    lowest = np.min(x) if x.size else np.inf
    s = 0
    while lowest + s < 6.0:
        s += 1
    if s == 0:
        return x, None
    inv_sum = inv2_sum = 0.0
    for r in range(s):
        inv = 1.0 / (x + r)
        with np.errstate(over="ignore"):  # inv * inv is inf below about 1e-154
            inv2_sum = inv2_sum + inv * inv
        inv_sum = inv_sum + inv
    return x + s, (-inv_sum, inv2_sum)


def int_offset_shift_reference(x):
    """special.recurrence_shift of an array x > 0 with its rung offsets an
    int64 np.arange(s), which numpy casts to float64 in the add: the form
    the shift had before its offsets became a float64 constant.
    """
    x = np.asarray(x, dtype=float)
    lowest = np.min(x) if x.size else np.inf
    if lowest >= 6.0:
        return x, None
    steps = 1
    while lowest + steps < 6.0:
        steps += 1
    rungs = np.empty((2, steps, *x.shape))
    np.add(x, np.arange(steps).reshape(steps, *[1] * x.ndim), out=rungs[0])
    np.divide(-1.0, rungs[0], out=rungs[0])
    with np.errstate(over="ignore"):
        np.multiply(rungs[0], rungs[0], out=rungs[1])
    return x + steps, np.add.reduce(rungs, axis=1)


def elu_scalar_zero_reference(x):
    """evidence.elu_array with the scalar 0.0 as the zero of min(x, 0)."""
    return np.maximum(x, np.expm1(np.minimum(x, 0.0)))


def elu_grad_scalar_zero_reference(x):
    """evidence.elu_grad_array with the scalar 0.0 as the zero of min(x, 0)."""
    return np.exp(np.minimum(x, 0.0))


def label_sums_reference(x):
    """scores._label_sums of (N, L) rows: each row as Python floats, sorted
    ascending and added left to right from its first value."""
    sums = []
    for row in np.asarray(x, dtype=float).tolist():
        row.sort()
        total = row[0]
        for value in row[1:]:
            total += value
        sums.append(total)
    return np.array(sums, dtype=float)


def roc_points(curve) -> list[tuple[float, float]]:
    """Ordered (fpr, tpr) points of a metrics.RocCurve, Python floats, from (0, 0) to (1, 1)."""
    return list(zip(curve.fpr.tolist(), curve.tpr.tolist()))


def _check_positive(x: float, name: str) -> None:
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0.0):
        raise ConfigError(f"{name} requires x > 0, got {x!r}")


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


def assert_same_bytes(got, want) -> None:
    """Fail unless ``got`` equals ``want`` (two bytes or two str) byte for byte.

    The message gives both lengths and the first differing offset, with 40 bytes
    of each side from there, so a fault in a multi-megabyte file fails at once:
    ``assert got == want`` would have pytest diff the whole texts.
    """
    if got == want:
        return
    got, want = (t.encode() if isinstance(t, str) else bytes(t) for t in (got, want))
    n = min(len(got), len(want))
    differ = np.flatnonzero(np.frombuffer(got, np.uint8, n) != np.frombuffer(want, np.uint8, n))
    at = int(differ[0]) if differ.size else n
    raise AssertionError(f"{len(got)} bytes, want {len(want)}; first difference at byte {at}: "
                         f"got {got[at:at + 40]!r}, want {want[at:at + 40]!r}")
