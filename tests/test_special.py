import math

import mpmath as mp
import numpy as np
import pytest

from betaood.errors import ConfigError, NumericError
from betaood.evidence import elu_array, elu_grad_array
from betaood.special import (
    _BERNOULLI_2K,
    adaptive_quadrature,
    beta_pdf,
    digamma_array,
    quadrature_expected_bce,
    trigamma_array,
)

mp.mp.dps = 30


class TestElu:
    def test_origin(self):
        assert elu_array(0.0) == 0.0

    def test_identity_branch(self):
        assert elu_array(2.0) == 2.0

    def test_negative_branch(self):
        assert elu_array(-1.0) == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-10)

    def test_lower_bound(self):
        # mathematically > -1; at double precision deep negatives round to -1
        assert np.all(elu_array(np.array([-30.0, -5.0, -0.1, 0.0, 0.1, 7.0])) > -1.0)
        assert elu_array(-50.0) >= -1.0

    def test_grad_matches_finite_difference(self):
        h = 1e-7
        x = np.array([-3.0, -0.5, 0.4, 2.0])
        fd = (elu_array(x + h) - elu_array(x - h)) / (2 * h)
        np.testing.assert_allclose(elu_grad_array(x), fd, rtol=1e-6, atol=0)


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma_array(1.0) == pytest.approx(-0.5772156649, abs=1e-9)

    def test_recurrence_at_two(self):
        assert digamma_array(2.0) == pytest.approx(digamma_array(1.0) + 1.0, abs=1e-12)

    def test_duplication_at_half(self):
        assert digamma_array(0.5) == pytest.approx(
            digamma_array(1.0) - 2 * math.log(2), abs=1e-10
        )

    def test_against_mpmath_over_domain(self):
        rng = np.random.default_rng(7)
        xs = 10 ** rng.uniform(-3, 6, 200)
        for x, value in zip(xs, digamma_array(xs)):
            assert value == pytest.approx(float(mp.digamma(float(x))), abs=1e-10)

    def test_rejects_nonpositive(self):
        for bad in [0.0, -1.0, float("nan")]:
            with pytest.raises(ConfigError):
                digamma_array(bad)


class TestTrigamma:
    def test_pi_squared_over_six(self):
        # oracle: partial sums of sum 1/(x+k)^2
        partial = sum(1.0 / (1.0 + k) ** 2 for k in range(2_000_000))
        partial += 1.0 / 2_000_001  # tail integral correction
        assert trigamma_array(1.0) == pytest.approx(partial, abs=1e-6)
        assert trigamma_array(1.0) == pytest.approx(math.pi**2 / 6, abs=1e-10)

    def test_recurrence_at_two(self):
        assert trigamma_array(2.0) == pytest.approx(trigamma_array(1.0) - 1.0, abs=1e-12)

    def test_large_x_asymptotic(self):
        x = 1e6
        assert trigamma_array(x) == pytest.approx(1.0 / x, rel=1e-5)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(3)
        assert np.all(trigamma_array(10 ** rng.uniform(-3, 6, 200)) > 0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            trigamma_array(-2.0)


def test_recurrence_identities_random_points():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.01, 100.0, 1000)
    np.testing.assert_allclose(
        digamma_array(xs + 1.0) - digamma_array(xs), 1.0 / xs, rtol=0, atol=1e-10
    )
    np.testing.assert_allclose(
        trigamma_array(xs + 1.0) - trigamma_array(xs), -1.0 / (xs * xs), rtol=0, atol=1e-8
    )


def test_finite_difference_cross_check():
    rng = np.random.default_rng(13)
    h = 1e-4
    xs = rng.uniform(0.1, 100.0, 200)
    fd = (digamma_array(xs + h) - digamma_array(xs - h)) / (2 * h)
    np.testing.assert_allclose(fd, trigamma_array(xs), rtol=0, atol=1e-5)


def _boolean_index_reference(x, digamma_kind: bool):
    """The array functions' earlier form: the recurrence shift updates only the
    still-small entries through boolean indexing.  Kept as the exactness
    reference for the gathered shift in `special._shift`."""
    x = np.array(x, dtype=float)
    acc = np.zeros_like(x)
    while True:
        small = x < 6.0
        if not small.any():
            break
        if digamma_kind:
            acc[small] -= 1.0 / x[small]
        else:
            acc[small] += 1.0 / (x[small] * x[small])
        x[small] += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    if digamma_kind:
        result = np.log(x) - 0.5 * inv
        power = inv2.copy()
        for k, b2k in enumerate(_BERNOULLI_2K, start=1):
            result -= b2k / (2.0 * k) * power
            power *= inv2
    else:
        result = inv + 0.5 * inv2
        power = inv2 * inv
        for b2k in _BERNOULLI_2K:
            result += b2k * power
            power *= inv2
    return acc + result


@pytest.mark.filterwarnings("error")
def test_stacked_calls_bit_equal_per_slice_and_reference():
    rng = np.random.default_rng(19)
    # 1e200 sits beside small entries: its square must not overflow in the shift
    grid = np.concatenate([
        np.geomspace(1e-3, 1e3, 597), [6.0, np.nextafter(6.0, 0.0), 1e200],
    ])
    alpha = rng.permutation(grid).reshape(120, 5)
    beta = rng.permutation(grid).reshape(120, 5)
    stack = np.stack([alpha, beta, alpha + beta])
    for fn, digamma_kind in ((digamma_array, True), (trigamma_array, False)):
        whole = fn(stack)
        assert np.array_equal(whole, _boolean_index_reference(stack, digamma_kind))
        for i in range(3):
            assert np.array_equal(whole[i], fn(stack[i]))
            assert np.array_equal(whole[i], _boolean_index_reference(stack[i], digamma_kind))
    # the shift gathers the entries below 6: none of them, all of them, a 0-d
    # input and a non-contiguous one must give what the reference gives
    cases = [
        np.geomspace(6.0, 1e200, 60).reshape(12, 5),
        np.geomspace(1e-3, np.nextafter(6.0, 0.0), 60).reshape(12, 5),
        np.array(0.5),
        np.array(6.0),
        stack[:2].transpose(2, 1, 0),
        alpha.T,
    ]
    for x in cases:
        before = x.copy()
        for fn, digamma_kind in ((digamma_array, True), (trigamma_array, False)):
            got = fn(x)
            assert np.shape(got) == x.shape
            assert np.array_equal(got, _boolean_index_reference(x, digamma_kind))
        assert np.array_equal(x, before)


class TestBetaPdf:
    def test_uniform(self):
        assert beta_pdf(0.5, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_two_two(self):
        # 6 * p * (1 - p) at p = 0.5
        assert beta_pdf(0.5, 2.0, 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_integrates_to_one(self):
        value = adaptive_quadrature(lambda p: beta_pdf(p, 3.0, 5.0), 0.0, 1.0, tol=1e-10)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_integrates_to_one_random_params(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            a = float(rng.uniform(1.01, 50.0))
            b = float(rng.uniform(1.01, 50.0))
            value = adaptive_quadrature(
                lambda p: beta_pdf(p, a, b), 0.0, 1.0, tol=1e-10
            )
            assert value == pytest.approx(1.0, abs=1e-8)

    def test_rejects_endpoint(self):
        with pytest.raises(ConfigError):
            beta_pdf(0.0, 2.0, 2.0)
        with pytest.raises(ConfigError):
            beta_pdf(1.0, 2.0, 2.0)


class TestQuadratureExpectedBce:
    def test_positive_label_closed_form(self):
        for a, b in [(2.0, 3.0), (1.01, 50.0), (10.0, 1.01)]:
            expected = digamma_array(a + b) - digamma_array(a)
            assert quadrature_expected_bce(1, a, b) == pytest.approx(expected, abs=1e-8)

    def test_negative_label_closed_form(self):
        for a, b in [(2.0, 3.0), (1.01, 50.0), (10.0, 1.01)]:
            expected = digamma_array(a + b) - digamma_array(b)
            assert quadrature_expected_bce(0, a, b) == pytest.approx(expected, abs=1e-8)

    def test_confident_prediction_value(self):
        assert quadrature_expected_bce(1, 10.0, 1.01) == pytest.approx(0.1006, abs=5e-4)
        assert quadrature_expected_bce(1, 10.0, 1.01) == pytest.approx(
            digamma_array(11.01) - digamma_array(10.0), abs=1e-8
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            quadrature_expected_bce(2, 2.0, 2.0)
        with pytest.raises(ConfigError):
            quadrature_expected_bce(1, 1.0, 2.0)

    def test_nonconvergence_raises(self):
        # integrand too rough for a 4-interval budget
        with pytest.raises(NumericError):
            adaptive_quadrature(
                lambda p: math.sin(1000.0 * p), 0.0, 1.0, tol=1e-14, max_intervals=4
            )


def test_closed_form_grid():
    grid = np.linspace(1.01, 50.0, 20)
    for a in grid:
        for b in grid:
            for y in (0, 1):
                q = quadrature_expected_bce(y, float(a), float(b))
                cf = digamma_array(float(a + b)) - digamma_array(float(a if y else b))
                assert abs(q - cf) <= 1e-6
