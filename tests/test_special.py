import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from betaood.errors import ConfigError, NumericError
from betaood.evidence import elu_array, elu_grad_array
from betaood import special
from betaood.special import _BERNOULLI_2K, digamma_array, recurrence_shift, trigamma_array
from oracles import (
    adaptive_quadrature,
    beta_pdf,
    int_offset_shift_reference,
    quadrature_expected_bce,
    uniform_shift_reference,
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


def _elu_where_reference(x):
    """ELU as a select on x > 0, the form evidence.elu_array had before its
    select was dropped.  Kept as the exactness reference for elu_array."""
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad_where_reference(x):
    """The ELU slope as a select on x > 0; the reference for elu_grad_array."""
    return np.where(x > 0.0, 1.0, np.exp(np.minimum(x, 0.0)))


def _assert_elu_pair_bytes_equal_select_forms(x):
    # byte for byte: np.array_equal holds -0.0 equal to +0.0, which is the
    # case the operand order of elu_array decides
    for fn, reference in (
        (elu_array, _elu_where_reference),
        (elu_grad_array, _elu_grad_where_reference),
    ):
        with np.errstate(invalid="ignore"):  # expm1 and exp of a signalling NaN
            got, want = np.asarray(fn(x)), np.asarray(reference(x))
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# the signed zeros, the smallest subnormals, an x whose expm1 rounds to x
# itself, one where exp underflows to 0, and the finite extremes
_ELU_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, -(2.0**-53), -745.2, 1e308, -1e308]
# every bit pattern: NaNs of any sign and payload, infinities, subnormals
_ELU_BITS = np.random.default_rng(23).integers(0, 2**64, size=(64, 128), dtype=np.uint64)
_ELU_BITS = _ELU_BITS.view(np.float64)
_ELU_BITS.flat[:11] = [*_ELU_SPECIALS, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("x", [*_ELU_SPECIALS, math.nan, math.inf, -math.inf])
def test_elu_pair_bytes_equal_select_forms_at_special_values(x, as_array):
    _assert_elu_pair_bytes_equal_select_forms(np.array(x) if as_array else x)


@given(
    x=st.one_of(
        st.floats(),
        hnp.arrays(
            np.float64,
            st.one_of(
                st.just(()),
                st.tuples(st.integers(0, 128)),
                st.tuples(st.integers(0, 64), st.integers(0, 128)),
            ),
            elements=st.floats(),
        ),
    )
)
@example(x=np.array([*_ELU_SPECIALS, np.nan, np.inf, -np.inf]))
@example(x=_ELU_BITS)
@settings(deadline=None)
def test_elu_pair_bytes_equal_select_forms(x):
    _assert_elu_pair_bytes_equal_select_forms(x)


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


@pytest.mark.parametrize(
    "grid, psi_bound, psi1_bound",
    [
        (np.linspace(np.nextafter(6.0, 0.0), 7.0, 1500), 6e-14, 1.5e-13),
        (6.0 - np.geomspace(1e-13, 1.0, 1000), 6e-14, 1.5e-13),
        (np.linspace(1e5, 1e6, 1000), 1e-10, 1e-8),
    ],
    ids=["series-at-6-to-7", "one-step-below-6", "1e5-to-1e6"],
)
def test_kernels_within_docstring_bounds_of_mpmath(grid, psi_bound, psi1_bound):
    # where the truncated series is least accurate (just past the threshold),
    # where one recurrence step precedes it, and at the top of the domain.
    # Near 6 the bounds are tighter than the docstrings', so that every series
    # term counts: the errors there are about 2.5e-14 (psi) and 7.2e-14 (psi'),
    # and without the last Bernoulli term of a series 1.3e-13 and 3.5e-13.
    assert np.all((grid > 0.0) & (grid <= 1e6))
    psi = np.array([float(mp.digamma(mp.mpf(float(x)))) for x in grid])
    psi1 = np.array([float(mp.psi(1, mp.mpf(float(x)))) for x in grid])
    assert np.max(np.abs(digamma_array(grid) - psi)) <= psi_bound
    assert np.max(np.abs(trigamma_array(grid) - psi1)) <= psi1_bound


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


def _kernel_reference(x, digamma_kind: bool):
    """digamma_array (digamma_kind) or trigamma_array: the kernels' series in
    their Horner order on the reference shift's x, plus the shift's sum."""
    x, sums = uniform_shift_reference(x)
    inv = 1.0 / x
    inv2 = inv * inv
    if digamma_kind:
        coeffs = [b2k / (2.0 * k) for k, b2k in enumerate(_BERNOULLI_2K, start=1)]
    else:
        coeffs = list(_BERNOULLI_2K)
    series = coeffs[-1] * inv2
    for c in reversed(coeffs[:-1]):
        series = (series + c) * inv2
    if digamma_kind:
        result = (np.log(x) - 0.5 * inv) - series
    else:
        result = (inv + 0.5 * inv2) + inv * series
    return result if sums is None else result + sums[0 if digamma_kind else 1]


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
        assert np.array_equal(whole, _kernel_reference(stack, digamma_kind))
        for i in range(3):
            assert np.array_equal(whole[i], fn(stack[i]))
            assert np.array_equal(whole[i], _kernel_reference(stack[i], digamma_kind))
    # no entry below 6, every entry below 6, a 0-d input and a non-contiguous
    # one must give what the reference gives
    cases = [
        np.geomspace(6.0, 1e200, 60).reshape(12, 5),
        np.geomspace(1e-3, np.nextafter(6.0, 0.0), 60).reshape(12, 5),
        np.array(0.5),
        np.array(6.0),
        stack[:2].transpose(2, 1, 0),
        alpha.T,
        np.empty((0, 5)),
    ]
    for x in cases:
        before = x.copy()
        for fn, digamma_kind in ((digamma_array, True), (trigamma_array, False)):
            got = fn(x)
            assert np.shape(got) == x.shape
            assert np.array_equal(got, _kernel_reference(x, digamma_kind))
        assert np.array_equal(x, before)


@pytest.mark.filterwarnings("error")
def test_tiny_arguments_give_the_loop_values_without_warnings():
    # the shift sums 1/x**2 for trigamma on every call: its overflow below
    # about 1e-154 must not reach digamma, and trigamma's value there is inf
    x = np.array([1e-200, 1e-160, 1e-3, 2.0])
    assert np.array_equal(digamma_array(x), _kernel_reference(x, True))
    psi1 = trigamma_array(x)
    assert psi1[0] == psi1[1] == np.inf
    assert np.array_equal(psi1[2:], _kernel_reference(x[2:], False))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("fn, name", [
    (digamma_array, "digamma"), (trigamma_array, "trigamma"),
    (recurrence_shift, "the recurrence shift"),
])
def test_shift_and_kernels_reject_what_is_not_finite_and_positive(fn, name, bad):
    # the shift and each kernel check min and max before they take any step
    for x in (np.array(bad), np.array([[2.0, bad], [7.0, 1e-3]])):
        with pytest.raises(ConfigError) as info:
            fn(x)
        assert str(info.value) == f"{name} requires finite x > 0"


def _assert_shift_bytes_equal_to_reference(x):
    """recurrence_shift(x) gives the rung-by-rung reference's shifted x and
    sums, or like it no sums, byte for byte and in x's shape."""
    shifted, sums = recurrence_shift(x)
    want_x, want_sums = uniform_shift_reference(x)
    assert np.shape(shifted) == x.shape
    assert np.asarray(shifted).tobytes() == np.asarray(want_x).tobytes()
    assert (sums is None) == (want_sums is None)
    for got, want in zip(() if sums is None else sums, want_sums or ()):
        assert np.shape(got) == x.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    return want_sums


# entries at and just below the threshold, at the domain's low end, and 1e200
# beside small ones: its square must not overflow in the shift
_SHIFT_ELEMENTS = st.one_of(
    st.sampled_from([6.0, np.nextafter(6.0, 0.0), 1e-3, 1e200]),
    st.floats(1e-3, 7.0),
    st.floats(1e-3, 1e200),
)


@pytest.mark.filterwarnings("error")
@given(
    x=hnp.arrays(
        float,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        elements=_SHIFT_ELEMENTS,
    ),
    transpose=st.booleans(),
)
@example(x=np.geomspace(1e-3, np.nextafter(6.0, 0.0), 12).reshape(3, 4), transpose=False)
@example(x=np.geomspace(6.0, 1e200, 12).reshape(4, 3), transpose=False)
@example(x=np.array([1e-3, 1e200, 6.0, np.nextafter(6.0, 0.0)]), transpose=False)
@example(x=np.array(0.5), transpose=False)
@example(x=np.array(6.0), transpose=False)
@example(x=np.empty((0, 3)), transpose=False)
@example(x=np.geomspace(1e-3, 1e3, 12).reshape(2, 3, 2), transpose=True)
@settings(max_examples=300, deadline=None)
def test_recurrence_shift_bit_equal_to_masked_loop(x, transpose):
    if transpose:
        x = x.T
    before = x.copy()
    _assert_shift_bytes_equal_to_reference(x)
    assert np.array_equal(x, before)


def _training_size_stack(labels):
    """A (2, 64, labels) stack like a batch's (alpha + beta, labelled evidence):
    about 5 % of it below 6, with 1e-3 and 1e-200, which take all 6 steps."""
    rng = np.random.default_rng(labels)
    x = rng.uniform(6.0, 60.0, size=(2, 64, labels))
    small = rng.random(x.shape) < 0.05
    x[small] = rng.uniform(1.0, 6.0, size=int(small.sum()))
    x[1, 0, :2] = [1e-3, 1e-200]
    return x


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("labels", [5, 32])
@pytest.mark.parametrize("transpose", [False, True])
def test_recurrence_shift_bytes_equal_to_masked_loop_at_training_sizes(labels, transpose):
    x = _training_size_stack(labels)
    x = x.T if transpose else x
    want_sums = _assert_shift_bytes_equal_to_reference(x)
    assert 0.03 < np.mean(x < 6.0) < 0.07
    assert np.isinf(want_sums[1]).any()


# (smallest entry, the steps it needs): every step count, 1e-300 where 1/z
# squared overflows, and entries whose last rung lands just below 6
_SHIFT_MINIMA = [
    (1e-300, 6), (0.3, 6), (0.5, 6), (1.17, 5), (1.85, 5), (2.5, 4), (3.5, 3),
    (4.5, 2), (5.5, 1), (5.9999999, 1),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(), (2, 64, 5), (2, 64, 32)])
@pytest.mark.parametrize("lowest, steps", _SHIFT_MINIMA)
def test_recurrence_shift_bit_equal_to_int_offsets(shape, lowest, steps):
    x = np.random.default_rng(steps).uniform(lowest, 60.0, size=shape)
    x.flat[x.size // 2] = lowest
    shifted, sums = recurrence_shift(x)
    want_x, want_sums = int_offset_shift_reference(x)
    assert shifted.flat[x.size // 2] == lowest + steps
    assert np.array_equal(np.asarray(shifted).view(np.int64), want_x.view(np.int64))
    assert sums.shape == want_sums.shape == (2, *shape)
    assert np.array_equal(sums.view(np.int64), want_sums.view(np.int64))


def test_recurrence_shift_of_nothing_takes_no_step():
    shifted, sums = recurrence_shift(np.empty(0))
    assert shifted.shape == (0,) and sums is None
    assert int_offset_shift_reference(np.empty(0))[1] is None


def test_rung_offsets_are_read_only():
    with pytest.raises(ValueError):
        special._RUNG_OFFSETS[0] = 1.0
    with pytest.raises(ValueError):
        special._RUNG_OFFSETS[:3] += 1.0
    assert special._RUNG_OFFSETS.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


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
