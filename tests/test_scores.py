import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from betaood import scores
from betaood.errors import ConfigError
from betaood.evidence import EvidencePair, Logits, logits_to_evidence
from betaood.scores import (
    BASELINE_METHODS,
    SCORE_NAMES,
    baseline_score,
    mix_scores,
    ood_score_max,
    ood_score_sum,
    score_by_name,
)

WORKED_EV = EvidencePair(alpha=[4.0, 2.0, 10.0], beta=[1.0, 2.0, 4.0])


class TestScoreNames:
    def test_score_names_order_pinned(self):
        # the column order of scores.csv and the row order of metrics.csv
        assert SCORE_NAMES == ("u_m_p", "u_m_n", "u_m_pn", "u_s_p", "u_s_n", "u_s_pn",
                               "maxlogit", "msp", "jointenergy")
        assert BASELINE_METHODS == ("maxlogit", "msp", "jointenergy")

    @pytest.mark.parametrize("fn", [ood_score_max, ood_score_sum])
    @pytest.mark.parametrize("mode", ["p", "n", "pn", "max", "sum"])
    def test_short_or_aggregation_mode_rejected(self, fn, mode):
        # a mode is spelled out; its short form appears only inside a score name
        with pytest.raises(ConfigError, match=f"unknown evidence mode '{mode}'"):
            fn(WORKED_EV, mode)

    @pytest.mark.parametrize("name", ["u_m_x", "u_x_p", "u_m_p_n", "u_m", "positive", "odin"])
    def test_unknown_name_rejected(self, name):
        logits = Logits(f_pos=[0.0], f_neg=[0.0])
        with pytest.raises(ConfigError, match=f"unknown score '{name}'; valid names: u_m_p, "):
            score_by_name(name, logits_to_evidence(logits), logits)


class TestMaxScore:
    def test_positive(self):
        assert ood_score_max(WORKED_EV, "positive") == pytest.approx(0.1, abs=1e-12)

    def test_negative_near_zero_for_small_beta(self):
        ev = EvidencePair(alpha=[2.0, 2.0, 2.0], beta=[1.0 + 1e-12, 2.0, 4.0])
        assert ood_score_max(ev, "negative") == pytest.approx(0.0, abs=1e-10)

    def test_combined_worked_example(self):
        assert ood_score_max(WORKED_EV, "combined", 0.5) == pytest.approx(
            0.05, abs=1e-12
        )

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            ood_score_max(WORKED_EV, "both")


class TestSumScore:
    def test_positive(self):
        assert ood_score_sum(WORKED_EV, "positive") == pytest.approx(0.1875, abs=1e-12)

    def test_negative(self):
        expected = 1.0 - 1.75 / 3.0
        assert ood_score_sum(WORKED_EV, "negative") == pytest.approx(expected, abs=1e-12)

    def test_combined_worked_example(self):
        expected = 0.5 * 0.1875 + 0.5 * (1.0 - 1.75 / 3.0)
        assert ood_score_sum(WORKED_EV, "combined", 0.5) == pytest.approx(
            expected, abs=1e-12
        )

    def test_rejects_out_of_range_lambda(self):
        with pytest.raises(ConfigError):
            ood_score_sum(WORKED_EV, "combined", 1.5)


class TestLambdaDegeneracy:
    def test_lambda_one_equals_positive(self):
        for fn in (ood_score_max, ood_score_sum):
            assert fn(WORKED_EV, "combined", 1.0) == fn(WORKED_EV, "positive")

    def test_lambda_zero_equals_negative(self):
        for fn in (ood_score_max, ood_score_sum):
            assert fn(WORKED_EV, "combined", 0.0) == fn(WORKED_EV, "negative")

    def test_combined_is_mix_of_components_bit_equal(self):
        # sweep-lambda mixes the u_s_p/u_s_n columns with the same helper
        rng = np.random.default_rng(67)
        ev = EvidencePair(alpha=rng.uniform(1.1, 20.0, (40, 4)),
                          beta=rng.uniform(1.1, 20.0, (40, 4)))
        for fn in (ood_score_max, ood_score_sum):
            pos, neg = fn(ev, "positive"), fn(ev, "negative")
            for lam in (0.0, 0.3, 0.5, 1.0):
                combined = fn(ev, "combined", lam)
                assert np.array_equal(combined, mix_scores(lam, pos, neg))


class TestScoreProperties:
    def test_ranges_open_unit_interval(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            ev = EvidencePair(
                alpha=rng.uniform(1.0001, 200.0, n),
                beta=rng.uniform(1.0001, 200.0, n),
            )
            for fn in (ood_score_max, ood_score_sum):
                for mode in ("positive", "negative", "combined"):
                    v = fn(ev, mode)
                    assert 0.0 < v < 1.0

    def test_monotonicity_under_perturbation(self):
        rng = np.random.default_rng(47)
        for _ in range(10_000):
            n = int(rng.integers(1, 6))
            alpha = rng.uniform(1.01, 100.0, n)
            beta = rng.uniform(1.01, 100.0, n)
            ev = EvidencePair(alpha=alpha, beta=beta)
            l = int(rng.integers(0, n))
            bump = float(rng.uniform(0.1, 5.0))
            alpha_up = alpha.copy()
            alpha_up[l] += bump
            ev_a = EvidencePair(alpha=alpha_up, beta=beta)
            assert ood_score_sum(ev_a, "positive") < ood_score_sum(ev, "positive")
            assert ood_score_max(ev_a, "positive") <= ood_score_max(ev, "positive")
            beta_dn = beta.copy()
            beta_dn[l] = 1.0 + (beta_dn[l] - 1.0) * 0.5
            ev_b = EvidencePair(alpha=alpha, beta=beta_dn)
            assert ood_score_sum(ev_b, "negative") < ood_score_sum(ev, "negative")

    def test_permutation_invariance(self):
        rng = np.random.default_rng(53)
        alpha = rng.uniform(1.1, 50.0, 6)
        beta = rng.uniform(1.1, 50.0, 6)
        perm = rng.permutation(6)
        ev = EvidencePair(alpha=alpha, beta=beta)
        ev_p = EvidencePair(alpha=alpha[perm], beta=beta[perm])
        logits = Logits(f_pos=alpha, f_neg=beta)
        logits_p = Logits(f_pos=alpha[perm], f_neg=beta[perm])
        for name in SCORE_NAMES:
            assert score_by_name(name, ev, logits) == score_by_name(
                name, ev_p, logits_p
            )

    def test_permutation_invariance_batched(self):
        rng = np.random.default_rng(54)
        alpha = rng.uniform(1.1, 50.0, (40, 6))
        beta = rng.uniform(1.1, 50.0, (40, 6))
        f_pos = rng.normal(scale=5.0, size=(40, 6))
        perm = rng.permutation(6)
        # and 32 labels of magnitudes 1 to 1e12, whose plain float sum changes with their order
        wide = (*(1.0 + 10.0 ** rng.uniform(0.0, 12.0, (3, 40, 32))), rng.permutation(32))
        for alpha, beta, f_pos, perm in ((alpha, beta, f_pos, perm), wide):
            if alpha.shape[1] == 32:
                for x in (alpha, 1.0 / beta, np.logaddexp(0.0, f_pos)):
                    assert (np.sum(x, axis=1) != np.sum(x[:, perm], axis=1)).any()
            ev = EvidencePair(alpha=alpha, beta=beta)
            ev_p = EvidencePair(alpha=alpha[:, perm], beta=beta[:, perm])
            logits = Logits(f_pos=f_pos, f_neg=beta)
            logits_p = Logits(f_pos=f_pos[:, perm], f_neg=beta[:, perm])
            for name in SCORE_NAMES:
                np.testing.assert_array_equal(
                    score_by_name(name, ev, logits), score_by_name(name, ev_p, logits_p)
                )


class TestBaselines:
    def test_maxlogit(self):
        logits = Logits(f_pos=[1.0, 3.0, 2.0], f_neg=[0.0, 0.0, 0.0])
        assert baseline_score(logits, "maxlogit") == -3.0

    def test_msp_at_zero(self):
        logits = Logits(f_pos=[0.0, 0.0], f_neg=[0.0, 0.0])
        assert baseline_score(logits, "msp") == pytest.approx(-0.5, abs=1e-12)

    def test_jointenergy_at_zero(self):
        logits = Logits(f_pos=[0.0, 0.0], f_neg=[0.0, 0.0])
        assert baseline_score(logits, "jointenergy") == pytest.approx(
            -2.0 * math.log(2.0), abs=1e-12
        )

    def test_jointenergy_overflow_safe(self):
        logits = Logits(f_pos=[1000.0], f_neg=[0.0])
        assert baseline_score(logits, "jointenergy") == pytest.approx(-1000.0, rel=1e-12)

    def test_unknown_method_rejected(self):
        logits = Logits(f_pos=[0.0], f_neg=[0.0])
        with pytest.raises(ConfigError):
            baseline_score(logits, "odin")

    def test_single_label_ranking_consistency(self):
        # for L=1, jointenergy is strictly decreasing in the logit, and
        # maxlogit/msp rank samples identically
        fs = np.linspace(-5.0, 5.0, 21)
        je = [baseline_score(Logits(f_pos=[f], f_neg=[0.0]), "jointenergy") for f in fs]
        ml = [baseline_score(Logits(f_pos=[f], f_neg=[0.0]), "maxlogit") for f in fs]
        msp = [baseline_score(Logits(f_pos=[f], f_neg=[0.0]), "msp") for f in fs]
        assert np.all(np.diff(je) < 0)
        assert np.argsort(ml).tolist() == np.argsort(msp).tolist()


class TestScoreBatch:
    @pytest.mark.parametrize("n", [0, 1, 50])
    def test_batched_equals_per_row(self, n):
        rng = np.random.default_rng(61 + n)
        f_pos = rng.normal(scale=4.0, size=(n, 5))
        f_neg = rng.normal(scale=4.0, size=(n, 5))
        logits = Logits(f_pos=f_pos, f_neg=f_neg)
        ev = logits_to_evidence(logits)
        for name in SCORE_NAMES:
            batched = score_by_name(name, ev, logits, 0.3, 0.7)
            assert isinstance(batched, np.ndarray) and batched.shape == (n,)
            per_row = []
            for i in range(n):
                row_logits = Logits(f_pos=f_pos[i], f_neg=f_neg[i])
                value = score_by_name(
                    name, logits_to_evidence(row_logits), row_logits, 0.3, 0.7
                )
                assert type(value) is float
                per_row.append(value)
            np.testing.assert_array_equal(batched, np.array(per_row, dtype=float))

    def test_batched_inputs_validated(self):
        alpha = np.full((3, 2), 2.0)
        nan_row = alpha.copy()
        nan_row[1, 0] = np.nan
        with pytest.raises(ConfigError, match="finite"):
            EvidencePair(alpha=nan_row, beta=alpha)
        with pytest.raises(ConfigError, match="finite"):
            Logits(f_pos=alpha, f_neg=nan_row)
        with pytest.raises(ConfigError, match="shape"):
            EvidencePair(alpha=alpha, beta=alpha[:2])
        with pytest.raises(ConfigError, match="shape"):
            Logits(f_pos=alpha, f_neg=alpha[:, :1])
        with pytest.raises(ConfigError, match="shape"):
            EvidencePair(alpha=alpha[None], beta=alpha[None])


def _fsum_outcome(fn, x):
    """The bits of each row's sum, or the type and message of the error raised."""
    try:
        return fn(x).view(np.int64).tolist()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _fsum_loop(x):
    return np.array([math.fsum(row) for row in x.tolist()], dtype=float)


def _near_ties(seed, n=256):
    """Shuffled rows a, +-(h - h 2^-k), +-h 2^-k, +-h 2^-(k+j), 0 with h = ulp(a)/2,
    whose sums lie on or next to a rounding tie, half of them with a cancelling
    pair +-B (without it, a halving order does not reach the rows that need d)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-60, 60, n)
    h = np.spacing(a) / 2
    k, j = rng.integers(1, 60, (2, n))
    signs = rng.choice([-1.0, 1.0], (3, n))
    big = a * rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-60, 60, n) * (rng.random(n) < 0.5)
    x = np.stack([a, signs[0] * (h - h * 2.0**-k), signs[1] * h * 2.0**-k,
                  signs[2] * h * 2.0 ** -(k + j), np.zeros(n), big, -big], axis=1)
    return rng.permuted(x, axis=1)


class TestExactRowSums:
    """_fsum_rows certifies most rows without math.fsum and gives fsum's bits."""

    @settings(max_examples=150, deadline=None)
    @given(x=st.tuples(st.integers(0, 6), st.sampled_from([0, 1, 2, 5, 32])).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.floats() | st.sampled_from(
            [0.0, -0.0, 5e-324, -2.0**-1022, math.inf, -math.inf, math.nan, 1e308, -1e308]))))
    def test_any_floats_equal_fsum(self, x):
        assert _fsum_outcome(scores._fsum_rows, x) == _fsum_outcome(_fsum_loop, x)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_near_ties_equal_fsum(self, seed):
        x = _near_ties(seed)
        assert _fsum_outcome(scores._fsum_rows, x) == _fsum_outcome(_fsum_loop, x)

    def test_certified_and_fallback_rows(self):
        # rows that fsum alone may sum: r == 0, |x| summing past 2**1023, inf, a
        # row whose exact sum is finite but on which fsum's partials overflow
        top = np.finfo(float).max
        x = np.array([[0.1, 0.2, 0.3], [-0.0, -0.0, 0.0], [1e308, -1e308, 1.0],
                      [math.inf, 1.0, 1.0], [-(top - 2.0**971), 2.0**970, top], [1.0, 2.0, 3.0]])
        fsum = math.fsum
        with mock.patch.object(math, "fsum", wraps=fsum) as spy:
            with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
                scores._fsum_rows(x)
            got = _fsum_outcome(scores._fsum_rows, x[[0, 1, 2, 3, 5]])
        # only the fallback rows, in row order, and fsum's error from the first that raises
        assert [call.args[0] for call in spy.call_args_list] == [
            x[1].tolist(), x[2].tolist(), x[3].tolist(), x[4].tolist(),
            x[1].tolist(), x[2].tolist(), x[3].tolist()]
        assert got == _fsum_outcome(_fsum_loop, x[[0, 1, 2, 3, 5]])
        # near-tie rows take both branches
        x = _near_ties(0, 2000)
        with mock.patch.object(math, "fsum", wraps=fsum) as spy:
            scores._fsum_rows(x)
        assert 0 < spy.call_count < len(x)
