import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import label_sums_reference

from betaood import scores
from betaood.errors import ConfigError
from betaood.evidence import EvidencePair, Logits, logits_to_evidence
from betaood.metrics import ScoredDataset, detection_metrics, roc_curve
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
        # and 32 and 81 labels of magnitudes 1 to 1e12, whose plain float sum changes
        # with their order, the 32 also in F order
        wide = (*(1.0 + 10.0 ** rng.uniform(0.0, 12.0, (3, 40, 32))), rng.permutation(32))
        fortran = (*map(np.asfortranarray, wide[:3]), wide[3])
        many = (*(1.0 + 10.0 ** rng.uniform(0.0, 12.0, (3, 40, 81))), rng.permutation(81))
        for alpha, beta, f_pos, perm in ((alpha, beta, f_pos, perm), wide, fortran, many):
            if alpha.shape[1] >= 32:
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


class TestMaxPositiveRanksAsBaselines:
    """alpha = ELU(f) + 2 and sigma(f) both rise strictly with f, so u_m_p, maxlogit
    and msp order the rows alike: the paper's positive Max score is MaxLogit."""

    @settings(max_examples=100, deadline=None)
    @given(case=st.tuples(st.integers(2, 40), st.sampled_from([1, 2, 5, 32])).flatmap(
        lambda shape: st.tuples(
            hnp.arrays(np.float64, shape, elements=st.floats(-10.0, 10.0)),
            hnp.arrays(np.int64, shape[:1], elements=st.integers(0, 1)))))
    def test_detection_metrics_bit_equal(self, case):
        f_pos, is_ood = case
        is_ood[:2] = 0, 1  # both classes
        logits = Logits(f_pos=f_pos, f_neg=np.zeros_like(f_pos))
        ev = logits_to_evidence(logits)
        maxima = np.unique(f_pos.max(axis=1)).size
        ranks, bits = {}, {}
        for name in ("u_m_p", "maxlogit", "msp"):
            s = score_by_name(name, ev, logits)
            # rows whose largest logits differ could round to one score
            assume(np.unique(s).size == maxima)
            ranks[name] = np.unique(s, return_inverse=True)[1].tolist()
            m = detection_metrics(roc_curve(ScoredDataset(scores=s, is_ood=is_ood)))
            bits[name] = np.array([m.fpr95, m.auroc, m.aupr]).view(np.int64).tolist()
        assert ranks["u_m_p"] == ranks["maxlogit"] == ranks["msp"]
        assert bits["u_m_p"] == bits["maxlogit"] == bits["msp"]


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


def _layouts(x):
    """x's rows in C order, in F order, as a fancy-indexed permutation of its
    labels and as a strided view, each with the same rows as x up to label order."""
    perm = np.random.default_rng(x.shape[1]).permutation(x.shape[1])
    padded = np.zeros((2 * len(x), 3 * x.shape[1]))
    padded[::2, ::3] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "permuted": x[:, perm],
            "strided": padded[::2, ::3]}


_LABEL_COUNTS = st.sampled_from([1, 2, 5, 32, 81])


class TestLabelSums:
    """_label_sums adds each row's values smallest first, column by column."""

    @settings(max_examples=60, deadline=None)
    @given(x=st.tuples(st.integers(0, 6), _LABEL_COUNTS).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False,
                                                                      allow_infinity=False))))
    def test_equals_sorted_python_sum_in_every_layout(self, x):
        want = label_sums_reference(x).view(np.int64)
        with np.errstate(over="ignore"):  # a sum past the float maximum is inf in both
            for layout, rows in _layouts(x).items():
                np.testing.assert_array_equal(scores._label_sums(rows).view(np.int64), want,
                                              err_msg=layout)

    @settings(max_examples=60, deadline=None)
    @given(x=st.tuples(st.integers(1, 6), _LABEL_COUNTS).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(-1e300, 1e300))))
    def test_within_recursive_summation_bound(self, x):
        # |sum - S| <= (L - 1) 2**-53 sum|x| (Jeannerod and Rump), compared exactly,
        # for the exact sum S that math.fsum rounds: fsum's half ulp would come on top
        for row, got in zip(x.tolist(), scores._label_sums(x).tolist()):
            bound = Fraction(len(row) - 1, 2**53) * sum(Fraction(abs(v)) for v in row)
            assert abs(Fraction(got) - sum(map(Fraction, row))) <= bound

    def test_one_label_returns_its_bits(self):
        x = np.array([[-0.0], [5e-324], [-1.5], [math.inf], [math.nan], [1e308]])
        np.testing.assert_array_equal(scores._label_sums(x).view(np.int64),
                                      x[:, 0].view(np.int64))

    def test_overflow_raises_under_errstate(self):
        x = np.array([[1.0, 2.0], [1e308, 1e308]])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError,
                                                      match="overflow encountered in add"):
            scores._label_sums(x)


# ties and negative values among any finite or infinite float; zero only as +0.0, see
# test_signed_zero_tie_gives_a_zero
_MAX_CELLS = (st.sampled_from([-2.0, -1.0, 0.0, 1.0])
              | st.floats(allow_nan=False).map(lambda v: v + 0.0))


class TestRowMax:
    """_row_max takes each row's maximum one column at a time: np.max(x, axis=1)'s bits."""

    @settings(max_examples=120, deadline=None)
    @given(x=st.tuples(st.integers(1, 6), st.integers(1, 81)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=_MAX_CELLS)))
    def test_equals_np_max_in_every_layout(self, x):
        want = np.max(x, axis=1).view(np.int64)
        for layout, rows in _layouts(x).items():
            np.testing.assert_array_equal(scores._row_max(rows).view(np.int64), want,
                                          err_msg=layout)

    @pytest.mark.parametrize("labels", [2, 5, 9, 32])
    def test_signed_zero_tie_gives_a_zero(self, labels):
        # np.max's pick between -0.0 and 0.0 varies with the row's width and layout
        # (numpy 2.4: 0.0 for rows of 2-8 labels, -0.0 from 9 on), so the bits are
        # not pinned; no score sees such a tie: trained logits hold no -0.0, and
        # alpha, 1 / beta and the sigmoid are positive or +0.0
        x = np.full((2, labels), -2.0)
        x[0, :2], x[1, :2] = (-0.0, 0.0), (0.0, -0.0)
        assert scores._row_max(x).tolist() == [0.0, 0.0]

    def test_keeps_no_view_of_its_input(self):
        x = np.array([[3.0, 1.0], [-1.0, -0.5]])
        top = scores._row_max(x)
        assert top.flags.owndata and not np.shares_memory(top, x)
        assert top.tolist() == [3.0, -0.5] and x.tolist() == [[3.0, 1.0], [-1.0, -0.5]]

    @settings(max_examples=60, deadline=None)
    @given(f=st.integers(1, 81).flatmap(lambda labels: hnp.arrays(
        np.float64, (2, labels), elements=st.floats(-30.0, 30.0))))
    def test_one_sample_scores_as_np_max(self, f):
        # the max-based scores of one (L,) sample, as np.max over its labels wrote them
        logits = Logits(f[0], f[1])
        ev = logits_to_evidence(logits)
        pos, neg = 1.0 / np.max(ev.alpha), 1.0 - np.max(1.0 / ev.beta)
        want = {"positive": pos, "negative": neg, "combined": mix_scores(0.3, pos, neg)}
        for mode, value in want.items():
            assert ood_score_max(ev, mode, 0.3) == float(value)
        assert baseline_score(logits, "maxlogit") == float(-np.max(f[0]))
        msp = -np.max(np.exp(f[0] - np.logaddexp(0.0, f[0])))
        assert baseline_score(logits, "msp") == float(msp)
