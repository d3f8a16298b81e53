import math

import numpy as np
import pytest

from betaood.errors import ConfigError
from betaood.evidence import EvidencePair, Logits, logits_to_evidence
from betaood.scores import (
    SCORE_NAMES,
    baseline_score,
    mix_scores,
    ood_score_max,
    ood_score_sum,
    score_by_name,
)

WORKED_EV = EvidencePair(alpha=[4.0, 2.0, 10.0], beta=[1.0, 2.0, 4.0])


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
