import numpy as np
import pytest

from betaood.errors import ConfigError
from betaood.evidence import EvidencePair, Logits, logits_to_evidence
from betaood.loss import beta_loss, beta_loss_grad
from betaood.special import quadrature_expected_bce


def ev1(alpha, beta):
    return EvidencePair(alpha=[alpha], beta=[beta])


class TestBetaLoss:
    def test_uniform_limit(self):
        eps = 1e-6
        value = beta_loss(ev1(1.0 + eps, 1.0 + eps), [1])
        assert value == pytest.approx(1.0, abs=1e-5)  # psi(2) - psi(1)

    def test_confident_correct_prediction_small_loss(self):
        value = beta_loss(ev1(10.0, 1.0 + 1e-9), [1])
        assert value == pytest.approx(0.1, abs=1e-6)  # psi(11) - psi(10)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = float(rng.uniform(1.01, 50.0))
            b = float(rng.uniform(1.01, 50.0))
            y = int(rng.integers(0, 2))
            assert beta_loss(ev1(a, b), [y]) == pytest.approx(
                quadrature_expected_bce(y, a, b), abs=1e-6
            )

    def test_multilabel_average_matches_oracle(self):
        rng = np.random.default_rng(29)
        for n in (1, 5, 20):
            alpha = rng.uniform(1.01, 50.0, n)
            beta = rng.uniform(1.01, 50.0, n)
            y = rng.integers(0, 2, n)
            expected = np.mean(
                [
                    quadrature_expected_bce(int(y[l]), float(alpha[l]), float(beta[l]))
                    for l in range(n)
                ]
            )
            ev = EvidencePair(alpha=alpha, beta=beta)
            assert beta_loss(ev, y) == pytest.approx(expected, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            alpha = rng.uniform(1.001, 100.0, 3)
            beta = rng.uniform(1.001, 100.0, 3)
            y = rng.integers(0, 2, 3)
            assert beta_loss(EvidencePair(alpha=alpha, beta=beta), y) >= 0.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            alpha = rng.uniform(1.01, 50.0, 4)
            beta = rng.uniform(1.01, 50.0, 4)
            y = rng.integers(0, 2, 4)
            lhs = beta_loss(EvidencePair(alpha=alpha, beta=beta), y)
            rhs = beta_loss(EvidencePair(alpha=beta, beta=alpha), 1 - y)
            assert lhs == rhs

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            beta_loss(ev1(2.0, 2.0), [1, 0])

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ConfigError):
            beta_loss(ev1(2.0, 2.0), [0.5])


def _loss_from_logits(f_pos, f_neg, y):
    logits = Logits(f_pos=f_pos, f_neg=f_neg)
    return beta_loss(logits_to_evidence(logits), y)


class TestBetaLossGrad:
    def test_sign_pattern_for_positive_label(self):
        logits = Logits(f_pos=[1.0], f_neg=[1.0])
        ev = logits_to_evidence(logits)
        grad = beta_loss_grad(ev, [1], logits)
        assert grad.d_alpha[0] < 0.0
        assert grad.d_beta[0] > 0.0

    def test_label_flip_swaps_gradients(self):
        f = [0.7, -0.3]
        logits = Logits(f_pos=f, f_neg=f)
        ev = logits_to_evidence(logits)
        g1 = beta_loss_grad(ev, [1, 1], logits)
        g0 = beta_loss_grad(ev, [0, 0], logits)
        np.testing.assert_array_equal(g1.d_alpha, g0.d_beta)
        np.testing.assert_array_equal(g1.d_beta, g0.d_alpha)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(41)
        h = 1e-5
        for _ in range(100):
            n = int(rng.integers(1, 5))
            f_pos = rng.normal(scale=2.0, size=n)
            f_neg = rng.normal(scale=2.0, size=n)
            y = rng.integers(0, 2, n)
            logits = Logits(f_pos=f_pos, f_neg=f_neg)
            grad = beta_loss_grad(logits_to_evidence(logits), y, logits)
            for l in range(n):
                up, dn = f_pos.copy(), f_pos.copy()
                up[l] += h
                dn[l] -= h
                fd = (_loss_from_logits(up, f_neg, y) - _loss_from_logits(dn, f_neg, y)) / (2 * h)
                assert grad.d_fpos[l] == pytest.approx(fd, rel=1e-4, abs=1e-10)
                up, dn = f_neg.copy(), f_neg.copy()
                up[l] += h
                dn[l] -= h
                fd = (_loss_from_logits(f_pos, up, y) - _loss_from_logits(f_pos, dn, y)) / (2 * h)
                assert grad.d_fneg[l] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_rejects_inconsistent_logits(self):
        logits = Logits(f_pos=[1.0], f_neg=[1.0])
        with pytest.raises(ConfigError):
            beta_loss_grad(ev1(5.0, 5.0), [1], logits)
