import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from betaood.errors import ConfigError
from betaood.evidence import (
    EvidencePair,
    Logits,
    elu_array,
    elu_grad_array,
    logits_to_evidence,
)
from betaood.loss import (
    beta_loss,
    beta_loss_grad,
    evidence_stack,
    loss_and_grad,
)
from betaood.model import ArchConfig, _arrays, _batch_gradients, init_params, param_shapes
from betaood.special import digamma_array, quadrature_expected_bce, trigamma_array


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


# -- the two-row (alpha + beta, labelled evidence) stack is the three-row one --

def _three_row_loss_terms(alpha, beta, y):
    """The loss from the earlier (alpha, beta, alpha + beta) stack."""
    psi = digamma_array(np.stack([alpha, beta, alpha + beta]))
    return y * (psi[2] - psi[0]) + (1.0 - y) * (psi[2] - psi[1])


def _three_row_mean_loss_grad(alpha, beta, y):
    """The gradient from the earlier (alpha, beta, alpha + beta) stack."""
    psi1 = trigamma_array(np.stack([alpha, beta, alpha + beta]))
    n = y.shape[-1]
    d_alpha = (y * (psi1[2] - psi1[0]) + (1.0 - y) * psi1[2]) / n
    d_beta = (y * psi1[2] + (1.0 - y) * (psi1[2] - psi1[1])) / n
    return d_alpha, d_beta


def _three_row_batch_gradients(params, x, y):
    """model._batch_gradients as it was on the three-row stack, with its own
    forward pass and each head through its own ELU and ELU derivative."""
    n = x.shape[0]
    pre_acts = []
    acts = [x]
    for w, b in zip(params.hidden_weights, params.hidden_biases):
        pre_acts.append(acts[-1] @ w.T + b)
        acts.append(elu_array(pre_acts[-1]))
    f_pos = acts[-1] @ params.w_pos.T + params.b_pos
    f_neg = acts[-1] @ params.w_neg.T + params.b_neg
    alpha, beta = elu_array(f_pos) + 2.0, elu_array(f_neg) + 2.0
    losses = _three_row_loss_terms(alpha, beta, y).mean(axis=1)
    d_alpha, d_beta = _three_row_mean_loss_grad(alpha, beta, y)
    d_fpos = d_alpha * elu_grad_array(f_pos) / n
    d_fneg = d_beta * elu_grad_array(f_neg) / n
    grads = {
        "w_pos": d_fpos.T @ acts[-1],
        "b_pos": d_fpos.sum(axis=0),
        "w_neg": d_fneg.T @ acts[-1],
        "b_neg": d_fneg.sum(axis=0),
    }
    d_h = d_fpos @ params.w_pos + d_fneg @ params.w_neg
    grads_hw = []
    grads_hb = []
    for layer in range(len(params.hidden_weights) - 1, -1, -1):
        d_z = d_h * elu_grad_array(pre_acts[layer])
        grads_hw.append(d_z.T @ acts[layer])
        grads_hb.append(d_z.sum(axis=0))
        d_h = d_z @ params.hidden_weights[layer]
    grads["hidden_weights"] = list(reversed(grads_hw))
    grads["hidden_biases"] = list(reversed(grads_hb))
    return losses, grads


# evidence near 1 (the losing head), at the shift threshold, and up to 1e200
_EVIDENCE = st.one_of(
    st.floats(1.0, 1.0 + 1e-6, exclude_min=True),
    st.floats(1.0, 10.0, exclude_min=True),
    st.floats(1e-3, 1e200),
    st.sampled_from([np.nextafter(6.0, 0.0), 6.0, 1e200]),
)


@st.composite
def _labelled_evidence(draw):
    """(alpha, beta, y) of shape (B, L); beta may equal alpha, and label rows
    may be all 0 or all 1."""
    b = draw(st.integers(1, 6))
    l = draw(st.integers(1, 6))
    alpha = draw(hnp.arrays(float, (b, l), elements=_EVIDENCE))
    beta = alpha.copy() if draw(st.booleans()) else draw(
        hnp.arrays(float, (b, l), elements=_EVIDENCE)
    )
    y = draw(hnp.arrays(float, (b, l), elements=st.sampled_from([0.0, 1.0])))
    for row in range(b):
        fill = draw(st.sampled_from([None, 0.0, 1.0]))
        if fill is not None:
            y[row] = fill
    return alpha, beta, y


class TestTwoRowStackMatchesThreeRow:
    @given(case=_labelled_evidence())
    @settings(max_examples=300, deadline=None)
    def test_loss_and_gradient_bit_equal(self, case):
        alpha, beta, y = case
        stack = evidence_stack(alpha, beta, y)
        assert stack.shape == (2, *alpha.shape)
        terms, d_alpha, d_beta = loss_and_grad(stack, y)
        assert np.array_equal(terms, _three_row_loss_terms(alpha, beta, y))
        want_alpha, want_beta = _three_row_mean_loss_grad(alpha, beta, y)
        assert np.array_equal(d_alpha, want_alpha)
        assert np.array_equal(d_beta, want_beta)

    @given(
        hidden=st.sampled_from([(5,), (6, 3)]),
        rows=st.integers(1, 9),
        labels=st.integers(1, 5),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_gradients_bit_equal(self, hidden, rows, labels, scale, seed):
        rng = np.random.default_rng(seed)
        arch = ArchConfig(input_dim=3, hidden=hidden, label_count=labels)
        params = init_params(arch, seed)
        x = scale * rng.normal(size=(rows, 3))
        y = rng.integers(0, 2, size=(rows, labels)).astype(float)
        y[0] = 1.0
        y[-1] = 0.0
        _assert_matches_reference(params, x, y)


def _assert_matches_reference(params, x, y):
    losses, grads = _batch_gradients(params, x, y)
    want_losses, want = _three_row_batch_gradients(params, x, y)
    assert np.array_equal(losses, want_losses)
    shapes = param_shapes(params.arch)
    got, expected = _arrays(shapes, grads), _arrays(shapes, want)
    # one gradient array per parameter array, layer by layer
    assert len(got) == len(expected) == len(_arrays(shapes, vars(params)))
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


@pytest.mark.parametrize("rows, features, hidden, labels", [
    (64, 8, (32,), 5),  # default and scaled
    (16, 8, (32,), 5),  # their last batch of an epoch
    (64, 64, (128,), 32),  # wide
    (1, 64, (128,), 32),  # a one-row last batch
    (64, 8, (32,), 1),  # one label: each head's product is a matrix-vector one
    (9, 3, (6, 3), 1),
], ids=["default", "default_last", "wide", "wide_one_row", "one_label", "tiny_one_label"])
def test_head_block_bit_equal_to_separate_heads(rows, features, hidden, labels):
    """The (N, 2L) ELU block and the two-row stack give what separate heads
    through their own ELU and ELU derivative give, at the workloads' shapes."""
    rng = np.random.default_rng(rows + labels)
    params = init_params(ArchConfig(features, hidden, labels), seed=rows)
    x = 3.0 * rng.normal(size=(rows, features))
    y = rng.integers(0, 2, size=(rows, labels)).astype(float)
    _assert_matches_reference(params, x, y)
