import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import betaood.model as model_mod
from betaood.errors import ConfigError, NumericError
from betaood.evidence import (
    EvidencePair,
    Logits,
    elu_array,
    elu_grad_array,
    logits_to_evidence,
)
from betaood.loss import beta_loss, beta_loss_grad, evidence_grad, loss_and_grad
from betaood.model import (
    ArchConfig,
    TrainConfig,
    _arrays,
    _batch_gradients,
    _forward_batch,
    init_params,
    param_shapes,
    train,
)
from betaood.special import digamma_array, trigamma_array
from oracles import (
    evidence_stack_reference,
    quadrature_expected_bce,
    stacked_loss_and_grad_reference,
)


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

def _three_rows(kernel, alpha, beta, y):
    """kernel(alpha), kernel(beta) and kernel(alpha + beta) as the earlier
    (alpha, beta, alpha + beta) stack's rows, taken from the kernel on the same
    two-row stack, which sets their shift.  That stack holds alpha only where
    y = 1 and beta only where y = 0; elsewhere the rows repeat the labelled
    value, which the three-row formulas weight by 0."""
    two = kernel(evidence_stack_reference(alpha, beta, y))
    return np.stack([two[1], two[1], two[0]])


def _three_row_loss_terms(alpha, beta, y):
    """The loss in the earlier three-row stack's formula."""
    psi = _three_rows(digamma_array, alpha, beta, y)
    return y * (psi[2] - psi[0]) + (1.0 - y) * (psi[2] - psi[1])


def _three_row_mean_loss_grad(alpha, beta, y):
    """The gradient in the earlier three-row stack's formula."""
    psi1 = _three_rows(trigamma_array, alpha, beta, y)
    n = y.shape[-1]
    d_alpha = (y * (psi1[2] - psi1[0]) + (1.0 - y) * psi1[2]) / n
    d_beta = (y * psi1[2] + (1.0 - y) * (psi1[2] - psi1[1])) / n
    return d_alpha, d_beta


def _three_row_batch_gradients(params, x, y, stacked_heads=True):
    """model._batch_gradients as it was on the three-row stack, with its own
    forward pass and each head through its own ELU and ELU derivative.  The
    heads' logits, weight gradients and bias gradients each come from one
    product or sum of both heads stacked, or with ``stacked_heads=False`` from
    one per head."""
    n = x.shape[0]
    pre_acts = []
    acts = [x]
    for w, b in zip(params.hidden_weights, params.hidden_biases):
        pre_acts.append(acts[-1] @ w.T + b)
        acts.append(elu_array(pre_acts[-1]))
    if stacked_heads:
        w = np.concatenate((params.w_pos, params.w_neg))
        f = acts[-1] @ w.T + np.concatenate((params.b_pos, params.b_neg))
        f_pos, f_neg = np.split(f, 2, axis=1)
    else:
        f_pos = acts[-1] @ params.w_pos.T + params.b_pos
        f_neg = acts[-1] @ params.w_neg.T + params.b_neg
    alpha, beta = elu_array(f_pos) + 2.0, elu_array(f_neg) + 2.0
    losses = _three_row_loss_terms(alpha, beta, y).mean(axis=1)
    d_alpha, d_beta = _three_row_mean_loss_grad(alpha, beta, y)
    d_fpos = d_alpha * elu_grad_array(f_pos) / n
    d_fneg = d_beta * elu_grad_array(f_neg) / n
    if stacked_heads:
        d_f = np.concatenate((d_fpos, d_fneg), axis=1)
        w_pos, w_neg = np.split(d_f.T @ acts[-1], 2)
        b_pos, b_neg = np.split(d_f.sum(axis=0), 2)
    else:
        w_pos, w_neg = d_fpos.T @ acts[-1], d_fneg.T @ acts[-1]
        b_pos, b_neg = d_fpos.sum(axis=0), d_fneg.sum(axis=0)
    grads = {"w_pos": w_pos, "b_pos": b_pos, "w_neg": w_neg, "b_neg": b_neg}
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
        terms, d = loss_and_grad(np.concatenate((alpha, beta), axis=1), y)
        assert d.shape == (alpha.shape[0], 2 * alpha.shape[1])
        d_alpha, d_beta = np.split(d, 2, axis=1)
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


class TestEvidenceBlock:
    """loss_and_grad builds its own stack from the evidence block [alpha | beta]."""

    @given(case=_labelled_evidence())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_stacked_call(self, case):
        alpha, beta, y = case
        terms, d = loss_and_grad(np.concatenate((alpha, beta), axis=1), y)
        want_terms, want_d = stacked_loss_and_grad_reference(alpha, beta, y)
        assert np.array_equal(terms, want_terms)
        assert np.array_equal(d, want_d)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_overflowing_evidence_sum_is_numeric_error(self, label):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"alpha \+ beta"):
            loss_and_grad(np.full((1, 2), 1e308), np.full((1, 1), label))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"alpha \+ beta"):
            beta_loss(EvidencePair(alpha=[1e308], beta=[1e308]), [label])

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_overflow_is_numeric_error_without_errstate(self, label):
        # under the default errstate, which the suite turns into errors, the
        # public calls raise NumericError, not numpy's overflow warning
        ev = EvidencePair(alpha=[1e308], beta=[1e308])
        logits = Logits(f_pos=[1e308], f_neg=[1e308])
        for call in (lambda: beta_loss(ev, [label]), lambda: evidence_grad(ev, [label]),
                     lambda: beta_loss_grad(ev, [label], logits)):
            with pytest.raises(NumericError, match=r"alpha \+ beta"):
                call()

    @staticmethod
    def _huge_head_biases(arch, seed):
        params = init_params(arch, seed)
        params.heads[1][:] = 1e308
        return params

    def test_batch_gradients_with_finite_logits_is_numeric_error(self):
        params = self._huge_head_biases(ArchConfig(input_dim=3, hidden=(4,), label_count=2), 0)
        x = np.random.default_rng(5).normal(size=(6, 3))
        y = np.tile([1.0, 0.0], (6, 1))
        assert np.isfinite(_forward_batch(params, x)[2]).all()
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"alpha \+ beta"):
            _batch_gradients(params, x, y)

    def test_train_diverges_at_the_first_batch(self, monkeypatch):
        monkeypatch.setattr(model_mod, "init_params", self._huge_head_biases)
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(20, 3)), np.tile([1.0, 0.0], (20, 1))
        with pytest.raises(NumericError,
                           match=r"^training diverged at epoch 1, batch 1: .*alpha \+ beta"):
            train(x, y, ArchConfig(input_dim=3, hidden=(4,), label_count=2),
                  TrainConfig(epochs=1, batch_size=8))


def _assert_matches_reference(params, x, y):
    losses, grads = _batch_gradients(params, x, y)
    shapes = param_shapes(params.arch)
    got = _arrays(shapes, vars(grads))
    # for L = 1 numpy sends each head's products to BLAS gemv and sums each
    # head's (N, 1) bias gradient pairwise, so one per head rounds otherwise;
    # from L = 2 on the stacked and per-head forms are bit-equal
    for stacked_heads in (True, False) if params.arch.label_count > 1 else (True,):
        want_losses, want = _three_row_batch_gradients(params, x, y, stacked_heads)
        assert np.array_equal(losses, want_losses)
        expected = _arrays(shapes, want)
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
