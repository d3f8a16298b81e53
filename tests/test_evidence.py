import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaood.errors import ConfigError
from betaood.evidence import (
    EvidencePair,
    Logits,
    elu_array,
    elu_grad_array,
    evidence_to_opinion,
    evidence_to_prediction,
    logits_to_evidence,
)
from oracles import elu_grad_scalar_zero_reference, elu_scalar_zero_reference

finite_logits = st.lists(
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


class TestLogitsToEvidence:
    def test_zero_logit(self):
        ev = logits_to_evidence(Logits(f_pos=[0.0], f_neg=[0.0]))
        assert ev.alpha[0] == 2.0
        assert ev.beta[0] == 2.0

    def test_identity_branch(self):
        ev = logits_to_evidence(Logits(f_pos=[3.0], f_neg=[0.0]))
        assert ev.alpha[0] == 5.0

    def test_deep_negative_logit_stays_above_one(self):
        ev = logits_to_evidence(Logits(f_pos=[-20.0], f_neg=[0.0]))
        assert ev.alpha[0] == pytest.approx(1.0 + math.exp(-20.0), rel=1e-9)
        assert ev.alpha[0] > 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigError):
            Logits(f_pos=[float("nan")], f_neg=[0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            Logits(f_pos=[0.0, 1.0], f_neg=[0.0])

    @given(finite_logits)
    def test_evidence_always_above_one(self, values):
        ev = logits_to_evidence(Logits(f_pos=values, f_neg=values))
        assert np.all(ev.alpha > 1.0)
        assert np.all(ev.beta > 1.0)


class TestOpinion:
    def test_symmetric_example(self):
        op = evidence_to_opinion(EvidencePair(alpha=[2.0], beta=[2.0]))
        assert op.belief[0] == pytest.approx(0.25, abs=1e-15)
        assert op.disbelief[0] == pytest.approx(0.25, abs=1e-15)
        assert op.uncertainty[0] == pytest.approx(0.5, abs=1e-15)

    def test_boundary_disbelief_zero(self):
        op = evidence_to_opinion(EvidencePair(alpha=[3.0], beta=[1.0]))
        assert op.belief[0] == pytest.approx(0.5, abs=1e-15)
        assert op.disbelief[0] == 0.0
        assert op.uncertainty[0] == pytest.approx(0.5, abs=1e-15)

    def test_rejects_simplex_violation(self):
        with pytest.raises(ConfigError, match="simplex"):
            evidence_to_opinion(
                EvidencePair(alpha=[1.5], beta=[2.0]), prior_weight=2.0, base_rate=1.0
            )
        batch = EvidencePair(alpha=[[2.0, 2.0], [2.0, 1.5]], beta=[[2.0, 2.0], [2.0, 2.0]])
        with pytest.raises(ConfigError, match="sample 1, label 1"):
            evidence_to_opinion(batch, prior_weight=2.0, base_rate=1.0)

    @given(finite_logits)
    @settings(max_examples=200)
    def test_simplex_sums_to_one(self, values):
        ev = logits_to_evidence(Logits(f_pos=values, f_neg=values[::-1]))
        op = evidence_to_opinion(ev)
        total = op.belief + op.disbelief + op.uncertainty
        assert np.all(np.abs(total - 1.0) <= 1e-12)
        assert np.all(op.belief >= 0)
        assert np.all(op.disbelief >= 0)
        assert np.all(op.uncertainty > 0)

    @given(finite_logits)
    @settings(max_examples=200)
    def test_mean_identity(self, values):
        ev = logits_to_evidence(Logits(f_pos=values, f_neg=values[::-1]))
        op = evidence_to_opinion(ev)
        pred = evidence_to_prediction(ev)
        assert np.all(
            np.abs(pred.p - (op.belief + op.base_rate * op.uncertainty)) <= 1e-12
        )

    def test_uncertainty_bounded_by_half_weight(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ev = logits_to_evidence(
                Logits(f_pos=rng.normal(size=4), f_neg=rng.normal(size=4))
            )
            op = evidence_to_opinion(ev)
            assert np.all(op.uncertainty <= 1.0)  # W / (alpha + beta) with sum > 2
            assert np.all(op.uncertainty > 0.0)


class TestPrediction:
    def test_three_to_one(self):
        pred = evidence_to_prediction(EvidencePair(alpha=[3.0], beta=[1.0]))
        assert pred.p[0] == 0.75

    def test_symmetric_is_half(self):
        pred = evidence_to_prediction(EvidencePair(alpha=[7.3], beta=[7.3]))
        assert pred.p[0] == 0.5

    def test_monotone_in_alpha(self):
        beta = 3.0
        alphas = np.linspace(1.1, 40.0, 50)
        probs = [
            evidence_to_prediction(EvidencePair(alpha=[a], beta=[beta])).p[0]
            for a in alphas
        ]
        assert np.all(np.diff(probs) > 0)

    def test_uncertainty_decreasing_in_total_evidence(self):
        totals = np.linspace(2.5, 100.0, 50)
        us = [
            evidence_to_opinion(EvidencePair(alpha=[t / 2], beta=[t / 2])).uncertainty[0]
            for t in totals
        ]
        assert np.all(np.diff(us) < 0)


# NaN of both signs, the signed zeros and infinities, the smallest subnormals,
# the smallest normals, the finite extremes and an x whose exp underflows
_ELU_VALUES = np.array([
    np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324,
    2.2e-308, -2.2e-308, 1e308, -1e308, -745.2,
])
_ELU_VALUES_32 = np.array([
    np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 1e-45, -1e-45,
    1.2e-38, -1.2e-38, 3e38, -3e38, -104.0,
], dtype=np.float32)
assert np.signbit(_ELU_VALUES[:2]).tolist() == [False, True]
assert np.signbit(_ELU_VALUES_32[:2]).tolist() == [False, True]


def _elu_inputs():
    """Each shape's input: every value of _ELU_VALUES, then random draws of them.
    The half is the first L columns of a (N, 2L) block, as predict_batch passes
    each head; both zero forms of evidence.zero_operand are reached, in float64
    and in float32, whose result must stay float32."""
    rng = np.random.default_rng(29)
    cases = {}
    for shape in [(), (0,), (17,), (64, 32), (64, 128), (2000, 128), (10000, 32)]:
        cases[str(shape)] = rng.choice(_ELU_VALUES, size=shape)
    for n, labels in [(64, 5), (2000, 32), (10000, 5)]:
        cases[f"({n}, {labels}) half"] = rng.choice(_ELU_VALUES, size=(n, 2 * labels))[:, :labels]
    for shape in [(64, 32), (10000, 32)]:
        cases[f"{shape} float32"] = rng.choice(_ELU_VALUES_32, size=shape)
    for x in cases.values():
        values = _ELU_VALUES_32 if x.dtype == np.float32 else _ELU_VALUES
        k = min(x.size, values.size)
        x.flat[:k] = values[:k]
    return cases


_ELU_INPUTS = _elu_inputs()


@pytest.mark.parametrize("fn, reference", [
    (elu_array, elu_scalar_zero_reference),
    (elu_grad_array, elu_grad_scalar_zero_reference),
], ids=["elu", "elu_grad"])
@pytest.mark.parametrize("case", list(_ELU_INPUTS))
def test_elu_pair_bit_equal_to_the_scalar_zero_forms(fn, reference, case):
    x = _ELU_INPUTS[case]
    before = x.copy()
    got, want = np.asarray(fn(x)), np.asarray(reference(x))
    assert got.dtype == want.dtype == x.dtype
    assert got.shape == want.shape == x.shape
    bits = f"i{x.itemsize}"
    assert np.array_equal(got.view(bits), want.view(bits))
    assert np.array_equal(x.view(bits), before.view(bits))
