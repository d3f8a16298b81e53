import csv
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaood.errors import ConfigError, DataError
from betaood.metrics import (
    DetectionMetrics,
    RocCurve,
    ScoredDataset,
    auroc,
    aupr,
    average_precision,
    detection_metrics,
    fpr_at_tpr,
    mean_average_precision,
    roc_curve,
    write_roc_csv,
)


def pairwise_auroc_oracle(scores, is_ood):
    """Exact rational pairwise estimator: (#{ood > ind} + 0.5 ties) / (n_o * n_i)."""
    ood = [s for s, o in zip(scores, is_ood) if o]
    ind = [s for s, o in zip(scores, is_ood) if not o]
    wins = Fraction(0)
    for so in ood:
        for si in ind:
            if so > si:
                wins += 1
            elif so == si:
                wins += Fraction(1, 2)
    return wins / (len(ood) * len(ind))


def brute_force_pr_oracle(scores, is_ood):
    """Step-interpolated AUPR from an exhaustive sweep over distinct thresholds."""
    thresholds = sorted(set(scores), reverse=True)
    area = Fraction(0)
    prev_recall = Fraction(0)
    n_pos = sum(is_ood)
    for tau in thresholds:
        tp = sum(1 for s, o in zip(scores, is_ood) if o and s >= tau)
        fp = sum(1 for s, o in zip(scores, is_ood) if not o and s >= tau)
        recall = Fraction(tp, n_pos)
        precision = Fraction(tp, tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def brute_force_fpr_oracle(scores, is_ood, target):
    """FPR at the largest distinct threshold reaching the target TPR."""
    n_pos = sum(is_ood)
    n_neg = len(is_ood) - n_pos
    for tau in sorted(set(scores), reverse=True):
        tp = sum(1 for s, o in zip(scores, is_ood) if o and s >= tau)
        if Fraction(tp, n_pos) >= target:
            fp = sum(1 for s, o in zip(scores, is_ood) if not o and s >= tau)
            return Fraction(fp, n_neg)
    raise AssertionError("sweep must reach TPR=1")


def random_dataset(rng, n_max=200, tie_prone=False):
    n = int(rng.integers(4, n_max + 1))
    is_ood = np.zeros(n, dtype=int)
    n_pos = int(rng.integers(1, n))
    is_ood[:n_pos] = 1
    rng.shuffle(is_ood)
    if tie_prone:
        scores = rng.integers(0, 6, n).astype(float)
    else:
        scores = rng.normal(size=n)
    return scores, is_ood


class TestAuroc:
    def test_perfect_separation(self):
        ds = ScoredDataset(scores=[0.1, 0.2, 0.8, 0.9], is_ood=[0, 0, 1, 1])
        assert auroc(ds) == 1.0

    def test_all_ties_is_half(self):
        ds = ScoredDataset(scores=[0.5] * 6, is_ood=[0, 1, 0, 1, 0, 1])
        assert auroc(ds) == 0.5

    def test_worked_example(self):
        ds = ScoredDataset(scores=[0.9, 0.4, 0.5, 0.1], is_ood=[1, 1, 0, 0])
        assert auroc(ds) == 0.75

    def test_pairwise_oracle_200_random_datasets(self):
        rng = np.random.default_rng(61)
        for k in range(200):
            scores, is_ood = random_dataset(rng, tie_prone=(k % 2 == 0))
            value = auroc(ScoredDataset(scores=scores, is_ood=is_ood))
            oracle = pairwise_auroc_oracle(scores.tolist(), is_ood.tolist())
            assert value == pytest.approx(float(oracle), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            ScoredDataset(scores=[0.1, 0.2], is_ood=[1, 1])

    def test_complement_under_negation(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            scores, is_ood = random_dataset(rng)  # tie-free
            a = auroc(ScoredDataset(scores=scores, is_ood=is_ood))
            b = auroc(ScoredDataset(scores=-scores, is_ood=is_ood))
            assert a + b == pytest.approx(1.0, abs=1e-12)


class TestAupr:
    def test_perfect_separation(self):
        ds = ScoredDataset(scores=[0.1, 0.2, 0.8, 0.9], is_ood=[0, 0, 1, 1])
        assert aupr(ds) == 1.0

    def test_all_ties_is_prevalence(self):
        ds = ScoredDataset(scores=[1.0] * 5, is_ood=[1, 1, 0, 0, 0])
        assert aupr(ds) == pytest.approx(0.4, abs=1e-12)

    def test_worked_example(self):
        # exhaustive threshold sweep gives 5/6 for this dataset
        ds = ScoredDataset(scores=[0.9, 0.4, 0.5, 0.1], is_ood=[1, 1, 0, 0])
        oracle = brute_force_pr_oracle([0.9, 0.4, 0.5, 0.1], [1, 1, 0, 0])
        assert oracle == Fraction(5, 6)
        assert aupr(ds) == pytest.approx(float(oracle), abs=1e-12)

    def test_brute_force_oracle_random_datasets(self):
        rng = np.random.default_rng(71)
        for k in range(100):
            scores, is_ood = random_dataset(rng, n_max=50, tie_prone=(k % 2 == 0))
            value = aupr(ScoredDataset(scores=scores, is_ood=is_ood))
            oracle = brute_force_pr_oracle(scores.tolist(), is_ood.tolist())
            assert value == pytest.approx(float(oracle), abs=1e-12)


class TestFprAtTpr:
    def test_perfect_separation(self):
        ds = ScoredDataset(scores=[0.1, 0.2, 0.8, 0.9], is_ood=[0, 0, 1, 1])
        assert fpr_at_tpr(ds) == 0.0

    def test_worked_example(self):
        ds = ScoredDataset(scores=[0.9, 0.8, 0.85, 0.1], is_ood=[1, 1, 0, 0])
        assert fpr_at_tpr(ds, 0.95) == 0.5

    def test_all_ties_admits_everyone(self):
        ds = ScoredDataset(scores=[0.3] * 4, is_ood=[1, 1, 0, 0])
        assert fpr_at_tpr(ds) == 1.0

    def test_brute_force_oracle_random_datasets(self):
        rng = np.random.default_rng(73)
        for k in range(100):
            scores, is_ood = random_dataset(rng, n_max=50, tie_prone=(k % 2 == 0))
            for target in (0.5, 0.8, 0.95):
                value = fpr_at_tpr(ScoredDataset(scores=scores, is_ood=is_ood), target)
                oracle = brute_force_fpr_oracle(
                    scores.tolist(), is_ood.tolist(), Fraction(target).limit_denominator()
                )
                assert value == pytest.approx(float(oracle), abs=1e-12)

    def test_nonincreasing_in_decreasing_target(self):
        rng = np.random.default_rng(79)
        scores, is_ood = random_dataset(rng, n_max=100)
        ds = ScoredDataset(scores=scores, is_ood=is_ood)
        values = [fpr_at_tpr(ds, t) for t in (0.95, 0.8, 0.6, 0.4, 0.2)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_target(self):
        ds = ScoredDataset(scores=[0.1, 0.9], is_ood=[0, 1])
        with pytest.raises(ConfigError):
            fpr_at_tpr(ds, 0.0)
        with pytest.raises(ConfigError):
            fpr_at_tpr(ds, 1.5)


class TestRocCurve:
    def test_perfect_separation_two_samples(self):
        ds = ScoredDataset(scores=[0.9, 0.1], is_ood=[1, 0])
        assert roc_curve(ds).points == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_all_equal_two_samples(self):
        ds = ScoredDataset(scores=[0.5, 0.5], is_ood=[1, 0])
        assert roc_curve(ds).points == [(0.0, 0.0), (1.0, 1.0)]

    def test_monotone_point_list(self):
        rng = np.random.default_rng(83)
        scores, is_ood = random_dataset(rng)
        pts = roc_curve(ScoredDataset(scores=scores, is_ood=is_ood)).points
        fprs = [p[0] for p in pts]
        tprs = [p[1] for p in pts]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)
        assert pts[0] == (0.0, 0.0)
        assert pts[-1] == (1.0, 1.0)

    def test_area_consistency_with_auroc(self):
        rng = np.random.default_rng(89)
        scores = np.concatenate([rng.normal(1.0, 1.0, 50), rng.normal(0.0, 1.0, 50)])
        is_ood = np.concatenate([np.ones(50, dtype=int), np.zeros(50, dtype=int)])
        ds = ScoredDataset(scores=scores, is_ood=is_ood)
        pts = roc_curve(ds).points
        area = sum(
            (pts[i + 1][0] - pts[i][0]) * (pts[i + 1][1] + pts[i][1]) / 2.0
            for i in range(len(pts) - 1)
        )
        assert auroc(ds) == pytest.approx(area, abs=1e-12)


class TestMonotoneTransformInvariance:
    def test_all_metrics_invariant(self):
        rng = np.random.default_rng(97)
        scores, is_ood = random_dataset(rng, n_max=80)
        ds = ScoredDataset(scores=scores, is_ood=is_ood)
        transformed = ScoredDataset(scores=np.exp(scores) + scores**3, is_ood=is_ood)
        assert auroc(ds) == auroc(transformed)
        assert aupr(ds) == aupr(transformed)
        assert fpr_at_tpr(ds) == fpr_at_tpr(transformed)
        assert [p for p in roc_curve(ds).points] == [
            p for p in roc_curve(transformed).points
        ]


class TestMeanAveragePrecision:
    def test_perfect_predictions(self):
        labels = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        probs = np.where(labels == 1, 0.99, 0.01)
        assert mean_average_precision(probs, labels) == 1.0

    def test_hand_enumeration_single_label(self):
        # positives ranked 1st and 3rd of 4 -> AP = (1/1 + 2/3) / 2 = 5/6
        probs = np.array([[0.9], [0.7], [0.5], [0.3]])
        labels = np.array([[1], [0], [1], [0]])
        assert mean_average_precision(probs, labels) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(101)
        probs = rng.uniform(size=(30, 4))
        labels = (rng.uniform(size=(30, 4)) < 0.4).astype(int)
        labels[0] = 1  # ensure every column has a positive
        perm = rng.permutation(4)
        assert mean_average_precision(probs, labels) == mean_average_precision(
            probs[:, perm], labels[:, perm]
        )

    def test_all_negative_column_rejected(self):
        probs = np.full((3, 2), 0.5)
        labels = np.array([[1, 0], [1, 0], [0, 0]])
        with pytest.raises(DataError, match="column 1"):
            mean_average_precision(probs, labels)


# -- the three-sweep formulas detection_metrics replaced, kept as a reference --


def _reference_sweep(ds, positive_is_ood):
    positive = ds.is_ood.astype(bool) if positive_is_ood else ~ds.is_ood.astype(bool)
    order = np.argsort(-ds.scores, kind="stable")
    sorted_scores = ds.scores[order]
    sorted_pos = positive[order].astype(int)
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    boundaries = np.concatenate([distinct, [sorted_scores.size - 1]])
    tp = np.cumsum(sorted_pos)[boundaries]
    fp = (boundaries + 1) - tp
    return tp, fp, int(positive.sum()), int((~positive).sum())


def _reference_points(ds, positive_is_ood):
    tp, fp, n_pos, n_neg = _reference_sweep(ds, positive_is_ood)
    return [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]


def _reference_metrics(ds, target_tpr, positive_is_ood):
    fpr, tpr = np.array(_reference_points(ds, positive_is_ood)).T
    area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) * 0.5))
    tp, fp, n_pos, n_neg = _reference_sweep(ds, positive_is_ood)
    recall = tp / n_pos
    precision = tp / (tp + fp)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    pr_area = float(np.sum((recall - prev_recall) * precision))
    tp, fp, n_pos, n_neg = _reference_sweep(ds, positive_is_ood)
    idx = int(np.argmax(tp / n_pos >= target_tpr))
    return DetectionMetrics(auroc=area, aupr=pr_area, fpr95=float(fp[idx] / n_neg))


@st.composite
def scored_datasets(draw):
    """Both classes present, n_pos and n_neg free; scores from a handful of
    values (heavy ties, down to a single distinct score) or from any floats."""
    n = draw(st.integers(2, 60))
    is_ood = draw(st.lists(st.booleans(), min_size=n, max_size=n)
                  .filter(lambda v: 0 < sum(v) < len(v)))
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4))
        scores = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    else:
        scores = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    return ScoredDataset(scores=scores, is_ood=np.array(is_ood, dtype=int))


class TestOneSweepMatchesThreeSweeps:
    @given(ds=scored_datasets(), positive_is_ood=st.booleans(),
           target=st.sampled_from([0.2, 0.5, 0.95, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_metrics_bit_equal(self, ds, positive_is_ood, target):
        got = detection_metrics(roc_curve(ds, positive_is_ood), target)
        want = _reference_metrics(ds, target, positive_is_ood)
        assert got == want
        assert repr(got) == repr(want)
        assert roc_curve(ds, positive_is_ood).points == _reference_points(ds, positive_is_ood)

    @given(ds=scored_datasets(), positive_is_ood=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_roc_csv_bytes_equal_csv_writer(self, ds, positive_is_ood, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "roc_bit_equal.csv"
        write_roc_csv(roc_curve(ds, positive_is_ood), path)
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(
            [["fpr", "tpr"], *([repr(f), repr(t)] for f, t in _reference_points(ds, positive_is_ood))]
        )
        assert path.read_bytes() == buf.getvalue().encode()

    def test_rates_and_points_derive_from_counts(self):
        ds = ScoredDataset(scores=[0.9, 0.4, 0.4, 0.1, 0.1], is_ood=[1, 1, 0, 0, 1])
        curve = roc_curve(ds)
        assert curve.tp.tolist() == [1, 2, 3] and curve.fp.tolist() == [0, 1, 2]
        assert (curve.n_pos, curve.n_neg) == (3, 2)
        assert curve.fpr.tolist() == [0.0, 0.0, 0.5, 1.0]
        assert curve.tpr.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]
        assert curve.points == list(zip(curve.fpr.tolist(), curve.tpr.tolist()))
        with pytest.raises(ValueError):
            curve.tp[0] = 0


@st.composite
def tied_datasets(draw):
    """Scores from a few small integers and both zeros, so that nearly every
    score is tied; up to 300 rows, where an unstable sort reorders ties."""
    n = draw(st.integers(2, 300))
    is_ood = draw(st.lists(st.booleans(), min_size=n, max_size=n)
                  .filter(lambda v: 0 < sum(v) < len(v)))
    value = st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0])
    scores = draw(st.lists(value, min_size=n, max_size=n))
    return ScoredDataset(scores=scores, is_ood=np.array(is_ood, dtype=int))


class TestTieOrder:
    """roc_curve reads TP/FP at the end of each run of equal scores, so the
    order within a tie cannot change them; average precision ranks every row,
    so it keeps the row order of ties."""

    @given(ds=tied_datasets(), positive_is_ood=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_roc_counts_equal_stable_sort(self, ds, positive_is_ood):
        curve = roc_curve(ds, positive_is_ood)
        tp, fp, n_pos, n_neg = _reference_sweep(ds, positive_is_ood)
        assert np.array_equal(curve.tp, tp) and np.array_equal(curve.fp, fp)
        assert (curve.n_pos, curve.n_neg) == (n_pos, n_neg)

    def test_roc_counts_equal_stable_sort_large(self):
        rng = np.random.default_rng(7)
        scores = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=5000)
        ds = ScoredDataset(scores=scores, is_ood=rng.integers(0, 2, size=5000))
        for positive_is_ood in (True, False):
            curve = roc_curve(ds, positive_is_ood)
            tp, fp, _, _ = _reference_sweep(ds, positive_is_ood)
            assert np.array_equal(curve.tp, tp) and np.array_equal(curve.fp, fp)

    def test_average_precision_ranks_ties_in_row_order(self):
        assert average_precision(np.array([0.5, 0.5]), np.array([1, 0])) == 1.0
        assert average_precision(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5

    def test_average_precision_equals_stable_ranking(self):
        rng = np.random.default_rng(11)
        scores = rng.choice([0.25, 0.5, 0.75], size=300)
        labels = rng.integers(0, 2, size=300)
        # Python's sort is stable: ties stay in row order
        hits = labels[sorted(range(300), key=lambda i: -scores[i])]
        ranks = np.flatnonzero(hits) + 1
        want = float(np.mean(np.arange(1, ranks.size + 1) / ranks))
        assert average_precision(scores, labels) == want
