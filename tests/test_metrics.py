import csv
import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from example_files import example_dir
from oracles import assert_same_bytes

from betaood import metrics, tables
from betaood.errors import ConfigError, DataError
from betaood.metrics import (
    DetectionMetrics,
    RocCurve,
    ScoredDataset,
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
        assert detection_metrics(roc_curve(ds)).auroc == 1.0

    def test_all_ties_is_half(self):
        ds = ScoredDataset(scores=[0.5] * 6, is_ood=[0, 1, 0, 1, 0, 1])
        assert detection_metrics(roc_curve(ds)).auroc == 0.5

    def test_worked_example(self):
        ds = ScoredDataset(scores=[0.9, 0.4, 0.5, 0.1], is_ood=[1, 1, 0, 0])
        assert detection_metrics(roc_curve(ds)).auroc == 0.75

    def test_pairwise_oracle_200_random_datasets(self):
        rng = np.random.default_rng(61)
        for k in range(200):
            scores, is_ood = random_dataset(rng, tie_prone=(k % 2 == 0))
            ds = ScoredDataset(scores=scores, is_ood=is_ood)
            value = detection_metrics(roc_curve(ds)).auroc
            oracle = pairwise_auroc_oracle(scores.tolist(), is_ood.tolist())
            assert value == pytest.approx(float(oracle), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            ScoredDataset(scores=[0.1, 0.2], is_ood=[1, 1])

    def test_complement_under_negation(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            scores, is_ood = random_dataset(rng)  # tie-free
            a = detection_metrics(roc_curve(ScoredDataset(scores=scores, is_ood=is_ood))).auroc
            b = detection_metrics(roc_curve(ScoredDataset(scores=-scores, is_ood=is_ood))).auroc
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
        assert detection_metrics(roc_curve(ds)).auroc == pytest.approx(area, abs=1e-12)


class TestMonotoneTransformInvariance:
    def test_all_metrics_invariant(self):
        rng = np.random.default_rng(97)
        scores, is_ood = random_dataset(rng, n_max=80)
        ds = ScoredDataset(scores=scores, is_ood=is_ood)
        transformed = ScoredDataset(scores=np.exp(scores) + scores**3, is_ood=is_ood)
        assert (detection_metrics(roc_curve(ds)).auroc
                == detection_metrics(roc_curve(transformed)).auroc)
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


def _positive(ds, positive_is_ood):
    """ds as roc_curve reads it, OOD the positive class: with classes swapped
    where IND is the positive class of the reference."""
    return ds if positive_is_ood else ScoredDataset(scores=ds.scores, is_ood=1 - ds.is_ood)


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
        got = detection_metrics(roc_curve(_positive(ds, positive_is_ood)), target)
        want = _reference_metrics(ds, target, positive_is_ood)
        assert got == want
        assert repr(got) == repr(want)
        curve = roc_curve(_positive(ds, positive_is_ood))
        assert curve.points == _reference_points(ds, positive_is_ood)

    @given(ds=scored_datasets(), positive_is_ood=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_roc_csv_bytes_equal_csv_writer(self, ds, positive_is_ood, tmp_path_factory):
        # a new file each example: rewriting one is slow on some filesystems
        with example_dir(tmp_path_factory, "roc") as d:
            path = d / "roc_bit_equal.csv"
            write_roc_csv(roc_curve(_positive(ds, positive_is_ood)), path)
            buf = io.StringIO(newline="")
            csv.writer(buf).writerows(
                [["fpr", "tpr"], *([repr(f), repr(t)] for f, t in _reference_points(ds, positive_is_ood))]
            )
            assert_same_bytes(path.read_bytes(), buf.getvalue().encode())

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


def _roc_reference_bytes(curve) -> bytes:
    """csv.writer of the repr pairs of k / n at each count, from (0, 0)."""
    buf = io.StringIO(newline="")
    points = zip([0, *curve.fp.tolist()], [0, *curve.tp.tolist()])
    csv.writer(buf).writerows([["fpr", "tpr"], *([repr(f / curve.n_neg), repr(t / curve.n_pos)]
                                                 for f, t in points)])
    return buf.getvalue().encode()


def _every_count_curve(n_neg: int, n_pos: int):
    """A curve of distinct scores, one sample a threshold, whose FP and TP take
    every count from 0 to their class size."""
    is_ood = np.zeros(n_neg + n_pos, dtype=int)
    is_ood[np.random.default_rng(n_neg).permutation(is_ood.size)[:n_pos]] = 1
    return roc_curve(ScoredDataset(scores=np.arange(is_ood.size, dtype=float), is_ood=is_ood))


class TestRocExport:
    """write_roc_csv gathers the rows from rate cells rendered once per class size."""

    # class sizes by the words of their longest cell: 1 (3 bytes; 4 bytes, the whole
    # word, at n = 4), 2 (6), 3 (9), 4 (15), 5 (18 and 19) and 6 (22 bytes, 1 / 9999)
    @pytest.mark.parametrize("n, words", [(1, 1), (2, 1), (10, 1), (4, 1), (10000, 2),
                                          (128, 3), (8192, 4), (3, 5), (7, 5), (9999, 6)])
    def test_bytes_equal_csv_writer_at_each_cell_width(self, tmp_path, n, words):
        cells = metrics._rate_cells(n)
        assert cells.dtype == np.uint32 and cells.shape == (n + 1, words)
        assert not cells.flags.writeable
        longest = max(len(repr(k / n)) for k in range(n + 1))
        assert 4 * (words - 1) < longest <= 4 * words
        for n_neg, n_pos in ((n, 3), (7, n)):
            curve = _every_count_curve(n_neg, n_pos)
            write_roc_csv(curve, tmp_path / f"roc_{n_neg}_{n_pos}.csv")
            assert_same_bytes((tmp_path / f"roc_{n_neg}_{n_pos}.csv").read_bytes(),
                              _roc_reference_bytes(curve))

    def test_cells_are_the_repr_of_each_rate(self):
        cells = metrics._rate_cells(9999)
        texts = [row.tobytes().rstrip(b"\0").decode() for row in cells]
        assert texts == [repr(k / 9999) for k in range(10000)]
        assert texts[1] == "0.00010001000100010001"

    def test_single_threshold(self, tmp_path):
        curve = roc_curve(ScoredDataset(scores=[0.5] * 5, is_ood=[0, 1, 1, 0, 0]))
        write_roc_csv(curve, tmp_path / "roc.csv")
        assert_same_bytes((tmp_path / "roc.csv").read_bytes(), b"fpr,tpr\r\n0.0,0.0\r\n1.0,1.0\r\n")

    def test_one_row_past_the_block(self, tmp_path):
        block = tables.CHUNK_CELLS // 2  # two cells a row
        curve = _every_count_curve(block // 2, block // 2)  # block thresholds
        write_roc_csv(curve, tmp_path / "roc.csv")
        text = (tmp_path / "roc.csv").read_bytes()
        assert text.count(b"\r\n") == 1 + block + 1  # the header, (0, 0), the thresholds
        assert_same_bytes(text, _roc_reference_bytes(curve))


def _words(n, dtype=np.uint8):
    """An array of n unsigned words drawn as one block of bytes: a list or
    hypothesis.extra.numpy.arrays draws each entry alone, and at 300 entries
    that draw took most of a test's time."""
    width = np.dtype(dtype).itemsize
    return st.binary(min_size=n * width, max_size=n * width).map(
        lambda b: np.frombuffer(b, dtype))


def _picks(n, values):
    """An array of n entries of ``values``, each picked by one drawn byte."""
    table = np.array(values)
    return _words(n).map(lambda w: table[w % table.size])


_FLOAT_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
_MILLION_BITS = np.float64(1e6).view(np.uint64)


def _distinct_floats(n):
    """n pairwise-unequal floats in [-1e6, 1e6]: a drawn sign bit and a drawn
    magnitude bit pattern at most 1e6's, so any float of the range, both zeros
    and subnormals included, can be drawn; 0.0 == -0.0 counts as a repeat."""
    def floats(w):
        magnitude = (w & _FLOAT_MAGNITUDE) % (_MILLION_BITS + np.uint64(1))
        return (magnitude | (w & ~_FLOAT_MAGNITUDE)).view(np.float64)
    return _words(n, np.uint64).map(floats).filter(lambda x: np.unique(x).size == n)


@st.composite
def tied_datasets(draw):
    """Scores from a few small integers and both zeros, so that nearly every
    score is tied; up to 300 rows, where an unstable sort reorders ties."""
    n = draw(st.integers(2, 300))
    is_ood = draw(_words(n).map(lambda w: w & 1).filter(lambda v: 0 < v.sum() < n))
    scores = draw(_picks(n, [-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]))
    return ScoredDataset(scores=scores, is_ood=is_ood)


class TestTieOrder:
    """roc_curve reads TP/FP at the end of each run of equal scores, so the
    order within a tie cannot change them; average precision ranks every row,
    so it keeps the row order of ties."""

    @given(ds=tied_datasets(), positive_is_ood=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_roc_counts_equal_stable_sort(self, ds, positive_is_ood):
        curve = roc_curve(_positive(ds, positive_is_ood))
        tp, fp, n_pos, n_neg = _reference_sweep(ds, positive_is_ood)
        assert np.array_equal(curve.tp, tp) and np.array_equal(curve.fp, fp)
        assert (curve.n_pos, curve.n_neg) == (n_pos, n_neg)

    def test_roc_counts_equal_stable_sort_large(self):
        rng = np.random.default_rng(7)
        scores = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=5000)
        ds = ScoredDataset(scores=scores, is_ood=rng.integers(0, 2, size=5000))
        for positive_is_ood in (True, False):
            curve = roc_curve(_positive(ds, positive_is_ood))
            tp, fp, _, _ = _reference_sweep(ds, positive_is_ood)
            assert np.array_equal(curve.tp, tp) and np.array_equal(curve.fp, fp)

    def test_average_precision_ranks_ties_in_row_order(self):
        assert average_precision(np.array([0.5, 0.5]), np.array([1, 0])) == 1.0
        assert average_precision(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5

    @given(column=st.integers(1, 300).flatmap(lambda n: st.tuples(
        st.one_of(
            # tie-free: 0.0 and -0.0 count as one value, so at most one of them
            _distinct_floats(n),
            _picks(n, [-1.0, -0.0, 0.0, 0.5, 1.0, float("nan")]),
        ),
        _words(n).map(lambda w: w & 1),
        st.integers(0, n - 1),
    )))
    @settings(max_examples=300, deadline=None)
    def test_average_precision_equals_stable_sort_form(self, column):
        values, hits, positive = column
        scores, labels = np.array(values), np.array(hits)
        labels[positive] = 1
        order = np.argsort(-scores, kind="stable")
        ranked = labels[order]
        ranks = np.arange(1, ranked.size + 1)[ranked == 1]
        want = float(np.mean(np.cumsum(ranked)[ranked == 1] / ranks))
        assert average_precision(scores, labels) == want

    def test_average_precision_equals_stable_ranking(self):
        rng = np.random.default_rng(11)
        scores = rng.choice([0.25, 0.5, 0.75], size=300)
        labels = rng.integers(0, 2, size=300)
        # Python's sort is stable: ties stay in row order
        hits = labels[sorted(range(300), key=lambda i: -scores[i])]
        ranks = np.flatnonzero(hits) + 1
        want = float(np.mean(np.arange(1, ranks.size + 1) / ranks))
        assert average_precision(scores, labels) == want
