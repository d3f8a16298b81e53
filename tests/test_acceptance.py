"""Release acceptance gate.

Each test enforces one release criterion at its stated tolerance, covering
the numeric kernels against independent oracles and the full CLI pipeline
for quality, determinism, and trend behaviour.  Run with ``pytest -v
tests/test_acceptance.py`` to read the gate as a checklist.
"""

import csv
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from test_metrics import (
    brute_force_fpr_oracle,
    brute_force_pr_oracle,
    pairwise_auroc_oracle,
    random_dataset,
)

from betaood.cli import main
from betaood.evidence import (
    EvidencePair,
    Logits,
    evidence_to_opinion,
    logits_to_evidence,
)
from betaood.loss import beta_loss
from betaood.metrics import ScoredDataset, aupr, detection_metrics, fpr_at_tpr, roc_curve
from betaood.model import ArchConfig, _arrays, _batch_gradients, init_params, param_shapes
from betaood.scores import ood_score_max, ood_score_sum
from betaood.special import digamma_array, trigamma_array
from oracles import quadrature_expected_bce


def test_loss_matches_quadrature_oracle():
    """Closed-form expected-BCE loss vs adaptive quadrature, <= 1e-6 on a grid."""
    start = time.monotonic()
    grid = np.linspace(1.01, 50.0, 20)
    worst = 0.0
    for a in grid:
        for b in grid:
            for y in (0, 1):
                pair = EvidencePair(alpha=np.array([float(a)]),
                                    beta=np.array([float(b)]))
                closed = beta_loss(pair, np.array([y]))
                oracle = quadrature_expected_bce(y, float(a), float(b))
                worst = max(worst, abs(closed - oracle))
    elapsed = time.monotonic() - start
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_network_gradients_match_finite_differences():
    """Analytic backprop vs central differences on 100 random small networks."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    h = 1e-5
    for _ in range(100):
        arch = ArchConfig(
            input_dim=int(rng.integers(1, 5)),
            hidden=(int(rng.integers(2, 5)),),
            label_count=int(rng.integers(1, 5)),
        )
        params = init_params(arch, int(rng.integers(0, 10_000)))
        x = rng.normal(size=arch.input_dim)
        y = rng.integers(0, 2, arch.label_count)
        xb, yb = x[None, :], np.array([y], dtype=float)
        grads = _batch_gradients(params, xb, yb)[1]
        shapes = param_shapes(arch)
        flat_grads = np.concatenate([g.ravel() for g in _arrays(shapes, vars(grads))])
        tensors = _arrays(shapes, vars(params))
        fd = []
        for t in tensors:
            flat = t.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = np.mean(_batch_gradients(params, xb, yb)[0])
                flat[j] = orig - h
                dn = np.mean(_batch_gradients(params, xb, yb)[0])
                flat[j] = orig
                fd.append((up - dn) / (2 * h))
        fd = np.array(fd)
        mask = np.abs(fd) > 1e-8
        rel = np.abs(flat_grads[mask] - fd[mask]) / np.abs(fd[mask])
        assert rel.max() <= 1e-4
    assert time.monotonic() - start < 60.0


def test_special_function_identities():
    """Recurrences to 1e-10 and digamma/trigamma cross-check to 1e-5."""
    rng = np.random.default_rng(31337)
    xs = rng.uniform(0.01, 100.0, 1000)
    np.testing.assert_allclose(
        digamma_array(xs + 1.0) - digamma_array(xs), 1.0 / xs, rtol=0, atol=1e-10
    )
    np.testing.assert_allclose(
        trigamma_array(xs + 1.0) - trigamma_array(xs), -1.0 / (xs * xs), rtol=0, atol=1e-10
    )
    h = 1e-4  # below x=0.5 the central-difference truncation error passes 1e-5
    xs = rng.uniform(0.5, 100.0, 1000)
    fd = (digamma_array(xs + h) - digamma_array(xs - h)) / (2 * h)
    np.testing.assert_allclose(fd, trigamma_array(xs), rtol=0, atol=1e-5)


def test_opinion_simplex_closure():
    """b + d + u = 1 and p = b + a*u within 1e-12 for 10,000 random logits."""
    rng = np.random.default_rng(5150)
    for _ in range(10_000):
        n = int(rng.integers(1, 8))
        logits = Logits(f_pos=rng.uniform(-30.0, 30.0, n),
                        f_neg=rng.uniform(-30.0, 30.0, n))
        ev = logits_to_evidence(logits)
        op = evidence_to_opinion(ev)
        p = ev.alpha / (ev.alpha + ev.beta)
        np.testing.assert_allclose(op.belief + op.disbelief + op.uncertainty,
                                   1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.belief + op.base_rate * op.uncertainty,
                                   p, rtol=0, atol=1e-12)


def test_detection_metrics_match_oracles():
    """auroc vs the rational pairwise estimator; aupr/fpr vs brute-force sweeps."""
    rng = np.random.default_rng(8086)
    for k in range(200):
        scores, is_ood = random_dataset(rng, n_max=200, tie_prone=(k % 2 == 0))
        ds = ScoredDataset(scores=scores, is_ood=is_ood)
        value = detection_metrics(roc_curve(ds)).auroc
        oracle = pairwise_auroc_oracle(scores.tolist(), is_ood.tolist())
        assert value == pytest.approx(float(oracle), abs=1e-12)
    for k in range(100):
        scores, is_ood = random_dataset(rng, n_max=50, tie_prone=(k % 2 == 0))
        ds = ScoredDataset(scores=scores, is_ood=is_ood)
        assert aupr(ds) == pytest.approx(
            float(brute_force_pr_oracle(scores.tolist(), is_ood.tolist())), abs=1e-12
        )
        assert fpr_at_tpr(ds, 0.95) == pytest.approx(
            float(brute_force_fpr_oracle(
                scores.tolist(), is_ood.tolist(), Fraction(95, 100))),
            abs=1e-12,
        )


def test_score_worked_examples_and_monotonicity():
    """Hand-computed score values to 1e-12; exact mixing degeneracy; monotonicity."""
    ev = EvidencePair(alpha=np.array([4.0, 2.0, 10.0]), beta=np.array([1.0, 2.0, 4.0]))
    assert ood_score_max(ev, "positive") == pytest.approx(0.1, abs=1e-12)
    assert ood_score_max(ev, "negative") == pytest.approx(0.0, abs=1e-12)
    assert ood_score_max(ev, "combined", 0.5) == pytest.approx(0.05, abs=1e-12)
    assert ood_score_sum(ev, "positive") == pytest.approx(0.1875, abs=1e-12)
    assert ood_score_sum(ev, "negative") == pytest.approx(1.0 - 1.75 / 3.0, abs=1e-12)
    assert ood_score_sum(ev, "combined", 0.5) == pytest.approx(
        0.5 * 0.1875 + 0.5 * (1.0 - 1.75 / 3.0), abs=1e-12
    )
    # mixing-weight degeneracy is exact at the endpoints
    for fn in (ood_score_max, ood_score_sum):
        assert fn(ev, "combined", 1.0) == fn(ev, "positive")
        assert fn(ev, "combined", 0.0) == fn(ev, "negative")
    # more positive evidence can only lower positive scores; more negative
    # evidence can only raise negative scores
    rng = np.random.default_rng(404)
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        alpha = rng.uniform(1.01, 30.0, n)
        beta = rng.uniform(1.01, 30.0, n)
        bump = rng.uniform(0.01, 5.0, n)
        base = EvidencePair(alpha=alpha, beta=beta)
        more_pos = EvidencePair(alpha=alpha + bump, beta=beta)
        more_neg = EvidencePair(alpha=alpha, beta=beta + bump)
        assert ood_score_max(more_pos, "positive") <= ood_score_max(base, "positive")
        assert ood_score_sum(more_pos, "positive") <= ood_score_sum(base, "positive")
        assert ood_score_max(more_neg, "negative") >= ood_score_max(base, "negative")
        assert ood_score_sum(more_neg, "negative") >= ood_score_sum(base, "negative")


SEEDS = (0, 1, 2, 3, 4)


def _run_pipeline(base, seed):
    """gen-data -> train -> score -> eval with library defaults for one seed."""
    d = base / f"run{seed}"
    for argv in (
        ["gen-data", "--out", str(d), "--seed", str(seed)],
        ["train", "--data", str(d / "synth"), "--out", str(d), "--seed", str(seed)],
        ["score", "--checkpoint", str(d / "checkpoint.json"),
         "--data", str(d / "synth"), "--out", str(d)],
        ["eval", "--scores-csv", str(d / "scores.csv"),
         "--preds", str(d / "preds.csv"), "--out", str(d)],
    ):
        assert main(argv) == 0, f"command failed: {argv}"
    return d


def _read_metrics(run_dir):
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    table = {r[0]: {"fpr95": float(r[1]), "auroc": float(r[2]), "aupr": float(r[3])}
             for r in rows[1:]}
    with open(run_dir / "map.csv", newline="") as fh:
        map_value = float(list(csv.reader(fh))[1][1])
    return table, map_value


@pytest.fixture(scope="module")
def five_seed_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    start = time.monotonic()
    dirs = {seed: _run_pipeline(base, seed) for seed in SEEDS}
    elapsed = time.monotonic() - start
    return base, dirs, elapsed


def test_end_to_end_pipeline_quality(five_seed_runs):
    """Five seeded runs: mAP >= 0.9, combined-sum AUROC >= 0.9, FPR95 <= 0.5."""
    _, dirs, elapsed = five_seed_runs
    assert elapsed < 300.0
    for seed, d in dirs.items():
        table, map_value = _read_metrics(d)
        assert map_value >= 0.9, f"seed {seed}: mAP {map_value}"
        assert table["u_s_pn"]["auroc"] >= 0.9, f"seed {seed}: {table['u_s_pn']}"
        assert table["u_s_pn"]["fpr95"] <= 0.5, f"seed {seed}: {table['u_s_pn']}"


def test_sum_vs_max_aggregation_trend(five_seed_runs):
    """Trend check (logged, not gating): sum pooling should not trail max
    pooling, and the combined score should not trail its components by more
    than 0.02 in median AUROC."""
    _, dirs, _ = five_seed_runs
    med = {}
    for name in ("u_s_p", "u_s_n", "u_s_pn", "u_m_p"):
        med[name] = float(np.median([_read_metrics(d)[0][name]["auroc"]
                                     for d in dirs.values()]))
    line = (f"trend medians: u_s_p={med['u_s_p']:.4f} u_m_p={med['u_m_p']:.4f} "
            f"u_s_pn={med['u_s_pn']:.4f} u_s_n={med['u_s_n']:.4f}")
    ok = (
        med["u_s_p"] >= med["u_m_p"]
        and med["u_s_pn"] >= med["u_s_p"] - 0.02
        and med["u_s_pn"] >= med["u_s_n"] - 0.02
    )
    print(f"{line} -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        warnings.warn(f"aggregation trend violated; investigate: {line}")


def test_pipeline_determinism(five_seed_runs, tmp_path):
    """Repeating a seed reproduces dataset, checkpoint, score, and metric files byte-for-byte."""
    _, dirs, _ = five_seed_runs
    redo = _run_pipeline(tmp_path, 0)
    datasets = [f"synth.{split}.jsonl{suffix}"
                for split in ("train", "val", "test", "ood") for suffix in ("", ".npy")]
    for name in (*datasets, "checkpoint.json", "scores.csv", "preds.csv", "scores.csv.npy",
                 "preds.csv.npy", "metrics.csv", "map.csv", "roc_u_s_pn.csv"):
        assert (redo / name).read_bytes() == (dirs[0] / name).read_bytes(), name


def test_lambda_sweep_endpoints(five_seed_runs, tmp_path):
    """11-row mixing-weight sweep whose endpoints equal standalone evaluations."""
    _, dirs, _ = five_seed_runs
    sweep_out = tmp_path / "sweep"
    assert main([
        "sweep-lambda", "--scores-csv", str(dirs[0] / "scores.csv"),
        "--out", str(sweep_out),
    ]) == 0
    with open(sweep_out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 12
    sweep = {r[0]: r[1:] for r in rows[1:]}
    with open(dirs[0] / "metrics.csv", newline="") as fh:
        metrics = {r[0]: r[1:] for r in csv.reader(fh)}
    assert sweep["0.0"] == metrics["u_s_n"]
    assert sweep["1.0"] == metrics["u_s_p"]
