import numpy as np
import pytest

from betaood.datagen import (
    LabeledSample,
    OodSpec,
    SyntheticSpec,
    default_spec,
    generate_ind,
    generate_ood,
    read_jsonl,
    write_jsonl,
)
from betaood.errors import ConfigError, DataError


def small_spec(seed=0, sigma=1.0, per_split=None):
    return default_spec(
        feature_dim=4,
        label_count=3,
        samples_per_split=per_split or {"train": 120, "val": 60, "test": 60},
        cluster_spread=sigma,
        mean_scale=4.0,
        seed=seed,
    )


class TestSpecValidation:
    def test_coincident_means_rejected(self):
        means = np.zeros((2, 3))
        with pytest.raises(ConfigError, match="coincide"):
            SyntheticSpec(
                feature_dim=3,
                label_count=2,
                samples_per_split={"train": 10, "val": 10, "test": 10},
                label_cluster_means=means,
                cluster_spread=1.0,
                co_occurrence=[((0,), 1.0), ((1,), 1.0)],
                seed=0,
            )

    def test_uncovered_label_rejected(self):
        means = np.eye(2, 3)
        with pytest.raises(ConfigError, match="no co_occurrence"):
            SyntheticSpec(
                feature_dim=3,
                label_count=2,
                samples_per_split={"train": 10, "val": 10, "test": 10},
                label_cluster_means=means,
                cluster_spread=1.0,
                co_occurrence=[((0,), 1.0)],
                seed=0,
            )

    def test_bad_ood_mode_rejected(self):
        with pytest.raises(ConfigError):
            OodSpec(mode="rotated", shift_distance=1.0, samples=10, seed=0)


class TestGenerateInd:
    def test_determinism(self):
        s1 = generate_ind(small_spec(seed=5))
        s2 = generate_ind(small_spec(seed=5))
        assert len(s1) == len(s2)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.y, b.y)
            assert a.split == b.split

    def test_at_least_one_positive_label(self):
        for s in generate_ind(small_spec(seed=3)):
            assert s.y.sum() >= 1

    def test_every_label_present_in_every_split(self):
        samples = generate_ind(small_spec(seed=7))
        for split in ("train", "val", "test"):
            ys = np.array([s.y for s in samples if s.split == split])
            assert np.all(ys.sum(axis=0) > 0)

    def test_split_sizes(self):
        samples = generate_ind(small_spec())
        counts = {split: 0 for split in ("train", "val", "test")}
        for s in samples:
            counts[s.split] += 1
        assert counts == {"train": 120, "val": 60, "test": 60}

    def test_noise_free_limit_hits_subset_means(self):
        spec = small_spec(sigma=1e-9)
        subset_sums = {
            tuple(np.sort(list(subset))): spec.label_cluster_means[list(subset)].sum(axis=0)
            for subset, _ in spec.co_occurrence
        }
        for s in generate_ind(spec):
            subset = tuple(np.sort(np.nonzero(s.y)[0]))
            np.testing.assert_allclose(s.features, subset_sums[subset], atol=1e-7)


class TestGenerateOod:
    @pytest.mark.parametrize("mode", ["shifted", "novel_cluster"])
    def test_determinism(self, mode):
        spec = small_spec(seed=2)
        ood_spec = OodSpec(mode=mode, shift_distance=5.0, samples=50, seed=2)
        o1 = generate_ood(spec, ood_spec)
        o2 = generate_ood(spec, ood_spec)
        for a, b in zip(o1, o2):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mode", ["shifted", "novel_cluster"])
    def test_large_shift_far_from_ind_means(self, mode):
        spec = small_spec(seed=4)
        ood_spec = OodSpec(mode=mode, shift_distance=100.0, samples=100, seed=4)
        samples = generate_ood(spec, ood_spec)
        for f in samples:
            dists = np.linalg.norm(spec.label_cluster_means - f, axis=1)
            assert dists.min() > 50.0 * spec.cluster_spread


class TestJsonlRoundTrip:
    def test_empty_dataset_writes_header_comment(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl([], path)
        text = path.read_text()
        assert text.startswith("#")
        assert read_jsonl(path) == []

    def test_round_trip_equality(self, tmp_path):
        rng = np.random.default_rng(31)
        samples = [
            LabeledSample(
                features=rng.normal(size=4),
                y=rng.integers(0, 2, 3),
                split="train",
            )
            for _ in range(1000)
        ]
        path = tmp_path / "ds.jsonl"
        write_jsonl(samples, path)
        restored = read_jsonl(path)
        assert len(restored) == 1000
        for a, b in zip(samples, restored):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.y, b.y)
            assert a.split == b.split

    def test_ood_entries_have_null_labels(self, tmp_path):
        path = tmp_path / "ood.jsonl"
        write_jsonl([np.array([1.0, 2.0])], path)
        assert '"labels":null' in path.read_text()
        restored = read_jsonl(path)
        assert restored[0].y.size == 0
        assert restored[0].split == "ood"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('# header\n{"features": [1.0], "labels": [1], "split": "train"}\nnot json\n')
        with pytest.raises(DataError, match=":3"):
            read_jsonl(path)

    @pytest.mark.parametrize("line", [
        '{"features": [[1.0]], "labels": [1], "split": "train"}',
        '{"features": [1.0], "labels": ["x"], "split": "train"}',
        '{"features": [1.0, 2.0], "labels": [1], "split": "train"}',
        '{"features": [NaN], "labels": [1], "split": "train"}',
        '{"features": [-Infinity], "labels": [1], "split": "train"}',
    ])
    def test_bad_row_reports_line_number(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '# header\n{"features": [1.0], "labels": [1], "split": "train"}\n' + line + "\n"
        )
        with pytest.raises(DataError, match=f"{path}:3:"):
            read_jsonl(path)
