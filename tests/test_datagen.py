import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaood.datagen import (
    Dataset,
    OodSpec,
    SyntheticSpec,
    default_spec,
    generate_ind,
    generate_ood,
    read_jsonl,
    write_jsonl,
)
from betaood import tables
from betaood.datagen import _split_rng
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
        assert list(s1) == list(s2) == ["train", "val", "test"]
        for split in s1:
            np.testing.assert_array_equal(s1[split].X, s2[split].X)
            np.testing.assert_array_equal(s1[split].Y, s2[split].Y)
            assert s1[split].split == s2[split].split == split

    def test_at_least_one_positive_label(self):
        for ds in generate_ind(small_spec(seed=3)).values():
            assert np.all(ds.Y.sum(axis=1) >= 1)

    def test_every_label_present_in_every_split(self):
        for ds in generate_ind(small_spec(seed=7)).values():
            assert np.all(ds.Y.sum(axis=0) > 0)

    def test_split_sizes(self):
        counts = {split: len(ds) for split, ds in generate_ind(small_spec()).items()}
        assert counts == {"train": 120, "val": 60, "test": 60}

    def test_noise_free_limit_hits_subset_means(self):
        spec = small_spec(sigma=1e-9)
        subset_sums = {
            tuple(np.sort(list(subset))): spec.label_cluster_means[list(subset)].sum(axis=0)
            for subset, _ in spec.co_occurrence
        }
        for ds in generate_ind(spec).values():
            for x, y in zip(ds.X, ds.Y):
                subset = tuple(np.sort(np.nonzero(y)[0]))
                np.testing.assert_allclose(x, subset_sums[subset], atol=1e-7)


class TestGenerateOod:
    @pytest.mark.parametrize("mode", ["shifted", "novel_cluster"])
    def test_determinism(self, mode):
        spec = small_spec(seed=2)
        ood_spec = OodSpec(mode=mode, shift_distance=5.0, samples=50, seed=2)
        o1 = generate_ood(spec, ood_spec)
        o2 = generate_ood(spec, ood_spec)
        assert o1.shape == (50, 4)
        np.testing.assert_array_equal(o1, o2)

    @pytest.mark.parametrize("mode", ["shifted", "novel_cluster"])
    def test_large_shift_far_from_ind_means(self, mode):
        spec = small_spec(seed=4)
        ood_spec = OodSpec(mode=mode, shift_distance=100.0, samples=100, seed=4)
        for f in generate_ood(spec, ood_spec):
            dists = np.linalg.norm(spec.label_cluster_means - f, axis=1)
            assert dists.min() > 50.0 * spec.cluster_spread


# The per-sample generator loops the array generator replaced: one draw of
# subset choices, then one noise draw per sample.  The array code must draw
# the same numbers in the same order and give bit-equal rows.
def _reference_split(spec, split, tag):
    n = spec.samples_per_split[split]
    weights = np.array([w for _, w in spec.co_occurrence], dtype=float)
    weights /= weights.sum()
    for attempt in range(20):
        rng = _split_rng(spec.seed, tag, attempt)
        choices = rng.choice(len(spec.co_occurrence), size=n, p=weights)
        xs, ys = [], []
        for c in choices:
            subset = spec.co_occurrence[c][0]
            y = np.zeros(spec.label_count, dtype=int)
            y[list(subset)] = 1
            mean = spec.label_cluster_means[list(subset)].sum(axis=0)
            xs.append(mean + spec.cluster_spread * rng.normal(size=spec.feature_dim))
            ys.append(y)
        ys = np.array(ys)
        if np.all(ys.sum(axis=0) > 0):
            return np.array(xs), ys
    raise AssertionError("reference generator found no split with every label")


def _reference_ood(ind_spec, ood_spec):
    rng = _split_rng(ood_spec.seed, 0x00D)
    sigma = ind_spec.cluster_spread
    d = ind_spec.feature_dim
    if ood_spec.mode == "shifted":
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        offset = ood_spec.shift_distance * sigma * direction
        weights = np.array([w for _, w in ind_spec.co_occurrence], dtype=float)
        weights /= weights.sum()
        choices = rng.choice(len(ind_spec.co_occurrence), size=ood_spec.samples, p=weights)
        rows = []
        for c in choices:
            subset = ind_spec.co_occurrence[c][0]
            mean = ind_spec.label_cluster_means[list(subset)].sum(axis=0)
            rows.append(mean + offset + sigma * rng.normal(size=d))
        return np.array(rows)
    means_ind = ind_spec.label_cluster_means
    q, r = np.linalg.qr(means_ind.T)
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-9 * max(1.0, np.abs(r).max())))
    span_basis = q[:, :rank] if rank < d else None

    def direction():
        for _ in range(64):
            u = rng.normal(size=d)
            if span_basis is not None:
                u = u - span_basis @ (span_basis.T @ u)
            norm = np.linalg.norm(u)
            if norm > 1e-9:
                return u / norm
        raise AssertionError("no direction")

    n_clusters = max(2, ind_spec.label_count)
    radius = float(np.mean(np.linalg.norm(means_ind, axis=1)))
    novel_means = []
    while len(novel_means) < n_clusters:
        for _ in range(200):
            cand = radius * direction()
            if np.min(np.linalg.norm(means_ind - cand, axis=1)) >= ood_spec.shift_distance * sigma:
                novel_means.append(cand)
                break
        else:
            radius *= 1.3
    picks = rng.integers(0, n_clusters, size=ood_spec.samples)
    return np.array([novel_means[k] + sigma * rng.normal(size=d) for k in picks])


class TestArrayGeneratorMatchesPerSampleLoop:
    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("feature_dim,label_count", [(8, 5), (3, 6)])
    def test_ind_splits_bit_equal(self, seed, feature_dim, label_count):
        spec = default_spec(
            feature_dim=feature_dim,
            label_count=label_count,
            samples_per_split={"train": 300, "val": 40, "test": 12},
            seed=seed,
        )
        got = generate_ind(spec)
        for tag, split in enumerate(("train", "val", "test")):
            want_x, want_y = _reference_split(spec, split, tag)
            assert np.array_equal(got[split].X, want_x)
            assert np.array_equal(got[split].Y, want_y)
            assert got[split].Y.dtype == want_y.dtype

    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("mode", ["shifted", "novel_cluster"])
    @pytest.mark.parametrize("feature_dim,label_count", [(8, 5), (3, 6)])
    def test_ood_bit_equal(self, seed, mode, feature_dim, label_count):
        spec = default_spec(feature_dim=feature_dim, label_count=label_count, seed=seed)
        ood_spec = OodSpec(mode=mode, shift_distance=5.0, samples=200, seed=seed)
        assert np.array_equal(generate_ood(spec, ood_spec), _reference_ood(spec, ood_spec))


def _labeled(n, d=4, l=3, seed=31, split="train"):
    rng = np.random.default_rng(seed)
    return Dataset(X=rng.normal(size=(n, d)), Y=rng.integers(0, 2, (n, l)), split=split)


class TestJsonlRoundTrip:
    def test_empty_dataset_writes_header_comment(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl(_labeled(0), path)
        text = path.read_text()
        assert text.startswith("#")
        assert len(read_jsonl(path)) == 0

    def test_round_trip_equality(self, tmp_path):
        data = _labeled(1000)  # several write and read chunks
        path = tmp_path / "ds.jsonl"
        write_jsonl(data, path)
        restored = read_jsonl(path)
        assert len(restored) == 1000
        np.testing.assert_array_equal(data.X, restored.X)
        np.testing.assert_array_equal(data.Y, restored.Y)
        assert restored.split == data.split

    def test_concatenated_files_read_as_one(self, tmp_path):
        # e.g. `cat synth.train.jsonl synth.val.jsonl`: a header mid-file, rows of two splits
        train, val = _labeled(300), _labeled(5, split="val")
        write_jsonl(train, tmp_path / "a.jsonl")
        write_jsonl(val, tmp_path / "b.jsonl")
        path = tmp_path / "both.jsonl"
        path.write_text((tmp_path / "a.jsonl").read_text() + (tmp_path / "b.jsonl").read_text())
        restored = read_jsonl(path)
        np.testing.assert_array_equal(restored.X, np.vstack([train.X, val.X]))
        np.testing.assert_array_equal(restored.Y, np.vstack([train.Y, val.Y]))
        assert restored.split == "train"

    def test_ood_entries_have_null_labels(self, tmp_path):
        path = tmp_path / "ood.jsonl"
        write_jsonl(Dataset(X=np.array([[1.0, 2.0]]), Y=np.zeros((1, 0), int), split="ood"), path)
        assert '"labels":null' in path.read_text()
        restored = read_jsonl(path)
        assert restored.Y.shape == (1, 0)
        assert restored.split == "ood"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('# header\n{"features": [1.0], "labels": [1], "split": "train"}\nnot json\n')
        with pytest.raises(DataError, match=":3"):
            read_jsonl(path)

    def test_undecodable_bytes_name_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"features": [1.0], "labels": [1], "split": "tr\xffain"}\n')
        with pytest.raises(DataError, match=f"{path}: cannot decode"):
            read_jsonl(path)

    def test_directory_names_file(self, tmp_path):
        path = tmp_path / "dir.jsonl"
        path.mkdir()
        with pytest.raises(DataError, match=f"{path}: cannot read"):
            read_jsonl(path)

    def test_document_split_over_lines_is_malformed(self, tmp_path):
        # parsed in bulk these lines would read as three documents
        row = '{"features": [1.0], "labels": [1], "split": "train"}'
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "# header\n"
            '{"features": [1.0], "labels": [1], "split": "train", "x": [{"y": 1}\n'
            '{"z": 2}]}\n' + row + "," + row + "\n"
        )
        with pytest.raises(DataError, match=f"{path}:2: malformed"):
            read_jsonl(path)

    @pytest.mark.parametrize("line", [
        '{"features": [[1.0]], "labels": [1], "split": "train"}',
        '{"features": [1.0], "labels": ["x"], "split": "train"}',
        '{"features": [1.0, 2.0], "labels": [1], "split": "train"}',
        '{"features": [NaN], "labels": [1], "split": "train"}',
        '{"features": [-Infinity], "labels": [1], "split": "train"}',
        '{"features": [1.0], "labels": [2], "split": "train"}',
        '{"features": [1.0], "labels": [0.7], "split": "train"}',
        '{"features": [1e999999], "labels": [1], "split": "train"}',
        '{"features": [1.0], "labels": [100000000000000000000000], "split": "train"}',
    ])
    def test_bad_row_reports_line_number(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '# header\n{"features": [1.0], "labels": [1], "split": "train"}\n' + line + "\n"
        )
        with pytest.raises(DataError, match=f"{path}:3:"):
            read_jsonl(path)


finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]
)


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 4))
    d = draw(st.integers(0, 4))
    l = draw(st.integers(0, 3))
    X = np.array(draw(st.lists(finite_floats, min_size=n * d, max_size=n * d)), dtype=float)
    Y = np.array(draw(st.lists(st.integers(0, 1), min_size=n * l, max_size=n * l)), dtype=int)
    split = draw(st.sampled_from(["train", "val", "test", "ood", "é\"x"]))
    return Dataset(X=X.reshape(n, d), Y=Y.reshape(n, l), split=split)


def _reference_jsonl(data) -> str:
    """The per-row json.dumps writer that write_jsonl replaced."""
    lines = ["# betaood dataset v1\n"]
    for x, y in zip(data.X, data.Y):
        doc = {
            "features": list(x),
            "labels": [int(v) for v in y] if data.Y.shape[1] else None,
            "split": data.split,
        }
        lines.append(json.dumps(doc, separators=(",", ":")) + "\n")
    return "".join(lines)


class TestJsonlCodecMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(data=datasets(), chunk=st.sampled_from([1, 3, 256]))
    def test_writer_bytes_equal_json_dumps(self, tmp_path_factory, data, chunk):
        path = tmp_path_factory.mktemp("w") / "ds.jsonl"
        with mock.patch.object(tables, "CHUNK_ROWS", chunk):
            write_jsonl(data, path)
        assert path.read_text() == _reference_jsonl(data)
        if len(data):
            restored = read_jsonl(path)
            assert restored.X.tobytes() == data.X.tobytes()
            np.testing.assert_array_equal(restored.Y, data.Y)
            assert restored.split == data.split

    def test_writer_rejects_nonfinite_features(self, tmp_path):
        data = Dataset(X=np.array([[1.0, np.nan]]), Y=np.ones((1, 1), int), split="train")
        with pytest.raises(DataError, match="finite"):
            write_jsonl(data, tmp_path / "ds.jsonl")

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(
        st.fixed_dictionaries({
            "features": st.lists(
                st.sampled_from([0.5, -1.0, 1e308, "2", None, [1.0], True]), max_size=2
            ) | st.sampled_from([1.0, None]),
            "labels": st.none() | st.lists(
                st.sampled_from([0, 1, 2, 0.7, 1.0, "1", "1.0", True, [0], None]), max_size=2
            ),
            "split": st.sampled_from(["train", "test", 3]),
        }, optional={"extra": st.just([{"a": 1}])}) | st.sampled_from(["[]", "{", "x"]),
        min_size=1, max_size=5,
    ), breaks=st.lists(st.booleans(), min_size=5, max_size=5), chunk=st.sampled_from([1, 2, 256]))
    def test_reader_matches_line_by_line_reference(self, tmp_path_factory, rows, breaks, chunk):
        """read_jsonl returns the per-line reader's arrays, or raises its error,
        whichever rows share a converted chunk."""
        lines = [r if isinstance(r, str) else json.dumps(r) for r in rows]
        # some documents split over two lines
        lines = [
            line.replace(",", ",\n", 1) if broken else line
            for line, broken in zip(lines, breaks)
        ]
        path = tmp_path_factory.mktemp("r") / "ds.jsonl"
        path.write_text("# h\n" + "\n".join(lines) + "\n")
        try:
            want = _reference_read_jsonl(path)
        except DataError as exc:
            with mock.patch.object(tables, "CHUNK_ROWS", chunk), pytest.raises(DataError) as got:
                read_jsonl(path)
            assert str(got.value) == str(exc)
            return
        with mock.patch.object(tables, "CHUNK_ROWS", chunk):
            got = read_jsonl(path)
        assert got.X.tobytes() == want.X.tobytes() and got.X.shape == want.X.shape
        assert np.array_equal(got.Y, want.Y) and got.Y.dtype == want.Y.dtype
        assert got.split == want.split


def _reference_read_jsonl(path) -> Dataset:
    """The per-line reader that read_jsonl replaced, with its label rule."""
    features_rows, label_rows, linenos = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                doc = json.loads(line)
                features = np.asarray(doc["features"], dtype=float)
                labels = doc["labels"]
                split = doc["split"]
                y = np.zeros(0, dtype=int) if labels is None else np.asarray(labels, dtype=int)
                y_float = y if labels is None else np.asarray(labels, dtype=float)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: malformed dataset line: {exc}") from exc
            if features.ndim != 1 or y.ndim != 1:
                raise DataError(f"{path}:{lineno}: features and labels must be lists of numbers")
            if not (np.array_equal(y, y_float) and np.all((y == 0) | (y == 1))):
                raise DataError(f"{path}:{lineno}: labels must be 0 or 1, got {labels!r}")
            if linenos:
                if (features.size, y.size) != (features_rows[0].size, label_rows[0].size):
                    raise DataError(
                        f"{path}:{lineno}: {features.size} features and {y.size} labels, "
                        f"but line {linenos[0]} has {features_rows[0].size} and "
                        f"{label_rows[0].size}"
                    )
            else:
                first_split = split
            features_rows.append(features)
            label_rows.append(y)
            linenos.append(lineno)
    if not linenos:
        return Dataset(X=np.empty((0, 0)), Y=np.empty((0, 0), dtype=int), split=None)
    finite = np.isfinite(np.array(features_rows)).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{linenos[int(np.argmin(finite))]}: features must be finite")
    return Dataset(X=np.array(features_rows), Y=np.array(label_rows), split=first_split)
