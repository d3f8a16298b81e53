import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from betaood import datagen, tables
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


def _sidecar(path):
    return path.with_name(path.name + ".npy")


def _write_parsed(data, path) -> None:
    """write_jsonl without the sidecar, so that read_jsonl takes the parse path."""
    write_jsonl(data, path)
    _sidecar(path).unlink(missing_ok=True)


class TestJsonlRoundTrip:
    def test_empty_dataset_writes_header_comment(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl(_labeled(0), path)
        assert not _sidecar(path).exists()  # read_jsonl parses it
        text = path.read_text()
        assert text.startswith("#")
        assert len(read_jsonl(path)) == 0

    def test_round_trip_equality(self, tmp_path):
        data = _labeled(1000)  # several write and read chunks
        path = tmp_path / "ds.jsonl"
        _write_parsed(data, path)
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
        _write_parsed(Dataset(X=np.array([[1.0, 2.0]]), Y=np.zeros((1, 0), int), split="ood"), path)
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
            _write_parsed(data, path)
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

    @pytest.mark.parametrize("labels", [
        np.array([[True, False]]), np.array([[1.0, 0.7]]), np.array([[2, 0]]),
    ], ids=["bool", "float_0_7", "int_2"])
    def test_writer_rejects_labels_its_reader_rejects(self, tmp_path, labels):
        path = tmp_path / "ds.jsonl"
        data = Dataset(X=np.ones((1, 3)), Y=labels, split="train")
        with pytest.raises(DataError, match="labels must be the numbers 0 or 1"):
            write_jsonl(data, path)
        assert not path.exists()

    @pytest.mark.parametrize("split", [None, 3], ids=["none", "int"])
    def test_writer_rejects_split_its_reader_rejects(self, tmp_path, split):
        path = tmp_path / "ds.jsonl"
        data = Dataset(X=np.ones((2, 3)), Y=np.ones((2, 1), int), split=split)
        with pytest.raises(DataError) as info:
            write_jsonl(data, path)
        assert str(info.value) == f"cannot write {path}: split must be a string, got {split!r}"
        assert not path.exists() and not _sidecar(path).exists()

    def test_writer_keeps_empty_dataset_without_split(self, tmp_path):
        # no row carries the split, and the reader gives split None for no rows
        path = tmp_path / "ds.jsonl"
        write_jsonl(Dataset(X=np.empty((0, 3)), Y=np.empty((0, 1), int), split=None), path)
        assert read_jsonl(path).split is None

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
    ), breaks=st.lists(st.booleans(), min_size=5, max_size=5))
    def test_reader_matches_line_by_line_reference(self, tmp_path_factory, rows, breaks):
        """read_jsonl returns the per-line reader's arrays, or raises its error."""
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
            with pytest.raises(DataError) as got:
                read_jsonl(path)
            assert str(got.value) == str(exc)
            return
        got = read_jsonl(path)
        assert got.X.tobytes() == want.X.tobytes() and got.X.shape == want.X.shape
        assert np.array_equal(got.Y, want.Y) and got.Y.dtype == want.Y.dtype
        assert got.split == want.split


@st.composite
def writer_inputs(draw):
    """datasets() with labels as int, bool or float (0.7 and 1.0) and a split
    that may be None or end in a NUL; some cross CHUNK_ROWS at 257 rows."""
    data = draw(datasets())
    X, Y = data.X, data.Y
    if len(data) and draw(st.booleans()):
        rows = np.arange(257) % len(data)
        X, Y = X[rows], Y[rows]
    kind = draw(st.sampled_from(["int", "bool", "float", "float_0_7"]))
    if kind == "bool":
        Y = Y.astype(bool)
    elif kind == "float":
        Y = Y.astype(float)
    elif kind == "float_0_7":
        Y = np.where(Y == 1, 1.0, 0.7)
    split = draw(st.sampled_from([data.split, data.split, None, "x\x00"]))
    return Dataset(X=X, Y=Y, split=split)


def _read_outcome(path):
    """What read_jsonl gives: the arrays' bytes, shapes, dtypes and split, or its error."""
    try:
        got = read_jsonl(path)
    except DataError as exc:
        return str(exc)
    return (got.X.tobytes(), got.X.shape, got.X.dtype, got.Y.tolist(), got.Y.shape,
            got.Y.dtype, got.split)


class TestSidecarMatchesParse:
    @settings(max_examples=300, deadline=None)
    @given(data=writer_inputs())
    @example(data=Dataset(X=np.array([[-0.0, 5e-324, 1.7976931348623157e308]]),
                          Y=np.array([[1, 0]]), split="train"))
    @example(data=Dataset(X=np.zeros((2, 0)), Y=np.zeros((2, 0), int), split="ood"))
    @example(data=_labeled(257))
    def test_cached_read_equals_parse(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("s") / "ds.jsonl"
        if data.Y.dtype == bool or not np.all((data.Y == 0) | (data.Y == 1)):
            # labels the reader would reject: the writer writes neither file
            with pytest.raises(DataError, match=f"cannot write {path}: labels"):
                write_jsonl(data, path)
            assert not path.exists() and not _sidecar(path).exists()
            return
        if len(data) and data.split is None:
            # rows with "split": null, which the reader rejects
            with pytest.raises(DataError, match=f"cannot write {path}: split must be a "
                                                f"string, got None$"):
                write_jsonl(data, path)
            assert not path.exists() and not _sidecar(path).exists()
            return
        write_jsonl(data, path)
        cached = _sidecar(path).exists()
        # a sidecar is written exactly for data that the parse returns unchanged
        assert cached == bool(len(data) and data.Y.dtype.kind == "i"
                              and data.split in ("train", "val", "test", "ood", 'é"x'))
        if cached:  # and it stands in for the parse
            with mock.patch.object(datagen, "_parse_jsonl", side_effect=AssertionError):
                got = _read_outcome(path)
            assert got[0] == data.X.tobytes() and got[6] == data.split
        else:
            got = _read_outcome(path)
        _sidecar(path).unlink(missing_ok=True)
        assert got == _read_outcome(path)

    def test_unfit_data_removes_old_sidecar(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        write_jsonl(_labeled(3), path)
        assert _sidecar(path).exists()
        write_jsonl(Dataset(X=np.ones((3, 4)), Y=np.ones((3, 3)), split="train"), path)
        assert not _sidecar(path).exists()

    def test_writer_ignores_directory_at_sidecar_path(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        _sidecar(path).mkdir()
        write_jsonl(_labeled(3), path)
        assert _sidecar(path).is_dir()
        np.testing.assert_array_equal(read_jsonl(path).X, _labeled(3).X)

    def test_damaged_sidecar_reads_as_parse(self, tmp_path):
        """Every truncation and every flipped byte of a sidecar: numpy's header
        parser raises more than ValueError for some (tokenize's TokenError)."""
        data = _labeled(3)
        write_jsonl(data, tmp_path / "ds.jsonl")
        text, raw = (tmp_path / "ds.jsonl").read_bytes(), (tmp_path / "ds.jsonl.npy").read_bytes()
        damaged = [raw[:n] for n in range(len(raw))]
        damaged += [raw[:i] + bytes([raw[i] ^ 0x80]) + raw[i + 1:] for i in range(len(raw))]
        for k, sidecar in enumerate(damaged):
            path = tmp_path / f"d{k}.jsonl"  # new files: rewriting one is slow on some filesystems
            path.write_bytes(text)
            _sidecar(path).write_bytes(sidecar)
            got = read_jsonl(path)
            assert got.X.tobytes() == data.X.tobytes() and np.array_equal(got.Y, data.Y), k


def _reference_read_jsonl(path) -> Dataset:
    """The per-line reader that read_jsonl replaced, with its label and bool rules."""
    features_rows, label_rows, linenos = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                doc = json.loads(line)
                # read without a dtype, so that numeric strings stay strings
                features = np.asarray(doc["features"])
                labels = doc["labels"]
                split = doc["split"]
                y = np.zeros(0) if labels is None else np.asarray(labels)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: malformed dataset line: {exc}") from exc
            if not (features.ndim == y.ndim == 1
                    and all(np.issubdtype(a.dtype, np.number) or a.dtype == bool
                            for a in (features, y))):
                raise DataError(f"{path}:{lineno}: features and labels must be lists of numbers")
            if not all(v in (0, 1) for v in y.tolist()):
                raise DataError(f"{path}:{lineno}: labels must be 0 or 1, got {labels!r}")
            if not isinstance(split, str):
                raise DataError(f"{path}:{lineno}: split must be a string, got {split!r}")
            features, y = features.astype(float), y.astype(int)
            if linenos:
                if (features.size, y.size) != (features_rows[0].size, label_rows[0].size):
                    raise DataError(
                        f"{path}:{lineno}: {features.size} features and {y.size} labels, "
                        f"but line {linenos[0]} has {features_rows[0].size} and "
                        f"{label_rows[0].size}"
                    )
            else:
                first_split = split
            if any(type(v) is bool for v in [*doc["features"], *(labels or [])]):
                raise DataError(f"{path}:{lineno}: features and labels must be numbers, "
                                "not true or false")
            features_rows.append(features)
            label_rows.append(y)
            linenos.append(lineno)
    if not linenos:
        return Dataset(X=np.empty((0, 0)), Y=np.empty((0, 0), dtype=int), split=None)
    finite = np.isfinite(np.array(features_rows)).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{linenos[int(np.argmin(finite))]}: features must be finite")
    return Dataset(X=np.array(features_rows), Y=np.array(label_rows), split=first_split)
