import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from example_files import example_dir
from oracles import assert_same_bytes

from betaood.datagen import (
    Dataset,
    OodSpec,
    SyntheticSpec,
    default_spec,
    generate_ind,
    generate_ood,
    generate_split,
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_coincident_means_reported_as_the_pairwise_loop_does(self, data):
        labels = data.draw(st.integers(1, 12), label="labels")
        dim = data.draw(st.integers(0, 3), label="dim")
        # few values, so that rows meet by chance too; -0.0 and NaN among them
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, np.nan])
        means = np.array(data.draw(st.lists(
            st.lists(values, min_size=dim, max_size=dim), min_size=labels, max_size=labels,
        ), label="means"), dtype=float).reshape(labels, dim)
        for dst, src in data.draw(st.lists(st.tuples(
            st.integers(0, labels - 1), st.integers(0, labels - 1)), max_size=3), label="copies"):
            means[dst] = means[src]
        want = None
        for i in range(labels):  # the check as a loop over every label pair
            for j in range(i + 1, labels):
                if want is None and np.array_equal(means[i], means[j]):
                    want = f"cluster means {i} and {j} coincide"
        try:
            SyntheticSpec(
                feature_dim=dim,
                label_count=labels,
                samples_per_split={"train": 10, "val": 10, "test": 10},
                label_cluster_means=means,
                cluster_spread=1.0,
                co_occurrence=[((l,), 1.0) for l in range(labels)],
                seed=0,
            )
        except ConfigError as exc:
            assert str(exc) == want
        else:
            assert want is None

    @pytest.mark.parametrize("change, message", [
        ({"label_cluster_means": np.eye(3)}, "cluster means must have shape (2, 3), got (3, 3)"),
        ({"cluster_spread": 0.0}, "cluster_spread must be > 0"),
        ({"samples_per_split": {"train": 10, "test": 10}},
         "samples_per_split must cover ('train', 'val', 'test')"),
        ({"samples_per_split": {"train": 10, "val": 0, "test": 10}},
         "every split needs at least one sample"),
        ({"co_occurrence": []}, "co_occurrence must list at least one label subset"),
        ({"co_occurrence": [((0, 1), 1.0), ((), 1.0)]}, "empty label subset in co_occurrence"),
        ({"co_occurrence": [((0,), 1.0), ((1,), 0.0)]}, "co_occurrence weights must be positive"),
        ({"co_occurrence": [((0,), 1.0), ((1, 2), 1.0)]},
         "label index out of range in subset (1, 2)"),
    ], ids=["means_shape", "spread", "split_missing", "split_empty", "no_subsets",
            "empty_subset", "zero_weight", "label_out_of_range"])
    def test_bad_field_message(self, change, message):
        fields = dict(feature_dim=3, label_count=2,
                      samples_per_split={"train": 10, "val": 10, "test": 10},
                      label_cluster_means=np.eye(2, 3), cluster_spread=1.0,
                      co_occurrence=[((0,), 1.0), ((1,), 1.0)], seed=0)
        with pytest.raises(ConfigError) as exc:
            SyntheticSpec(**{**fields, **change})
        assert str(exc.value) == message

    @pytest.mark.parametrize("shift, samples, message", [
        (0.0, 10, "shift_distance must be > 0"),
        (1.0, 0, "OOD sample count must be >= 1"),
    ], ids=["shift", "samples"])
    def test_bad_ood_field_message(self, shift, samples, message):
        with pytest.raises(ConfigError) as exc:
            OodSpec("shifted", shift, samples, 0)
        assert str(exc.value) == message

    def test_many_labels_checked_without_a_pairwise_loop(self):
        # a loop over label pairs takes minutes at 20000 labels
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )}
        code = ("from betaood.datagen import default_spec; "
                "print(default_spec(8, 20000, {'train': 1, 'val': 1, 'test': 1}).label_count)")
        done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "20000\n", "")

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

    def test_at_least_one_positive_label(self):
        for ds in generate_ind(small_spec(seed=3)).values():
            assert np.all(ds.Y.sum(axis=1) >= 1)

    def test_every_label_present_in_every_split(self):
        for ds in generate_ind(small_spec(seed=7)).values():
            assert np.all(ds.Y.sum(axis=0) > 0)

    def test_split_sizes(self):
        counts = {split: len(ds) for split, ds in generate_ind(small_spec()).items()}
        assert counts == {"train": 120, "val": 60, "test": 60}

    def test_each_split_drawn_alone_equals_generate_ind(self):
        # gen-data draws one split at a time; in reverse order too, no split's draw
        # depends on another's
        spec = small_spec(seed=4)
        together = generate_ind(spec)
        for split in ("test", "val", "train"):
            alone = generate_split(spec, split)
            assert alone.X.tobytes() == together[split].X.tobytes()
            np.testing.assert_array_equal(alone.Y, together[split].Y)

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

    def test_novel_clusters_keep_their_distance_at_huge_scale(self):
        # squares of these features overflow: an unscaled norm reads inf and
        # accepts radius 1e300, where the means are 1.41e300 from the IND means
        spec = default_spec(mean_scale=1e300)
        X = generate_ood(spec, OodSpec("novel_cluster", shift_distance=2e300, samples=20, seed=0))
        assert np.isfinite(X).all()
        scaled = (X[:, None, :] - spec.label_cluster_means) / 1e300
        assert np.linalg.norm(scaled, axis=2).min() >= 2.0

    def test_novel_clusters_skip_radii_no_draw_can_pass(self):
        # about 2700 radii of x1.3 lie below the gap, where no direction can
        # pass; drawing 200 directions at each took seconds
        spec = default_spec()
        start = time.perf_counter()
        X = generate_ood(spec, OodSpec("novel_cluster", shift_distance=1e308, samples=20, seed=0))
        assert time.perf_counter() - start < 0.5
        assert np.isfinite(X).all()
        scaled = (X[:, None, :] - spec.label_cluster_means) / 1e300
        assert np.linalg.norm(scaled, axis=2).min() >= 1e8


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
    norms = np.linalg.norm(means_ind, axis=1)
    radius = float(np.mean(norms))
    # no draws while radius + the smallest mean norm is short of the gap
    while (radius + norms.min()) * (1.0 + 1e-6) < ood_spec.shift_distance * sigma:
        radius *= 1.3
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


def _labeled(n, d=4, l=3, seed=31):
    rng = np.random.default_rng(seed)
    return Dataset(X=rng.normal(size=(n, d)), Y=rng.integers(0, 2, (n, l)))


def _sidecar(path):
    return path.with_name(path.name + ".npy")


def _write_parsed(data, path) -> None:
    """write_jsonl without the sidecar, so that read_jsonl takes the parse path."""
    write_jsonl(data, path)
    _sidecar(path).unlink(missing_ok=True)


# the parse's rule for JSON text that is not a list of numbers, true and false included
LIST_RULE = "features and labels must be lists of numbers, not true or false"


def _parse_error(data, path) -> str:
    """read_jsonl's error for data's rows, each written as a line by json.dumps."""
    path.write_text("".join(
        json.dumps({"features": x, "labels": y}) + "\n"
        for x, y in zip(data.X.tolist(), data.Y.tolist())
    ))
    with pytest.raises(DataError) as info:
        read_jsonl(path)
    return str(info.value)


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

    def test_concatenated_files_read_as_one(self, tmp_path):
        # e.g. `cat synth.train.jsonl synth.val.jsonl`: a header mid-file
        train, val = _labeled(300), _labeled(5)
        write_jsonl(train, tmp_path / "a.jsonl")
        write_jsonl(val, tmp_path / "b.jsonl")
        path = tmp_path / "both.jsonl"
        path.write_text((tmp_path / "a.jsonl").read_text() + (tmp_path / "b.jsonl").read_text())
        restored = read_jsonl(path)
        np.testing.assert_array_equal(restored.X, np.vstack([train.X, val.X]))
        np.testing.assert_array_equal(restored.Y, np.vstack([train.Y, val.Y]))

    def test_int64_labels_reach_the_writer_uncopied(self, tmp_path, monkeypatch):
        arrays, number_rows = [], tables.number_rows

        def spy(parts, n):
            arrays.extend(p for p in parts if isinstance(p, np.ndarray))
            return number_rows(parts, n)

        monkeypatch.setattr(tables, "number_rows", spy)
        data = _labeled(50)
        assert (data.X.dtype, data.Y.dtype) == (np.float64, np.int64)
        write_jsonl(data, tmp_path / "ds.jsonl")
        assert len(arrays) == 2
        assert np.shares_memory(arrays[0], data.X) and np.shares_memory(arrays[1], data.Y)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32, np.uint8])
    def test_labels_of_other_dtypes_are_written_as_before(self, tmp_path, dtype):
        # float labels as floats ("1.0"), other ints as int64, as json.dumps writes them
        data = _labeled(7)
        data = Dataset(X=data.X, Y=data.Y.astype(dtype))
        path = tmp_path / "ds.jsonl"
        write_jsonl(data, path)
        kind = float if np.dtype(dtype).kind == "f" else int
        want = "# betaood dataset v1\n" + "".join(
            json.dumps({"features": x.tolist(), "labels": [kind(v) for v in y]},
                       separators=(",", ":")) + "\n" for x, y in zip(data.X, data.Y))
        assert_same_bytes(path.read_text(), want)

    def test_ood_entries_have_null_labels(self, tmp_path):
        path = tmp_path / "ood.jsonl"
        _write_parsed(Dataset(X=np.array([[1.0, 2.0]]), Y=np.zeros((1, 0), int)), path)
        assert '"labels":null' in path.read_text()
        restored = read_jsonl(path)
        assert restored.Y.shape == (1, 0)

    @pytest.mark.parametrize("labels", [3, 0], ids=["labeled", "ood"])
    @pytest.mark.parametrize("split", ['"train"', "3", "null"])
    def test_rows_with_a_split_key_read_to_the_same_arrays(self, tmp_path, labels, split):
        # rows as written before the format dropped their "split" key
        data, path, old = _labeled(20, l=labels), tmp_path / "ds.jsonl", tmp_path / "old.jsonl"
        _write_parsed(data, path)
        old.write_text(path.read_text().replace("}\n", f',"split":{split}}}\n'))
        assert old.read_text().count('"split"') == 20
        got, want = read_jsonl(old), read_jsonl(path)
        assert got.X.tobytes() == want.X.tobytes() == data.X.tobytes()
        assert got.Y.shape == want.Y.shape and got.Y.dtype == want.Y.dtype
        assert np.array_equal(got.Y, want.Y) and np.array_equal(got.Y, data.Y)

    def test_cache_of_three_arrays_is_parsed_instead(self, tmp_path):
        # the cache layout of X, Y and the split, with the key of the unchanged file
        data, path = _labeled(20), tmp_path / "ds.jsonl"
        write_jsonl(data, path)
        key = tables.digest([path.read_bytes()])
        tables.save_cache(path, key, [data.X, data.Y, np.array("train")])
        assert len(tables.load_cache(path)) == 3
        with mock.patch.object(datagen, "_parse_jsonl", wraps=datagen._parse_jsonl) as parse:
            got = read_jsonl(path)
        assert parse.call_count == 1
        want = datagen._parse_jsonl(path)
        assert got.X.tobytes() == want.X.tobytes() and got.Y.tobytes() == want.Y.tobytes()
        assert got.Y.dtype == want.Y.dtype and np.array_equal(got.Y, data.Y)

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
        '{"features": [1' + "0" * 400 + '], "labels": [1], "split": "train"}',
        # a value fault names its line before a later line's fault of either kind
        '{"features": [NaN], "labels": [1], "split": "train"}\n'
        '{"features": [1.0], "labels": [2], "split": "train"}',
        '{"features": [1.0], "labels": [0.5], "split": "train"}\nnot json',
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
    return Dataset(X=X.reshape(n, d), Y=Y.reshape(n, l))


def _reference_jsonl(data) -> str:
    """The per-row json.dumps writer that write_jsonl replaced."""
    lines = ["# betaood dataset v1\n"]
    for x, y in zip(data.X, data.Y):
        doc = {
            "features": list(x),
            "labels": [int(v) for v in y] if data.Y.shape[1] else None,
        }
        lines.append(json.dumps(doc, separators=(",", ":")) + "\n")
    return "".join(lines)


class TestJsonlCodecMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(data=datasets(), chunk=st.sampled_from([1, 3, 256]))
    def test_writer_bytes_equal_json_dumps(self, tmp_path_factory, data, chunk):
        with example_dir(tmp_path_factory, "w") as d:
            path = d / "ds.jsonl"
            with mock.patch.object(tables, "CHUNK_CELLS", chunk):
                _write_parsed(data, path)
            assert_same_bytes(path.read_text(), _reference_jsonl(data))
            if len(data):
                restored = read_jsonl(path)
                assert restored.X.tobytes() == data.X.tobytes()
                np.testing.assert_array_equal(restored.Y, data.Y)

    @pytest.mark.parametrize("chunk", [tables.CHUNK_CELLS, 4096])
    @pytest.mark.parametrize("features, labels", [(7, 3), (64, 32)], ids=["narrow", "wide"])
    def test_writer_bytes_equal_json_dumps_at_size(self, tmp_path, chunk, features, labels):
        # rows for 3 seams between chunks of CHUNK_CELLS cells through the kernel; "wide"
        # is the benchmark's wide workload shape
        rng = np.random.default_rng(5)
        n = 3 * (tables.CHUNK_CELLS // (features + labels)) + 17
        X = rng.normal(size=(n, features)) * 10.0 ** rng.integers(-8, 22, size=(n, features))
        X[::97, 0], X[::89, 1], X[::83, 2] = -0.0, 1e16 - 2, 5e-324
        X[::79, 3] = np.round(X[::79, 3])
        Y = rng.integers(0, 2, size=(n, labels))
        data = Dataset(X=X, Y=Y)
        path = tmp_path / "ds.jsonl"
        with mock.patch.object(tables, "CHUNK_CELLS", chunk):
            write_jsonl(data, path)
        text = path.read_text()
        assert "e+" in text and "e-" in text and "-0.0," in text and "9999999999999998.0" in text
        assert_same_bytes(text, _reference_jsonl(data))

    # Each case is also written as JSON lines, which the parse rejects at the line
    # of the bad row, by the writer's rule; or, for a JSON string or true or false,
    # by its rule of the JSON text (LIST_RULE).
    @pytest.mark.parametrize("features, text_fault", [
        (np.array([[1.0, np.nan]]), False), (np.array([[2.0, -np.inf]]), False),
        (np.array([["a", "2"]]), True), (np.array([["1.5", "2"]]), True),
    ], ids=["nan", "minus_inf", "str", "numeric_str"])
    def test_writer_rejects_nonfinite_features(self, tmp_path, features, text_fault):
        # the reader rejects numeric strings too; "a" made np.asarray raise
        path = tmp_path / "ds.jsonl"
        data = Dataset(X=features, Y=np.ones((1, 1), int))
        with pytest.raises(DataError, match="finite") as info:
            write_jsonl(data, path)
        rule = "features must be finite numbers"
        assert str(info.value) == f"cannot write {path}: {rule}"
        assert not path.exists() and not _sidecar(path).exists()
        assert _parse_error(data, path) == f"{path}:1: {LIST_RULE if text_fault else rule}"

    @pytest.mark.parametrize("labels, rule", [
        (np.array([[True, False]]), "not bools"),
        (np.array([[1.0, 0.7]]), "got 0.7"),
        (np.array([[2, 0]]), "got 2"),
        (np.array([[0, -1]]), "got -1"),
        (np.array([[0.0, np.nan]]), "got nan"),
        (np.array([[1e23, 1.0]]), "got 1e+23"),
        (np.array([["1", "0"]]), "got dtype <U1"),
    ], ids=["bool", "float_0_7", "int_2", "int_minus_1", "nan", "float_1e23", "str"])
    def test_writer_rejects_labels_its_reader_rejects(self, tmp_path, labels, rule):
        path = tmp_path / "ds.jsonl"
        data = Dataset(X=np.ones((1, 3)), Y=labels)
        with pytest.raises(DataError, match="labels must be the numbers 0 or 1") as info:
            write_jsonl(data, path)
        rule = f"labels must be the numbers 0 or 1, {rule}"
        assert str(info.value) == f"cannot write {path}: {rule}"
        assert not path.exists() and not _sidecar(path).exists()
        text_fault = labels.dtype.kind in "bU"
        assert _parse_error(data, path) == f"{path}:1: {LIST_RULE if text_fault else rule}"

    @pytest.mark.parametrize("X, Y", [
        (np.ones(3), np.ones((3, 1), int)),
        (np.ones((3, 2)), np.ones(3, int)),
        (np.ones((3, 2)), np.ones((2, 1), int)),
        (np.ones((1, 2, 2)), np.ones((1, 1), int)),
    ], ids=["1d_features", "1d_labels", "rows_3_and_2", "3d_features"])
    def test_writer_rejects_tables_of_other_shapes_before_writing(self, tmp_path, X, Y):
        path = tmp_path / "ds.jsonl"
        with pytest.raises(DataError) as info:
            write_jsonl(Dataset(X=X, Y=Y), path)
        assert str(info.value) == (
            f"cannot write {path}: features and labels must be 2-D with one row per "
            f"sample, got shapes {X.shape} and {Y.shape}")
        assert not path.exists() and not _sidecar(path).exists()

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(
        st.fixed_dictionaries({
            "features": st.lists(
                st.sampled_from([0.5, -1.0, 1e308, "2", None, [1.0], True, math.nan, -math.inf,
                                 10**400]), max_size=2
            ) | st.sampled_from([1.0, None]),
            "labels": st.none() | st.lists(
                st.sampled_from([0, 1, 2, 0.7, 1.0, "1", "1.0", True, [0], None, math.nan,
                                 10**23]), max_size=2
            ),
        }, optional={"extra": st.just([{"a": 1}]),
                     # the key of each row before the format dropped it, now ignored
                     "split": st.sampled_from(["train", "test", 3, None])},
        ) | st.sampled_from(["[]", "{", "x"]),
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
        with example_dir(tmp_path_factory, "r") as d:
            path = d / "ds.jsonl"
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


@st.composite
def writer_inputs(draw):
    """datasets() with labels as int, bool or float (0.7 and 1.0); some have 257 rows."""
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
    return Dataset(X=X, Y=Y)


def _read_outcome(path):
    """What read_jsonl gives: the arrays' bytes, shapes and dtypes, or its error."""
    try:
        got = read_jsonl(path)
    except DataError as exc:
        return str(exc)
    return (got.X.tobytes(), got.X.shape, got.X.dtype, got.Y.tolist(), got.Y.shape,
            got.Y.dtype)


class TestSidecarMatchesParse:
    @settings(max_examples=300, deadline=None)
    @given(data=writer_inputs())
    @example(data=Dataset(X=np.array([[-0.0, 5e-324, 1.7976931348623157e308]]),
                          Y=np.array([[1, 0]])))
    @example(data=Dataset(X=np.zeros((2, 0)), Y=np.zeros((2, 0), int)))
    @example(data=_labeled(257))
    def test_cached_read_equals_parse(self, tmp_path_factory, data):
        with example_dir(tmp_path_factory, "s") as d:
            path = d / "ds.jsonl"
            if data.Y.dtype == bool or not np.all((data.Y == 0) | (data.Y == 1)):
                # labels the reader would reject: the writer writes neither file
                with pytest.raises(DataError, match=f"cannot write {path}: labels"):
                    write_jsonl(data, path)
                assert not path.exists() and not _sidecar(path).exists()
                return
            write_jsonl(data, path)
            cached = _sidecar(path).exists()
            # a sidecar is written exactly for data that the parse returns unchanged
            assert cached == bool(len(data) and data.Y.dtype.kind == "i")
            if cached:  # and it stands in for the parse
                with mock.patch.object(datagen, "_parse_jsonl", side_effect=AssertionError):
                    got = _read_outcome(path)
                assert got[0] == data.X.tobytes()
            else:
                got = _read_outcome(path)
            _sidecar(path).unlink(missing_ok=True)
            assert got == _read_outcome(path)

    def test_unfit_data_removes_old_sidecar(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        write_jsonl(_labeled(3), path)
        assert _sidecar(path).exists()
        write_jsonl(Dataset(X=np.ones((3, 4)), Y=np.ones((3, 3))), path)
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
        raw = (tmp_path / "ds.jsonl.npy").read_bytes()
        damaged = [raw[:n] for n in range(len(raw))]
        damaged += [raw[:i] + bytes([raw[i] ^ 0x80]) + raw[i + 1:] for i in range(len(raw))]
        for k, sidecar in enumerate(damaged):
            path = tmp_path / f"d{k}.jsonl"  # new files: rewriting one is slow on some filesystems
            os.link(tmp_path / "ds.jsonl", path)
            _sidecar(path).write_bytes(sidecar)
            got = read_jsonl(path)
            assert got.X.tobytes() == data.X.tobytes() and np.array_equal(got.Y, data.Y), k
            path.unlink()
            _sidecar(path).unlink()


def _reference_read_jsonl(path) -> Dataset:
    """The per-line reader: each line's JSON, then its text rules, then its width,
    then datagen._table_rule on the line as a one-row table; the first line that
    breaks one of them raises."""
    features_rows, label_rows, linenos = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                doc = json.loads(line)
                features, labels = doc["features"], doc["labels"]
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed dataset line: {exc}") from exc
            labels = [] if labels is None else labels
            if not all(isinstance(a, list) and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in a)
                    for a in (features, labels)):
                raise DataError(f"{path}:{lineno}: features and labels must be lists of "
                                "numbers, not true or false")
            if linenos and (len(features), len(labels)) != (features_rows[0].size,
                                                            label_rows[0].size):
                raise DataError(
                    f"{path}:{lineno}: {len(features)} features and {len(labels)} labels, "
                    f"but line {linenos[0]} has {features_rows[0].size} and "
                    f"{label_rows[0].size}"
                )
            try:
                x = np.array([features], dtype=float)
            except OverflowError as exc:
                raise DataError(f"{path}:{lineno}: malformed dataset line: {exc}") from exc
            y = np.array([labels])
            if problem := datagen._table_rule(x, y):
                raise DataError(f"{path}:{lineno}: {problem}")
            features_rows.append(x[0])
            label_rows.append(y[0])
            linenos.append(lineno)
    if not linenos:
        return Dataset(X=np.empty((0, 0)), Y=np.empty((0, 0), dtype=int))
    return Dataset(X=np.array(features_rows), Y=np.array(label_rows).astype(int))
