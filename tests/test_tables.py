import csv
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaood.cli import _read_preds_csv, _read_scores_csv
from betaood import tables
from betaood.errors import DataError
from betaood.tables import read_table, write_table


# The csv.reader + int()/float() readers that read_table replaced, kept as the
# reference: read_table must give equal arrays, or raise the same message.
def _reference_header(reader, what, path):
    try:
        return next(reader)
    except StopIteration:
        raise DataError(f"{what} {path} is empty") from None


def _reference_width(row, header, path, lineno):
    if len(row) != len(header):
        raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")


def _reference_scores(path):
    scores_path = Path(path)
    if not scores_path.is_file():
        raise DataError(f"scores CSV not found: {scores_path}")
    with open(scores_path, newline="") as fh:
        reader = csv.reader(fh)
        header = _reference_header(reader, "scores CSV", path)
        if header[:2] != ["sample_id", "is_ood"]:
            raise DataError(f"scores CSV {path} must start with sample_id,is_ood columns")
        names = header[2:]
        ids, is_ood = [], []
        columns = {nm: [] for nm in names}
        for lineno, row in enumerate(reader, start=2):
            _reference_width(row, header, path, lineno)
            try:
                ids.append(int(row[0]))
                is_ood.append(int(row[1]))
                for nm, val in zip(names, row[2:]):
                    columns[nm].append(float(val))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
    for lineno, sample_id in enumerate(ids, start=2):
        first = ids.index(sample_id) + 2
        if first != lineno:
            raise DataError(f"{path}:{lineno}: sample_id {sample_id!r} repeats line {first}")
    return np.array(is_ood), {nm: np.array(v) for nm, v in columns.items()}


def _reference_preds(path):
    preds_path = Path(path)
    if not preds_path.is_file():
        raise DataError(f"predictions CSV not found: {preds_path}")
    with open(preds_path, newline="") as fh:
        reader = csv.reader(fh)
        header = _reference_header(reader, "predictions CSV", path)
        n_labels = sum(1 for h in header if h.startswith("p_"))
        if header[:1] != ["sample_id"] or n_labels < 1 or len(header) != 1 + 2 * n_labels:
            raise DataError(
                f"predictions CSV {path} must have columns sample_id, p_0.., y_0.."
            )
        probs, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            _reference_width(row, header, path, lineno)
            try:
                probs.append([float(v) for v in row[1 : 1 + n_labels]])
                labels.append([int(v) for v in row[1 + n_labels :]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
    return np.array(probs), np.array(labels)


CELLS = [
    "0", "1", "7", "-0", "+1", " 1", "0.5", "-2.5e-3", "1e5", "1.5", "1.0", "-0.0",
    "nan", "-inf", "Infinity", "1e999", "5e-324", "1_0", "0x10", "", "x", "1 2",
    '"0.5"', '"1"', '"1,5"', '"a""b"', "\t0.25",
]


@st.composite
def csv_texts(draw, header):
    """Raw CSV text: a header, then rows of numeric and odd cells, some short."""
    width = len(header)
    rows = [",".join(header)]
    # half the tables hold only cells that int() and float() both accept
    cell = st.sampled_from(CELLS[:6] if draw(st.booleans()) else CELLS)
    for _ in range(draw(st.integers(0, 5))):
        cells = draw(st.lists(cell, min_size=width, max_size=width))
        if draw(st.integers(0, 9)) == 0:
            cells = cells[: draw(st.integers(0, width))]
        rows.append(",".join(cells))
    end = draw(st.sampled_from(["\r\n", "\n"]))
    text = end.join(rows) + (end if draw(st.booleans()) else "")
    if draw(st.integers(0, 9)) == 0:
        text += end  # a trailing blank line
    return text


def _same_arrays(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _compare(read, reference, path):
    try:
        want = reference(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            read(path)
        assert str(got.value) == str(exc)
        return None
    got = read(path)
    return got, want


class TestReadTableMatchesCsvReader:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(["sample_id", "is_ood", "u_s_p", "u_s_n"]) | csv_texts(
        ["sample_id", "is_ood", "u_s_pn"]
    ) | st.sampled_from(["", "\r\n", "score,is_ood\r\n0,1\r\n"]))
    def test_scores_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("s") / "scores.csv"
        path.write_bytes(text.encode())
        pair = _compare(_read_scores_csv, _reference_scores, path)
        if pair is None:
            return
        (is_ood, columns), (want_is_ood, want_columns) = pair
        assert _same_arrays(is_ood, want_is_ood)
        assert list(columns) == list(want_columns)
        for nm in columns:
            assert _same_arrays(columns[nm], want_columns[nm])

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts(["sample_id", "p_0", "p_1", "y_0", "y_1"]) | st.sampled_from(
        ["", "sample_id,y_0\r\n0,1\r\n", "sample_id,p_0,y_0\r\n0,0.5\r\n"]
    ))
    def test_preds_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("p") / "preds.csv"
        path.write_bytes(text.encode())
        pair = _compare(_read_preds_csv, _reference_preds, path)
        if pair is None:
            return
        (probs, labels), (want_probs, want_labels) = pair
        if want_probs.size == 0:
            # no rows: the reference stacks nothing, a 1-d empty array
            assert probs.shape == (0, 2) and labels.shape == (0, 2)
            return
        assert _same_arrays(probs, want_probs)
        assert _same_arrays(labels, want_labels)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(DataError, match="metrics CSV not found"):
            read_table(tmp_path / "nope.csv", "metrics CSV", lambda header: [str])

    def test_undecodable_bytes_name_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"sample_id,is_ood,u_s_p\r\n0,0,0.\xff5\r\n")
        with pytest.raises(DataError, match=f"{path}: cannot decode"):
            _read_scores_csv(path)

    def test_int_cell_parsed_via_float_goes_to_csv_reader(self, tmp_path):
        # some numpy releases parse an int cell such as "1.5" as a float,
        # truncate it and warn with a DeprecationWarning instead of failing
        loadtxt = np.loadtxt

        def lenient_loadtxt(body, dtype=float, **kwargs):
            if dtype is np.int64:
                warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
                return loadtxt(body, dtype=float, **kwargs).astype(np.int64)
            return loadtxt(body, dtype=dtype, **kwargs)

        path = tmp_path / "scores.csv"
        path.write_bytes(b"sample_id,is_ood,u_s_p\r\n0,1.5,0.5\r\n")
        with mock.patch("numpy.loadtxt", lenient_loadtxt):
            with pytest.raises(DataError, match=f"{path}:2: malformed row"):
                _read_scores_csv(path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match=f"{path}:2: malformed row"):
                    _read_scores_csv(path)

    def test_nul_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"sample_id,is_ood,u_s_p\r\n0,0,0.5\r\n1,1,0.\x005\r\n")
        with pytest.raises(DataError, match=f"{path}:3:"):
            _read_scores_csv(path)


class TestWriteTableMatchesCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(
        header=st.lists(st.sampled_from(["a", "b,c", 'q"', ""]), min_size=1, max_size=3),
        rows=st.lists(
            st.lists(
                st.sampled_from(["0.5", "-1e-05", "nan", "", "x,y", 'say "hi"', "a\nb", "c\r"]),
                max_size=3,
            ),
            max_size=5,
        ),
        chunk=st.sampled_from([1, 2, 256]),
    )
    def test_bytes_equal(self, tmp_path_factory, header, rows, chunk):
        d = tmp_path_factory.mktemp("w")
        with mock.patch.object(tables, "CHUNK_ROWS", chunk):
            write_table(d / "got.csv", header, iter(rows))
        with open(d / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()
