import csv
import math
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
        ids, probs, labels = [], [], []
        for lineno, row in enumerate(reader, start=2):
            _reference_width(row, header, path, lineno)
            try:
                ids.append(int(row[0]))
                probs.append([float(v) for v in row[1 : 1 + n_labels]])
                labels.append([int(v) for v in row[1 + n_labels :]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
    for lineno, sample_id in enumerate(ids, start=2):
        first = ids.index(sample_id) + 2
        if first != lineno:
            raise DataError(f"{path}:{lineno}: sample_id {sample_id!r} repeats line {first}")
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
            as_float = np.dtype([(nm, float) for nm in dtype.names])
            if as_float != dtype:
                warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
                return loadtxt(body, dtype=as_float, **kwargs).astype(dtype)
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

    @pytest.mark.parametrize("body, message", [
        (b"0,0,0.5\r\n1,1\r\n", ":3: expected 3 columns, got 2"),
        (b"0,0,0.5\r\n1,1,0.5,0.7\r\n", ":3: expected 3 columns, got 4"),
        (b"0,1.0,0.5\r\n", ":2: malformed row: invalid literal for int()"),
        (b"0,0,0.5\r\n1,1,0.\x005\r\n", ":3: malformed row: could not convert"),
    ], ids=["ragged_row", "extra_column", "int_cell_as_float", "nul_byte"])
    def test_one_pass_hands_bad_table_to_line_reader(self, tmp_path, body, message):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"sample_id,is_ood,u_s_p\r\n" + body)
        with mock.patch.object(tables, "_read_rows", wraps=tables._read_rows) as line_reader:
            with pytest.raises(DataError) as got:
                _read_scores_csv(path)
        assert line_reader.call_count == 1
        assert str(got.value).startswith(f"{path}{message}")

    def test_header_only_table_goes_to_line_reader(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"sample_id,is_ood,u_s_p\r\n")
        with mock.patch.object(tables, "_read_rows", wraps=tables._read_rows) as line_reader:
            is_ood, columns = _read_scores_csv(path)
        assert line_reader.call_count == 1
        assert is_ood.shape == (0,) and columns["u_s_p"].shape == (0,)

    def test_plain_table_is_one_loadtxt_call(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_bytes(b"sample_id,p_0,p_1,y_0,y_1\r\n0,0.25,0.5,1,0\r\n1,1.0,0.0,0,1\r\n")
        with mock.patch("numpy.loadtxt", wraps=np.loadtxt) as loadtxt, \
                mock.patch.object(tables, "_read_rows") as line_reader:
            probs, labels = _read_preds_csv(path)
        assert loadtxt.call_count == 1 and line_reader.call_count == 0
        assert probs.tolist() == [[0.25, 0.5], [1.0, 0.0]]
        assert labels.tolist() == [[1, 0], [0, 1]]
        assert labels.dtype == np.int64


@st.composite
def rectangular_tables(draw):
    """A header and columns of str cells, as lists or object arrays, all one
    width: zero rows and one-column tables with an empty cell included."""
    width = draw(st.integers(1, 3))
    header = draw(st.lists(st.sampled_from(["a", "b,c", 'q"', ""]),
                           min_size=width, max_size=width))
    cell = st.sampled_from(["0.5", "-1e-05", "nan", "", "x,y", 'say "hi"', "a\nb", "c\r"])
    n_rows = draw(st.integers(0, 5))
    columns = [draw(st.lists(cell, min_size=n_rows, max_size=n_rows)) for _ in range(width)]
    if draw(st.booleans()):
        columns = [np.array(column, dtype=object) for column in columns]
    return header, columns


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestWriteTableMatchesCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(table=rectangular_tables(), chunk=st.sampled_from([1, 2, 256]))
    def test_bytes_equal(self, tmp_path_factory, table, chunk):
        header, columns = table
        d = tmp_path_factory.mktemp("w")
        with mock.patch.object(tables, "CHUNK_ROWS", chunk):
            write_table(d / "got.csv", header, columns)
        rows = [[column[i] for column in columns] for i in range(len(columns[0]))]
        assert (d / "got.csv").read_bytes() == _csv_writer_bytes(d / "want.csv", header, rows)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.tuples(st.floats(allow_nan=False) | st.sampled_from([math.nan, -0.0]),
                                  st.integers(-(2**63), 2**63 - 1),
                                  st.sampled_from(["u_s_p", "", "x,y"])), max_size=6),
        chunk=st.sampled_from([1, 2, 256]),
    )
    def test_number_columns_are_repr_and_str(self, tmp_path_factory, values, chunk):
        floats, ints, names = (list(column) for column in zip(*values)) if values else ([], [], [])
        d = tmp_path_factory.mktemp("n")
        with mock.patch.object(tables, "CHUNK_ROWS", chunk):
            write_table(d / "got.csv", ["f", "i", "s"],
                        [np.array(floats, dtype=float), np.array(ints, dtype=np.int64), names])
        want = _csv_writer_bytes(d / "want.csv", ["f", "i", "s"],
                                 [[repr(f), str(i), nm] for f, i, nm in values])
        assert (d / "got.csv").read_bytes() == want


@st.composite
def number_tables(draw):
    """A header, int64 and float64 columns, and the types a reader's schema asks for."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(["a", "b,c", 'q"', "", "é", "n\0", "\0n", "r\r"]),
                           min_size=width, max_size=width))
    n_rows = draw(st.integers(0, 4))
    kinds = draw(st.lists(st.sampled_from([int, float]), min_size=width, max_size=width))
    cell = {int: st.integers(-(2**63), 2**63 - 1),
            float: st.floats() | st.sampled_from([-0.0, math.inf, 5e-324])}
    columns = [np.array(draw(st.lists(cell[k], min_size=n_rows, max_size=n_rows)),
                        dtype=np.int64 if k is int else np.float64) for k in kinds]
    asked = kinds if draw(st.booleans()) else draw(
        st.lists(st.sampled_from([int, float]), min_size=width, max_size=width))
    return header, columns, asked


class TestNumberTablesMatchCsvWriter:
    @settings(max_examples=150, deadline=None)
    @given(table=number_tables(), chunk=st.sampled_from([1, 2, 256]),
           names=st.lists(st.sampled_from(["a", "b,c", 'q"', '""', "", "r\r"]), min_size=4))
    def test_bytes_equal(self, tmp_path_factory, table, chunk, names):
        # only the header of an all-number table is scanned for cells to quote
        _, columns, _ = table
        header = names[: len(columns)]
        d = tmp_path_factory.mktemp("b")
        with mock.patch.object(tables, "CHUNK_ROWS", chunk):
            write_table(d / "got.csv", header, columns)
        rows = [[repr(v) if c.dtype.kind == "f" else str(v) for v in c.tolist()] for c in columns]
        want = _csv_writer_bytes(d / "want.csv", header, list(zip(*rows)))
        assert (d / "got.csv").read_bytes() == want


def _read_outcome(path, asked):
    """read_table's header and typed columns (NaN as a string), or its error."""
    try:
        header, columns = read_table(path, "table", lambda header: asked)
    except DataError as exc:
        return str(exc)
    return header, [(c.dtype, [repr(v) for v in c.tolist()]) for c in columns]


class TestTableCacheMatchesParse:
    @settings(max_examples=300, deadline=None)
    @given(table=number_tables())
    def test_cached_read_equals_parse(self, tmp_path_factory, table):
        header, columns, asked = table
        path = tmp_path_factory.mktemp("c") / "t.csv"
        write_table(path, header, columns, cache=True)
        cache = Path(f"{path}.npy")
        # a cache is saved exactly for tables that the parse returns unchanged
        assert cache.exists() == bool(
            len(columns[0]) and all(h.isascii() and not h.endswith("\0") for h in header)
            and not any(np.isnan(c).any() for c in columns))
        if cache.exists() and asked == [int if c.dtype == np.int64 else float for c in columns]:
            # and it stands in for the parse
            with mock.patch.object(tables, "_read_plain", side_effect=AssertionError), \
                    mock.patch.object(tables, "_read_rows", side_effect=AssertionError):
                got = _read_outcome(path, asked)
        else:
            got = _read_outcome(path, asked)
        cache.unlink(missing_ok=True)
        assert got == _read_outcome(path, asked)

    def test_write_without_cache_flag_saves_none(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [np.arange(3), np.ones(3)])
        assert not Path(f"{path}.npy").exists()
        write_table(path, ["a", "b"], [np.arange(3), np.ones(3)], cache=True)
        assert Path(f"{path}.npy").exists()
        write_table(path, ["a", "b"], [np.arange(3), np.full(3, np.nan)], cache=True)
        assert not Path(f"{path}.npy").exists()  # a stale cache is removed
