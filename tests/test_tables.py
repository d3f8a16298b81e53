import csv
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from example_files import example_dir
from oracles import assert_same_bytes

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


def _reference_rows(reader):
    """Each row after the header with the line where it starts, as csv.reader counts lines."""
    while True:
        lineno = reader.line_num + 1
        try:
            yield lineno, next(reader)
        except StopIteration:
            return


def _reference_repeats(ids, lines, path):
    for lineno, sample_id in zip(lines, ids):
        first = lines[ids.index(sample_id)]
        if first != lineno:
            raise DataError(f"{path}:{lineno}: sample_id {sample_id!r} repeats line {first}")


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
        if header[:2] != ["sample_id", "is_ood"] or len(header) == 2:
            raise DataError(f"scores CSV {path} must have columns sample_id, is_ood, then scores")
        names = header[2:]
        ids, is_ood, lines = [], [], []
        columns = {nm: [] for nm in names}
        for lineno, row in _reference_rows(reader):
            _reference_width(row, header, path, lineno)
            lines.append(lineno)
            try:
                ids.append(int(row[0]))
                is_ood.append(int(row[1]))
                for nm, val in zip(names, row[2:]):
                    columns[nm].append(float(val))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
    _reference_repeats(ids, lines, path)
    return np.array(is_ood, dtype=np.int64), {nm: np.array(v) for nm, v in columns.items()}


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
        ids, probs, labels, lines = [], [], [], []
        for lineno, row in _reference_rows(reader):
            _reference_width(row, header, path, lineno)
            lines.append(lineno)
            try:
                ids.append(int(row[0]))
                probs.append([float(v) for v in row[1 : 1 + n_labels]])
                labels.append([int(v) for v in row[1 + n_labels :]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
    _reference_repeats(ids, lines, path)
    return np.array(probs), np.array(labels)


CELLS = [
    "0", "1", "7", "-0", "+1", " 1", "0.5", "-2.5e-3", "1e5", "1.5", "1.0", "-0.0",
    "nan", "-inf", "Infinity", "1e999", "5e-324", "1_0", "0x10", "", "x", "1 2",
    '"0.5"', '"1"', '"1,5"', '"a""b"', "\t0.25", '"2\n"', '"0.5\r\n"',
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
    ) | st.sampled_from(["", "\r\n", "score,is_ood\r\n0,1\r\n", "sample_id,is_ood\r\n0,1\r\n"]))
    def test_scores_reader(self, tmp_path_factory, text):
        with example_dir(tmp_path_factory, "s") as d:
            path = d / "scores.csv"
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
        with example_dir(tmp_path_factory, "p") as d:
            path = d / "preds.csv"
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

    def test_int_cells_at_the_int64_bounds(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"a\r\n{-2**63}\r\n{2**63 - 1}\r\n")
        _, (column,) = read_table(path, "table", lambda header: [int])
        assert column.dtype == np.int64 and column.tolist() == [-2**63, 2**63 - 1]
        for body, lineno in ((f"{2**63}", 2), (f"0\r\n{-2**63 - 1}", 3)):
            path.write_text(f"a\r\n{body}\r\n")
            with pytest.raises(DataError, match=f"{path}:{lineno}: malformed row: .*int64"):
                read_table(path, "table", lambda header: [int])

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
        with pytest.raises(DataError) as got:
            _read_scores_csv(path)
        assert str(got.value).startswith(f"{path}{message}")

    def test_header_only_table_goes_to_line_reader(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"sample_id,is_ood,u_s_p\r\n")
        is_ood, columns = _read_scores_csv(path)
        assert is_ood.shape == (0,) and columns["u_s_p"].shape == (0,)

    def test_plain_table_values_and_dtypes(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_bytes(b"sample_id,p_0,p_1,y_0,y_1\r\n0,0.25,0.5,1,0\r\n1,1.0,0.0,0,1\r\n")
        probs, labels = _read_preds_csv(path)
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
        with example_dir(tmp_path_factory, "w") as d:
            with mock.patch.object(tables, "CHUNK_CELLS", chunk):
                write_table(d / "got.csv", header, columns)
            rows = [[column[i] for column in columns] for i in range(len(columns[0]))]
            assert_same_bytes((d / "got.csv").read_bytes(),
                              _csv_writer_bytes(d / "want.csv", header, rows))

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.tuples(st.floats(allow_nan=False) | st.sampled_from([math.nan, -0.0]),
                                  st.integers(-(2**63), 2**63 - 1),
                                  st.sampled_from(["u_s_p", "", "x,y"])), max_size=6),
        chunk=st.sampled_from([1, 2, 256]),
    )
    def test_number_columns_are_repr_and_str(self, tmp_path_factory, values, chunk):
        floats, ints, names = (list(column) for column in zip(*values)) if values else ([], [], [])
        with example_dir(tmp_path_factory, "n") as d:
            with mock.patch.object(tables, "CHUNK_CELLS", chunk):
                write_table(d / "got.csv", ["f", "i", "s"],
                            [np.array(floats, dtype=float), np.array(ints, dtype=np.int64), names])
            want = _csv_writer_bytes(d / "want.csv", ["f", "i", "s"],
                                     [[repr(f), str(i), nm] for f, i, nm in values])
            assert_same_bytes((d / "got.csv").read_bytes(), want)

    # tables with a str column go to csv.writer, which quotes a cell that holds ",", '"',
    # "\r" or "\n": one such cell among plain ones is quoted alone, and a
    # non-ASCII cell (U+2C2C, U+0D0A: code points whose bytes in other encodings are ","
    # or "\r\n") is written as UTF-8, unquoted, next to a separator comma or not
    @pytest.mark.parametrize("cell", [
        "x,y", 'x"y', "x\ry", "x\ny", ",", '"', "\r", "\n",
        "é", "\u2c2c", "\u0d0a", "€,", ",\u2c2c", "\u0d0a\n",
    ])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_one_separator_in_one_cell(self, tmp_path, cell, column):
        columns = [[f"{j}.{i}" for i in range(40)] for j in range(3)]
        columns[column][21] = cell
        write_table(tmp_path / "got.csv", ["a", "b", "c"], columns)
        want = _csv_writer_bytes(tmp_path / "want.csv", ["a", "b", "c"], list(zip(*columns)))
        assert_same_bytes((tmp_path / "got.csv").read_bytes(), want)

    @pytest.mark.parametrize("cells", [["a", "", "b"], [""], ["é", ""]])
    def test_empty_cell_of_one_column_table_is_quoted(self, tmp_path, cells):
        write_table(tmp_path / "got.csv", ["a"], [cells])
        want = _csv_writer_bytes(tmp_path / "want.csv", ["a"], [[c] for c in cells])
        assert b'""\r\n' in want
        assert_same_bytes((tmp_path / "got.csv").read_bytes(), want)

    @pytest.mark.parametrize("kind", ["float", "int"])
    @pytest.mark.parametrize("cells", [tables.KERNEL_MIN_CELLS - 1, tables.KERNEL_MIN_CELLS])
    def test_number_table_at_the_kernel_bound(self, tmp_path, kind, cells):
        # from KERNEL_MIN_CELLS cells on number_rows writes the rows, below it csv.writer
        rng = np.random.default_rng(5)
        column = (rng.normal(size=cells) * 10.0 ** rng.integers(-8, 20, cells) if kind == "float"
                  else rng.integers(-(2**63), 2**63 - 1, cells, dtype=np.int64))
        with mock.patch.object(tables, "number_rows", wraps=tables.number_rows) as kernel:
            write_table(tmp_path / "got.csv", ["v"], [column])
        assert kernel.call_count == (cells == tables.KERNEL_MIN_CELLS)
        cell = repr if kind == "float" else str
        want = _csv_writer_bytes(tmp_path / "want.csv", ["v"], [[cell(v)] for v in column.tolist()])
        assert_same_bytes((tmp_path / "got.csv").read_bytes(), want)


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
           names=st.lists(st.sampled_from(["a", "b,c", 'q"', '""', "", "r\r"]), min_size=4),
           least=st.sampled_from([0, 1024]))
    def test_bytes_equal(self, tmp_path_factory, table, chunk, names, least):
        # only the header of an all-number table is scanned for cells to quote
        _, columns, _ = table
        header = names[: len(columns)]
        with example_dir(tmp_path_factory, "b") as d:
            with mock.patch.multiple(tables, CHUNK_CELLS=chunk, KERNEL_MIN_CELLS=least):
                write_table(d / "got.csv", header, columns)
            rows = [[repr(v) if c.dtype.kind == "f" else str(v) for v in c.tolist()] for c in columns]
            want = _csv_writer_bytes(d / "want.csv", header, list(zip(*rows)))
            assert_same_bytes((d / "got.csv").read_bytes(), want)


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
        with example_dir(tmp_path_factory, "c") as d:
            path = d / "t.csv"
            write_table(path, header, columns, cache=True)
            cache = Path(f"{path}.npy")
            # a cache is saved exactly for tables that the parse returns unchanged
            assert cache.exists() == bool(
                len(columns[0]) and all(h.isascii() and not h.endswith("\0") for h in header)
                and not any(np.isnan(c).any() for c in columns))
            if cache.exists() and asked == [int if c.dtype == np.int64 else float for c in columns]:
                # and it stands in for the parse
                with mock.patch.object(tables, "_read_rows", side_effect=AssertionError):
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


def _written(path, header, columns) -> tuple[bytes, bytes]:
    """The bytes of a table that write_table writes with its cache, and of the cache."""
    write_table(path, header, columns, cache=True)
    return path.read_bytes(), Path(f"{path}.npy").read_bytes()


class TestMatrixParts:
    """An (n, k) matrix part stands for its k columns: the table and what read_table gives
    back, from the cache or the parse, are those of copies of its columns.  A column of
    any 1-D layout gives the bytes of its copy, cache included."""

    @staticmethod
    def _matrix(rng, rows, width, dtype):
        if dtype == "int64":
            return rng.integers(-(10**12), 10**12, (rows, width))
        return rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 8, (rows, width))

    @pytest.mark.parametrize("dtype", ["int64", "float64"])
    @pytest.mark.parametrize("rows, width", [(1, 1), (7, 3), (3000, 9), (20000, 9)])
    def test_matrix_part_equals_its_columns(self, tmp_path, rows, width, dtype):
        matrix = self._matrix(np.random.default_rng(rows + width), rows, width, dtype)
        header = ["id", *(f"s{j}" for j in range(width))]
        types = [int] + [int if dtype == "int64" else float] * width
        reads = []
        for name, parts in (("got", [np.arange(rows), matrix]),
                            ("want", [np.arange(rows), *(c.copy() for c in matrix.T)])):
            path = tmp_path / f"{name}.csv"
            write_table(path, header, parts, cache=True)
            with mock.patch.object(tables, "_read_rows", side_effect=AssertionError):
                cached = _read_outcome(path, types)
            Path(f"{path}.npy").unlink()
            assert cached == _read_outcome(path, types)
            reads.append((path.read_bytes(), cached))
        assert_same_bytes(reads[0][0], reads[1][0])
        assert reads[0][1] == reads[1][1]

    @pytest.mark.parametrize("case", ["f_order", "reversed", "every_other", "two_matrices",
                                      "part_of_wider", "rows_of_matrix"])
    def test_column_layouts_written_as_copies(self, tmp_path, case):
        rng, rows = np.random.default_rng(5), 3000
        wide = self._matrix(rng, rows, 8, "float64")
        columns = {
            "f_order": list(np.asfortranarray(wide[:, :4]).T),
            "reversed": list(wide.T[::-1]),
            "every_other": list(wide.T[::2]),
            "two_matrices": [*wide.T[:2], *self._matrix(rng, rows, 2, "float64").T],
            "part_of_wider": list(wide.T[2:6]),
            "rows_of_matrix": list(np.ascontiguousarray(wide.T[:4])),
        }[case]
        header = list("abcdefgh"[: len(columns)])
        got = _written(tmp_path / "got.csv", header, columns)
        want = _written(tmp_path / "want.csv", header, [c.copy() for c in columns])
        for g, w in zip(got, want):
            assert_same_bytes(g, w)

    def test_peak_memory_of_a_score_table(self, tmp_path):
        # scores.csv's shape at 20000 rows: stacking the 9 score columns took 5.2 MiB
        rows = 20000
        values = np.random.default_rng(3).random((rows, 9))
        parts = [np.arange(rows), np.repeat([0, 1], rows // 2), values]
        tracemalloc.start()
        try:
            write_table(tmp_path / "s.csv", ["id", "is_ood", *"abcdefghi"], parts, cache=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20

    def test_cache_of_one_int_block_read_without_a_parse(self, tmp_path):
        # the layout written while one block held each run of same-dtype columns:
        # sample_id and is_ood as one (2, N) int64 block, then the (k, N) scores
        path, rows = tmp_path / "scores.csv", 500
        header = ["sample_id", "is_ood", "u_s_p", "u_s_n"]
        ids, is_ood = np.arange(rows), np.repeat([0, 1], rows // 2)
        values = np.random.default_rng(8).random((rows, 2))
        write_table(path, header, [ids, is_ood, values])
        tables.save_cache(path, tables.digest([path.read_bytes()]),
                          [np.array(header), np.array([ids, is_ood]), values.T])
        with mock.patch.object(tables, "_read_rows", side_effect=AssertionError):
            got = _read_scores_csv(path)
        Path(f"{path}.npy").unlink()
        want = _read_scores_csv(path)
        assert got[0].tolist() == want[0].tolist() == is_ood.tolist()
        assert {k: v.tobytes() for k, v in got[1].items()} == \
            {k: v.tobytes() for k, v in want[1].items()}


class TestWriteText:
    def test_writes_blocks_and_caches_under_their_key(self, tmp_path):
        path = tmp_path / "t.txt"
        tables.write_text(path, iter([b"a,b\r\n", b"1,2\r\n"]), [np.arange(3)])
        assert path.read_bytes() == b"a,b\r\n1,2\r\n"
        assert [a.tolist() for a in tables.load_cache(path)] == [[0, 1, 2]]

    def test_without_arrays_removes_a_stale_cache(self, tmp_path):
        path = tmp_path / "t.txt"
        tables.write_text(path, [b"old\n"], [np.arange(3)])
        assert Path(f"{path}.npy").exists()
        tables.write_text(path, [b"new\n"], None)
        assert path.read_bytes() == b"new\n"
        assert not Path(f"{path}.npy").exists()


def _kernel_text(values: np.ndarray) -> bytes:
    """number_rows' text of a 1-D array, a value a line."""
    return b"".join(tables.number_rows([values[:, None], "\n"], len(values)))


def _python_text(values: np.ndarray) -> bytes:
    """The reference: the repr or str of each value, a value a line."""
    cell = repr if values.dtype.kind == "f" else str
    return "".join(cell(v) + "\n" for v in values.tolist()).encode()


def _edge_floats() -> np.ndarray:
    """Every power of two and of ten, the neighbours of the layout's limits and
    of 2**53, the smallest and largest magnitudes, zeros, inf and nan."""
    powers = [*np.ldexp(1.0, np.arange(-1074, 1024)), *(float(f"1e{e}") for e in range(-323, 309))]
    limits = [1e-4, 1e16, 2.0**53, 1.0, 0.1]
    near = [np.nextafter(v, to) for v in limits for to in (0.0, np.inf)]
    values = [*powers, *limits, *near, float(2**53 - 1), float(2**53 + 1), 9007199254740993.0,
              5e-324, 2.2250738585072014e-308, np.finfo(float).max, 0.0, np.inf, np.nan, 123.0]
    return np.array(values + [-v for v in values])


class TestNumberKernel:
    """number_rows' array kernel gives the bytes of repr of each float64 and str of each int64."""

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(), max_size=30))
    def test_floats_are_repr(self, values):
        a = np.array(values, dtype=np.float64)
        assert_same_bytes(_kernel_text(a), _python_text(a))

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30))
    def test_ints_are_str(self, values):
        a = np.array(values, dtype=np.int64)
        assert_same_bytes(_kernel_text(a), _python_text(a))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(22)
        for _ in range(8):  # 2**21 patterns: every sign, exponent field and fraction
            a = rng.integers(0, 2**64, size=2**18, dtype=np.uint64).view(np.float64)
            assert_same_bytes(_kernel_text(a), _python_text(a))

    def test_edge_values(self):
        a = _edge_floats()
        assert_same_bytes(_kernel_text(a), _python_text(a))

    def test_int64_edges(self):
        edges = [0, 1, 9, 10, 9999, 10**4, 10**8, 10**12, 10**16 - 1, 10**16, 10**18, 2**63 - 1]
        a = np.array(edges + [-v for v in edges] + [-(2**63)], dtype=np.int64)
        assert_same_bytes(_kernel_text(a), _python_text(a))

    def test_kernel_and_fallback_lanes_both_run(self):
        # normal floats and zeros take the kernel; subnormals, inf and nan take repr
        a = _edge_floats()
        lanes, fallback = [], []
        shortest, python_repr = tables._shortest, repr

        def count_lanes(bits):
            lanes.append(bits.size)
            return shortest(bits)

        def count_repr(value):
            fallback.append(value)
            return python_repr(value)

        with mock.patch.object(tables, "_shortest", count_lanes), \
                mock.patch.object(tables, "repr", count_repr, create=True):
            assert_same_bytes(_kernel_text(a), _python_text(a))
        special = ~np.isfinite(a) | (np.abs(a) < 2.2250738585072014e-308) & (a != 0)
        assert sum(lanes) == a.size and sorted(map(repr, fallback)) == sorted(
            map(repr, a[special].tolist()))
        assert 0 < len(fallback) < a.size


class TestNumberTableAtSize:
    @pytest.mark.parametrize("chunk", [tables.CHUNK_CELLS, 4096])
    @pytest.mark.parametrize("shape", ["mixed", "scores"])
    def test_mixed_table_bytes_equal_csv_writer(self, tmp_path, chunk, shape):
        # int64 and float64 columns, rows for 3 seams between chunks at CHUNK_CELLS: "mixed"
        # puts wide ints between float columns, "scores" is scores.csv's 11 columns
        rng = np.random.default_rng(7)
        width = 6 if shape == "mixed" else 11
        n = 3 * (tables.CHUNK_CELLS // width) + 17
        ints = [np.arange(n), rng.integers(0, 2, n),
                rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64)]
        floats = rng.normal(size=(9, n)) * 10.0 ** rng.integers(-320, 300, size=(9, n))
        floats[0, ::7], floats[1, ::11], floats[2, ::13] = np.nan, -0.0, -np.inf
        if shape == "mixed":
            columns = [ints[0], ints[1], *floats[:2], ints[2], floats[2]]
            header = ["sample_id", "is_ood", "a", "b", "c", "d"]
        else:
            floats[3:] = rng.normal(size=(6, n)) * 10.0 ** rng.integers(-6, 3, size=(6, n))
            columns = [ints[0], ints[1], *floats]
            header = ["sample_id", "is_ood", *(f"s{j}" for j in range(9))]
        with mock.patch.object(tables, "CHUNK_CELLS", chunk):
            write_table(tmp_path / "got.csv", header, columns)
        rows = zip(*([repr(v) if c.dtype.kind == "f" else str(v) for v in c.tolist()]
                     for c in columns))
        want = _csv_writer_bytes(tmp_path / "want.csv", header, list(rows))
        assert_same_bytes((tmp_path / "got.csv").read_bytes(), want)



def _chunk_blocks(kind: str, rows: int, rng) -> list:
    """Four blocks of ``rows`` rows of 4 columns, one block a chunk of number_rows: each
    block's values need other byte slots than its neighbours' (see TestChunkLocalSlots)."""
    def normal(scale=1.0):
        return rng.normal(size=(rows, 4)) * scale * 10.0 ** rng.integers(-3, 3, (rows, 4))
    if kind == "sign":  # a "-" in the first and third chunks only
        return [normal(), np.abs(normal()), -np.abs(normal()), np.abs(normal())]
    if kind == "integral":  # "x.0" only: no digit after the "." but one "0"
        return [np.round(normal(100.0)) for _ in range(4)]
    if kind == "below_1_then_tens":  # "0." and _FRONT's zeros, then two or more digits
        small = [rng.random((rows, 4)) * 10.0 ** -rng.integers(0, 4, (rows, 4)) for _ in "ab"]
        tens = [10 + rng.random((rows, 4)) * 10.0 ** rng.integers(0, 12, (rows, 4)) for _ in "ab"]
        return [small[0], tens[0], small[1], tens[1]]
    if kind == "lone_exponent":  # one scientific cell in an otherwise positional chunk
        blocks = [rng.random((rows, 4)) + 1 for _ in range(4)]
        blocks[1][rows // 2, 2], blocks[2][-1, -1] = 1e-05, 1e16
        return blocks
    if kind == "fallback_only":  # every cell of the second chunk takes repr
        special = np.array([-2.225073858507201e-308, -5e-324, np.inf, -np.inf, np.nan])
        return [normal(), special[rng.integers(0, 5, (rows, 4))], normal(), normal()]
    # int64 columns whose widest value changes from chunk to chunk
    return [rng.integers(0, 10, (rows, 4)), rng.integers(-(10**12), 10**12, (rows, 4)),
            rng.integers(-(2**63), 2**63 - 1, (rows, 4), dtype=np.int64),
            rng.integers(0, 2, (rows, 4)) * 10**4]


class TestChunkLocalSlots:
    """number_rows sizes each word's byte slot by the chunk's own cells: tables whose
    chunks need different slots give the bytes of csv.writer of repr and str."""

    @pytest.mark.parametrize("chunk", [tables.CHUNK_CELLS, 4096])
    @pytest.mark.parametrize("kind", ["sign", "integral", "below_1_then_tens", "lone_exponent",
                                      "fallback_only", "int64_widths"])
    def test_bytes_equal_csv_writer(self, tmp_path, chunk, kind):
        rows = chunk // 4  # a block of 4 columns a chunk
        table = np.concatenate(_chunk_blocks(kind, rows, np.random.default_rng(11)))
        assert table.shape == (4 * rows, 4)
        with mock.patch.object(tables, "CHUNK_CELLS", chunk):
            write_table(tmp_path / "got.csv", list("abcd"), list(table.T))
        cell = repr if table.dtype.kind == "f" else str
        want = _csv_writer_bytes(tmp_path / "want.csv", list("abcd"),
                                 [[cell(v) for v in row] for row in table.tolist()])
        assert_same_bytes((tmp_path / "got.csv").read_bytes(), want)

    @pytest.mark.parametrize("chunk", [tables.CHUNK_CELLS, 4096])
    def test_roc_pairs_span_chunks(self, tmp_path, chunk):
        # a pair's gathered words keep their 4 bytes: k / 3 and k / 20011 take 5 and 6 words
        from betaood.metrics import ScoredDataset, roc_curve, write_roc_csv
        rng = np.random.default_rng(4)
        is_ood = np.zeros(20011 + 3, dtype=int)
        is_ood[rng.permutation(is_ood.size)[:3]] = 1
        curve = roc_curve(ScoredDataset(scores=np.arange(is_ood.size, dtype=float), is_ood=is_ood))
        assert len(curve.fp) + 1 > chunk  # rows of two cells: more than two chunks
        with mock.patch.object(tables, "CHUNK_CELLS", chunk):
            write_roc_csv(curve, tmp_path / "roc.csv")
        points = zip([0, *curve.fp.tolist()], [0, *curve.tp.tolist()])
        rates = [[repr(f / curve.n_neg), repr(t / curve.n_pos)] for f, t in points]
        want = _csv_writer_bytes(tmp_path / "want.csv", ["fpr", "tpr"], rates)
        assert_same_bytes((tmp_path / "roc.csv").read_bytes(), want)

def _reference_words(texts) -> np.ndarray:
    """Each text's ASCII bytes, NUL-padded to the whole words of the longest, one at least."""
    width = max(1, -(-max(map(len, texts)) // 4))
    data = b"".join(t.encode("ascii").ljust(4 * width, b"\0") for t in texts)
    return np.frombuffer(data, np.uint32).reshape(len(texts), width)


def _per_text_words(texts) -> np.ndarray:
    """The word layout text_words replaced: each text NUL-padded to its own whole words,
    all joined into one row."""
    return np.frombuffer(b"".join(t.encode().ljust(-max(len(t), 1) // 4 * -4, b"\0")
                                  for t in texts), np.uint32)


class TestTextWords:
    """text_words, the one builder of NUL-padded uint32 cell matrices."""

    @pytest.mark.parametrize("length", range(10))
    def test_one_text(self, length):
        text = "abcdefghi"[:length]
        assert _same_arrays(tables.text_words([text]), _reference_words([text]))

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.text(st.characters(max_codepoint=127), max_size=9), min_size=1,
                          max_size=8))
    def test_many_texts(self, texts):
        assert _same_arrays(tables.text_words(texts), _reference_words(texts))

    def test_kernel_constants_keep_their_words(self):
        front = _per_text_words(["0" * (i // 10) + str(i % 10) for i in range(40)] + [""])
        exp = _per_text_words([f"e{e:+03d}".ljust(8, "\0") for e in range(-330, 331)])
        assert _same_arrays(tables._FRONT, front)
        assert _same_arrays(tables._EXP, exp.reshape(-1, 2))
        marks = (tables._DOT, tables._MINUS)
        assert [(type(m), m) for m in marks] == [(type(m), m) for m in _per_text_words(".-")]
        # the comma between an array's cells is the one byte ord(",")
        parts = [np.array([[-1.5, 2.0]]), ";", np.array([[3, -4]])]
        assert b"".join(tables.number_rows(parts, 1)) == b"-1.5,2.0;3,-4"
        assert tables._tables()[0][-1] == _per_text_words(["0"])[0]


class TestPreRenderedCells:
    """number_rows' pair (cells, index) writes cells[index[r]]'s text on row r."""

    # 8 to 5 bytes: 0 to 3 NULs of padding in two words; "1" pads the second word whole
    TEXTS = ["0.123456", "1234567", "x_y-z+", "12345", "1"]

    @pytest.mark.parametrize("chunk", [tables.CHUNK_CELLS, 8, 1])
    def test_bytes_equal_join_of_cell_texts(self, chunk):
        cells = np.array(self.TEXTS, dtype="S8").view(np.uint32).reshape(len(self.TEXTS), 2)
        index = np.array([3, 0, 0, 2, 1, 4, 4, 4, 1, 3, 0])  # repeats, out of order
        rng = np.random.default_rng(3)
        floats = rng.normal(size=index.size) * 10.0 ** rng.integers(-8, 8, index.size)
        ints = rng.integers(-(10**12), 10**12, index.size)
        parts = ["a:", (cells, index), ",", floats[:, None], ",", ints[:, None], "\n"]
        with mock.patch.object(tables, "CHUNK_CELLS", chunk):
            got = b"".join(tables.number_rows(parts, index.size))
        want = "".join(f"a:{self.TEXTS[i]},{f!r},{k}\n"
                       for i, f, k in zip(index.tolist(), floats.tolist(), ints.tolist()))
        assert_same_bytes(got, want.encode())

    def test_table_of_pairs_at_any_size(self, tmp_path):
        # below KERNEL_MIN_CELLS too, and never cached: no number columns
        cells = np.array(self.TEXTS, dtype="S8").view(np.uint32).reshape(len(self.TEXTS), 2)
        index = np.array([4, 0, 2])
        with mock.patch.object(tables, "number_rows", wraps=tables.number_rows) as kernel:
            write_table(tmp_path / "t.csv", ["a", "b"], [(cells, index), (cells, index[::-1])],
                        cache=True)
        assert kernel.call_count == 1
        assert_same_bytes((tmp_path / "t.csv").read_bytes(), _csv_writer_bytes(
            tmp_path / "want.csv", ["a", "b"], [["1", "x_y-z+"], ["0.123456", "0.123456"],
                                                ["x_y-z+", "1"]]))
        assert not Path(f"{tmp_path / 't.csv'}.npy").exists()


class TestRowLine:
    """row_line counts lines as csv.reader does: a quoted line break starts a new one."""

    def test_line_breaks_in_header_and_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'a,"b\nc"\r\n1,2\r\n"3\r\n\r\n",4\r\n5,"6\r"\n7,8\n')
        assert [tables.row_line(path, i) for i in range(4)] == [3, 4, 7, 9]

    @pytest.mark.parametrize("text, message", [
        ('a,"b\nc"\r\n1,2\r\n3\r\n', ":4: expected 2 columns, got 1"),
        ('a,b\r\n"1\n",2\r\nx,4\r\n', ":4: malformed row"),
    ], ids=["width", "malformed"])
    def test_parse_errors_name_the_start_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError, match=f"{path}{message}"):
            read_table(path, "table", lambda header: [int, int])


class TestEqualNeighbours:
    """equal_neighbours pairs each key with the last earlier key equal to it under
    np.array_equal, for entries of a 1-D array and rows of a 2-D one."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_pairs_as_a_loop_over_earlier_keys(self, data):
        n = data.draw(st.integers(0, 9), label="n")
        width = data.draw(st.sampled_from([None, 0, 1, 3]), label="width")
        if data.draw(st.booleans(), label="text") and width is None:
            cells = st.sampled_from(["a", "b", "a\0", ""])
            keys = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=object)
        else:
            cells = st.sampled_from([0.0, -0.0, 1.0, np.inf, np.nan])
            size = n * (1 if width is None else width)
            keys = np.array(data.draw(st.lists(cells, min_size=size, max_size=size)),
                            dtype=float).reshape((n,) if width is None else (n, width))
        want = []
        for j in range(n):
            earlier = [i for i in range(j) if np.array_equal(keys[i : i + 1], keys[j : j + 1])]
            if earlier:
                want.append((earlier[-1], j))
        first, second = tables.equal_neighbours(keys)
        assert sorted(zip(first.tolist(), second.tolist())) == sorted(want)
