"""The pipeline's one CSV reader and writer, with the csv module's excel-dialect behaviour.

Plain tables go through ``np.loadtxt`` and one string join; anything else,
and every error, through ``csv.reader``/``csv.writer``, so that a message
names the file, the line and the cause.
"""

from __future__ import annotations

import csv
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DataError

_DTYPES = {int: np.int64, float: np.float64}
# rows converted at a time by write_table and by datagen's JSONL reader and
# writer: bounds the Python objects held in memory
CHUNK_ROWS = 256


def read_table(path, what: str, schema) -> tuple[list[str], list]:
    """Read a CSV table with a header row; ``what`` names it in messages.

    ``schema(header)`` gives each column's type, str, int or float, and raises
    DataError on a bad header.  Returns the header and per column a list of
    str or an int64 / float64 array.
    """
    if not Path(path).is_file():
        raise DataError(f"{what} not found: {Path(path)}")
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode: {exc}") from exc
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    # without quotes or blank lines, csv.reader's rows are the lines split on ","
    if lines and "" not in lines and '"' not in text:
        header = lines[0].split(",")
        columns = _read_plain(lines[1:], schema(header))
        if columns is not None:
            return header, columns
    return _read_rows(path, what, schema)


def _read_plain(body: list[str], types: list) -> list | None:
    """Every column in bulk, or None if a row needs _read_rows.

    ``np.loadtxt`` accepts a subset of what int() and float() accept, with
    the same values; a numpy that parses a non-integer int cell as a float
    says so with a DeprecationWarning, which also sends the table to _read_rows.
    """
    if not body or any(line.count(",") != len(types) - 1 for line in body):
        return None
    columns = [[line.split(",")[j] for line in body] if t is str else None
               for j, t in enumerate(types)]
    for kind, dtype in _DTYPES.items():
        index = [j for j, t in enumerate(types) if t is kind]
        if index:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    block = np.loadtxt(body, delimiter=",", usecols=index, dtype=dtype,
                                       comments=None, ndmin=2)
            except (ValueError, DeprecationWarning):
                return None
            for n, j in enumerate(index):
                columns[j] = block[:, n]
    return columns


def _read_rows(path, what: str, schema) -> tuple[list[str], list]:
    """csv.reader with int() / float() per cell; names the first bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            types = schema(header)
            values = [[] for _ in types]
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(
                        f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                    )
                try:
                    for column, kind, cell in zip(values, types, row):
                        column.append(kind(cell))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
        except StopIteration:
            raise DataError(f"{what} {path} is empty") from None
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return header, [v if t is str else np.array(v) for v, t in zip(values, types)]


def write_table(path, header: list[str], rows) -> None:
    """Write a header and an iterable of rows of str cells with the bytes of csv.writer."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        chunk = [header, *islice(rows, CHUNK_ROWS)]
        while chunk:
            text = "".join([",".join(row) + "\r\n" for row in chunk])
            # a cell holding ",", '"' or a line break, or a row of one empty cell, is quoted
            plain = (
                '"' not in text
                and text.count(",") == sum(map(len, chunk)) - len(chunk)
                and text.count("\n") == len(chunk) == text.count("\r")
                and [""] not in chunk
            )
            if plain:
                fh.write(text)
            else:
                csv.writer(fh).writerows(chunk)
            chunk = list(islice(rows, CHUNK_ROWS))
