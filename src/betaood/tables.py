"""The pipeline's one CSV reader and writer, with the csv module's excel-dialect behaviour,
and the one cache codec of the files it and datagen write.

Tables are parsed by ``csv.reader``, so that a message names the file, the line and
the cause.  Plain tables are written with one string join per chunk of rows; any
other goes through ``csv.writer``.

A cache, ``<file>.npy``, holds what parsing the file gives under a key of its bytes
(zlib: hashlib loads OpenSSL); it is never required and safe to delete.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import zlib
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from .errors import DataError

_DTYPES = {int: np.int64, float: np.float64, str: object}
# rows turned into text at a time by write_table and by datagen's JSONL
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
    cached = load_cache(path)  # [header, one 2-D block per run of int or float columns]
    if cached and cached[0].dtype.kind == "U" and cached[0].ndim == 1:
        header = cached[0].tolist()
        columns = [column for block in cached[1:] if block.ndim == 2 for column in block]
        if [column.dtype for column in columns] == [_DTYPES[t] for t in schema(header)]:
            return header, columns
    return _read_rows(path, what, schema)


def _int64(cell: str) -> int:
    """int(cell), or ValueError if an int64 column cannot hold it."""
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{cell!r} is outside the int64 range")
    return value


_PARSERS = {int: _int64, float: float, str: str}


def _read_rows(path, what: str, schema) -> tuple[list[str], list]:
    """csv.reader over one read of the file, with a parser per cell; names the first bad line."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot decode: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
        types = schema(header)
        values = [[] for _ in types]
        parsers = [_PARSERS[t] for t in types]
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            try:
                for column, parse, cell in zip(values, parsers, row):
                    column.append(parse(cell))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
    except StopIteration:
        raise DataError(f"{what} {path} is empty") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return header, [v if t is str else np.array(v, _DTYPES[t]) for v, t in zip(values, types)]


def write_table(path, header: list[str], columns, cache: bool = False) -> None:
    """Write a header and equal-length columns with the bytes of csv.writer.

    A float array's cells are the repr of each Python float, another number
    array's the str of each value; a list or object array holds str cells.
    With ``cache``, also save ``<path>.npy``, the header and a 2-D block per run of
    columns of one dtype, if the parse gives them back: int64 or float64 arrays of
    a row or more without NaN, an ASCII header that numpy keeps (no trailing NUL).
    """
    chunks = ([_cells(column[start : start + CHUNK_ROWS]) for column in columns]
              for start in range(0, len(columns[0]), CHUNK_ROWS))
    numbers = cache and len(columns[0]) and all(
        isinstance(c, np.ndarray) and c.dtype in (np.int64, np.float64) for c in columns)
    blocks = numbers and [np.array(list(run)) for _, run in groupby(columns, lambda c: c.dtype)]
    # the repr or str of a number is never empty and holds no ",", '"' or line break
    plain = all(isinstance(c, np.ndarray) and c.dtype.kind in "iuf" for c in columns)
    if blocks and (not all(map(str.isascii, header)) or np.array(header).tolist() != header
                   or any(np.isnan(b).any() for b in blocks)):
        blocks = None
    key = digest([])
    with open(path, "w", newline="") as fh:
        for body, chunk in enumerate(chain([[[name] for name in header]], chunks)):
            width, rows = len(chunk), len(chunk[0])
            # each cell followed by "," or, at the end of its row, by "\r\n"
            parts = [","] * (2 * width * rows)
            for j, cells in enumerate(chunk):
                parts[2 * j :: 2 * width] = cells
            parts[2 * width - 1 :: 2 * width] = ["\r\n"] * rows
            text = "".join(parts)
            # a cell holding ",", '"' or a line break, or a row of one empty cell, is quoted
            if not (body and plain) and ('"' in text or text.count(",") != (width - 1) * rows
                    or not text.count("\n") == rows == text.count("\r")
                    or width == 1 and "" in chunk[0]):
                csv.writer(text := io.StringIO()).writerows(zip(*chunk))
                text = text.getvalue()
            fh.write(text)
            if blocks:
                key = digest([text.encode(fh.encoding)], key)
    if cache:
        save_cache(path, key, [np.array(header), *blocks] if blocks else None)


def _cells(part) -> list[str]:
    """The str cells of a slice of a column."""
    if isinstance(part, np.ndarray) and part.dtype.kind != "O":
        return list(map(repr if part.dtype.kind == "f" else str, part.tolist()))
    return part.tolist() if isinstance(part, np.ndarray) else part


def digest(blocks, key: tuple = (0, 0, 1)) -> tuple:
    """(length, CRC-32, Adler-32) of byte blocks, continuing ``key``."""
    for block in blocks:
        key = key[0] + len(block), zlib.crc32(block, key[1]), zlib.adler32(block, key[2])
    return key


def _arrays_crc(arrays, crc: int = 0) -> int:
    for a in arrays:  # shape and bytes; a non-C-contiguous array raises ValueError
        crc = zlib.crc32(a, zlib.crc32(repr(a.shape).encode(), crc))
    return crc


def save_cache(path, key: tuple, arrays) -> None:
    """Save ``<path>.npy``: ``key``, the digest of path's bytes, then the arrays;
    with arrays None, remove it.  A cache that cannot be written is left out."""
    with contextlib.suppress(OSError):
        if arrays is None:
            return os.remove(f"{os.fspath(path)}.npy")
        arrays = [np.asarray(a, order="C") for a in arrays]
        with open(f"{os.fspath(path)}.npy", "wb") as fh:
            for a in (np.array([*key, _arrays_crc(arrays)], dtype=np.int64), *arrays):
                np.save(fh, a, allow_pickle=False)


def load_cache(path) -> list | None:
    """The arrays of ``<path>.npy`` if its key matches them and path's bytes, read
    in 64 KiB blocks (1 MiB blocks raised the benchmark's peak RSS on its scaled
    workload by up to 4 MiB); else None, and the caller parses path."""
    try:
        with open(f"{os.fspath(path)}.npy", "rb") as fh, open(path, "rb") as data:
            # every array up to the end of the file; read_array loads no pickles
            key, *arrays = [np.lib.format.read_array(fh) for _ in iter(fh.peek, b"")]
            if key.tolist() == [*digest(iter(lambda: data.read(1 << 16), b"")),
                                _arrays_crc(arrays)]:
                return arrays
    except Exception:  # numpy's header parser raises more than ValueError (TokenError)
        pass
    return None
