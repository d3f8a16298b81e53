"""The pipeline's one CSV reader and writer, with the csv module's excel-dialect behaviour,
the one cache codec of the files it and datagen write, and the one repeated-key kernel
(``equal_neighbours``).

Tables are parsed by ``csv.reader``, so that a message names the file, the line where
the row starts and the cause.  Number rows are written by an array kernel with the bytes
of repr and str (``number_rows``), which also gathers cells rendered once, as uint32
words, by row number (the ROC export's rates); other rows by one ``csv.writer`` call
per chunk.  The kernel renders each value as uint32 words and lays a chunk out as a
uint8 matrix in which each word position of a cell keeps only the bytes that some cell
of that chunk uses (``_slot``), so the one pass that drops NUL bytes scans few of them.

A cache, ``<file>.npy``, holds what parsing the file gives under a key of its bytes
(zlib: hashlib loads OpenSSL), taken by ``write_text`` as they are written; it is never
required and safe to delete.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import os
import zlib
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import DataError

_DTYPES = {int: np.int64, float: np.float64, str: object}
# cells turned into text at a time by write_table and by datagen's JSONL writer: bounds
# the arrays (170-225 bytes a cell) and the str cells of other tables held in memory.
# At 2**14 each uint64 temporary of a chunk takes at most 128 KiB, glibc's default mmap
# threshold; the JSONL write of wide's train split took 10 % more CPU at 2**13, and no
# less at 2**15, which holds twice the arrays
CHUNK_CELLS = 1 << 14
# number tables of fewer cells (sweep.csv's 44) go to csv.writer: 4 float64 columns of 44,
# 256 and 320 cells took it 31, 136 and 169 us, number_rows 127, 147 and 148 (AMD EPYC)
KERNEL_MIN_CELLS = 1 << 8


def read_table(path, what: str, schema) -> tuple[list[str], list]:
    """Read a CSV table with a header row; ``what`` names it in messages.

    ``schema(header)`` gives each column's type, str, int or float, and raises
    DataError on a bad header.  Returns the header and per column a list of
    str or an int64 / float64 array.
    """
    if not Path(path).is_file():
        raise DataError(f"{what} not found: {Path(path)}")
    cached = load_cache(path)  # [header, one (k, n) block per part]
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
        with open(path, newline="", encoding="utf-8") as fh:
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
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(f"{path}:{row_line(path, i)}: expected {len(header)} columns, "
                                f"got {len(row)}")
            try:
                for column, parse, cell in zip(values, parsers, row):
                    column.append(parse(cell))
            except ValueError as exc:
                raise DataError(f"{path}:{row_line(path, i)}: malformed row: {exc}") from exc
    except StopIteration:
        raise DataError(f"{what} {path} is empty") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return header, [v if t is str else np.array(v, _DTYPES[t]) for v, t in zip(values, types)]


def row_line(path, i: int) -> int:
    """The line where data row i (0 the row after the header) of a CSV file starts, as
    csv.reader counts lines: a quoted line break in an earlier row or the header moves it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, i + 1):
            pass
        return reader.line_num + 1


def equal_neighbours(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (first, second), first < second, of equal keys that one stable
    sort puts side by side.  A key is an entry of a 1-D array or a row of a 2-D one;
    keys are equal as np.array_equal says (-0.0 equals +0.0; a key holding NaN equals
    none).  The sort keeps each run of equal keys together in index order and pairs
    each key of a run after its first with the key before it.  So the pair with the
    least first is the first equal pair in row-major order, and the pair with the
    least second holds the first key that repeats an earlier one and its run's first.
    """
    rows = keys[:, None] if keys.ndim == 1 else keys  # reshape(0, -1) raises on no keys
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ranked = keys[order]
    equal = ranked[1:] == ranked[:-1]
    k = np.flatnonzero(equal if keys.ndim == 1 else equal.all(axis=1))
    return order[k], order[k + 1]


def write_table(path, header: list[str], parts, cache: bool = False) -> None:
    """Write a header and parts of equal length with the bytes of csv.writer.

    A part is a column, a list of str cells or a 1-D array; an (n, k) int64 or float64
    matrix, which stands for its k columns in order; or a pair (cells, index) of
    pre-rendered cells, which gives row r the text of cells[index[r]] (``number_rows``).
    A float's cell is the repr of its Python float, another number's its str, a list's
    or object array's its str cells; the file is UTF-8.  Tables of pairs, and of
    KERNEL_MIN_CELLS int64 and float64 cells or more, take ``number_rows``; others and
    the header csv.writer, once a chunk.  With ``cache``, also save ``<path>.npy``, the
    header and a (k, n) block per part, a matrix's transposed view or a column's one-row
    view, if the parse gives them back: int64 or float64 parts of a row or more without
    NaN, an ASCII header that numpy keeps (no trailing NUL).
    """
    rendered = all(isinstance(p, tuple) for p in parts)
    n = len(parts[0][1] if rendered else parts[0])
    columns = [c for p in parts
               for c in (p.T if isinstance(p, np.ndarray) and p.ndim == 2 else [p])]
    numbers = all(isinstance(p, np.ndarray) and p.dtype in (np.int64, np.float64) for p in parts)
    matrices = numbers and n and [p.reshape(n, -1) for p in parts]  # a column as (n, 1)
    blocks = cache and matrices and [m.T for m in matrices]
    if blocks and (not all(map(str.isascii, header)) or np.array(header).tolist() != header
                   or any(np.isnan(b).any() for b in blocks)):
        blocks = None
    if rendered or matrices and n * len(columns) >= KERNEL_MIN_CELLS:  # never quoted
        kernel = parts if rendered else matrices
        rows = number_rows([p for part in kernel for p in (part, ",")][:-1] + ["\r\n"], n)
    else:  # cells as Python objects, not numpy scalars: csv.writer writes a float's repr
        step = max(1, CHUNK_CELLS // len(columns))
        rows = (_csv_text(zip(*(c[i : i + step] if isinstance(c, list)
                                else c[i : i + step].tolist() for c in columns)))
                for i in range(0, n, step))
    write_text(path, chain([_csv_text([header])], rows),
               [np.array(header), *blocks] if blocks else None)


def write_text(path, blocks, arrays) -> None:
    """Write byte blocks to path.  Save ``arrays`` as ``<path>.npy`` under the key of
    the bytes, taken as they are written; with arrays None, remove any stale cache."""
    key = digest([])
    with open(path, "wb") as fh:
        for block in blocks:
            fh.write(block)
            if arrays is not None:
                key = digest([block], key)
    save_cache(path, key, arrays)


def _csv_text(rows) -> bytes:
    """csv.writer's UTF-8 bytes of rows."""
    csv.writer(text := io.StringIO()).writerows(rows)
    return text.getvalue().encode()


def number_rows(parts, n: int):
    """Yield the ASCII bytes of n rows, about CHUNK_CELLS cells at a time.

    Each part is one of:
    - a str with no NUL, the same on every row;
    - an (n, k) int64 or float64 array whose row gives k cells joined by ",": the str
      of each int and the repr of each float, from ``_cell_words``;
    - a pair (cells, index), one pre-rendered cell a row: ``cells`` is an (m, w) uint32
      array whose rows hold ASCII texts with no byte that needs quoting, NUL-padded to
      w words (NUL only as padding), and row r gets cells[index[r]], gathered by take.
    A chunk is a uint8 matrix with a row per text row, written without its NUL bytes:
    a str's bytes, a pair's gathered words, and for each cell of an array the byte slot
    of each of its word positions, then ",".  A slot holds the bytes of its word that
    some cell of the chunk uses (``_slot``), so "-", "." and a short whole part take a
    byte or two, not 4.
    """
    width = sum(1 if isinstance(p, tuple) else p.shape[1] for p in parts if not isinstance(p, str))
    step = max(1, CHUNK_CELLS // max(width, 1))
    for start in range(0, n, step):
        block, rows = slice(start, start + step), min(step, n - start)
        # a str's bytes, a pair's gathered rows of bytes, or an array's k and word slots
        pieces = [np.frombuffer(p.encode(), np.uint8) if isinstance(p, str)
                  else p[0].take(p[1][block], axis=0).view(np.uint8) if isinstance(p, tuple)
                  else (p.shape[1], [s for w in _cell_words(p[block].ravel()) if (s := _slot(w))
                                     is not None] if p.size else [])
                  for p in parts]
        sizes = [p.shape[-1] if isinstance(p, np.ndarray) else p[0] * (1 + sum(
            s.itemsize for s in p[1])) for p in pieces]
        out, at = np.zeros((rows, sum(sizes)), np.uint8), 0
        for piece, size in zip(pieces, sizes):
            if isinstance(piece, np.ndarray):
                out[:, at : at + size] = piece
            elif size:
                cells, offset = out[:, at : at + size].reshape(rows, piece[0], -1), 0
                for slot in piece[1]:
                    end = offset + slot.itemsize
                    cells[:, :, offset:end].view(slot.dtype)[..., 0] = slot.reshape(rows, -1)
                    offset = end
                cells[:, :-1, -1] = ord(",")
            at += size
        yield out.tobytes().translate(None, b"\0")


def _slot(word: np.ndarray):
    """A strided view of the bytes of a uint32 word row that some word uses: the one
    aligned 1, 2 or 4-byte unit of each word that holds them all; None if none does."""
    used = [i for i, byte in enumerate(np.bitwise_or.reduce(word).tobytes()) if byte]
    size = used and 1 << (used[0] ^ used[-1]).bit_length()  # a byte, a half or the word
    return word.view(f"u{size}")[used[0] // size :: 4 // size] if used else None


def text_words(texts) -> np.ndarray:
    """ASCII texts as an (m, w) uint32 matrix: row i holds texts[i]'s bytes, NUL-padded
    to w words, the fewest (at least one) that hold the longest text."""
    data = np.array(texts, dtype="S")
    return data.astype(f"S{-data.itemsize // 4 * -4}").view(np.uint32).reshape(len(data), -1)


@functools.cache  # built at the first call, not at import: about 1 ms
def _tables() -> tuple:
    """The 4-digit groups as words: with leading zeros, without them (0 as a last "0"),
    without trailing zeros (0 as no digit), then "0"; and Schubfach's g = floor(10**-k 2**s) + 1
    in [2**125, 2**126) for k in [-324, 292], as 32-bit limbs of g >> 63 and g mod 2**63,
    held in uint64 so that their products with uint64 run on numpy's same-dtype loops."""
    v, scale = np.arange(10**4, dtype=np.int16)[:, None], np.array([1000, 100, 10, 1], np.int16)
    digits = (v // scale % 10 + 48).astype(np.uint8)
    forms = np.stack([digits, digits * ((v >= scale) | (scale == 1)),
                      digits * (v % (scale * 10) != 0)])
    g = np.array([(10 ** max(-k, 0) << max(s, 0)) // (10 ** max(k, 0) << max(-s, 0)) + 1
                  for k in range(-324, 293) for s in [125 - (-k * 913124641741 >> 38)]])
    limbs = [g >> 63 & 0xFFFFFFFF, g >> 95, g & 0xFFFFFFFF, g >> 32 & 0x7FFFFFFF]
    return np.append(forms.view(np.uint32).ravel(), text_words(["0"])), np.array(limbs, np.uint64)


_LEAD, _TRAIL = np.uint64(10**4), 2 * 10**4  # offsets into the groups, then "0" at 3 10**4
# "0" * z + str(d) at 10 z + d for z < 4, then no text: what a value below 1 shows after "0."
_FRONT = text_words(["0" * (i // 10) + str(i % 10) for i in range(40)] + [""]).ravel()
_EXP = text_words([f"e{e:+03d}" for e in range(-330, 331)])
_DOT, _MINUS = text_words([".", "-"]).ravel()
_P10 = np.array([10**i for i in range(20)], dtype=np.uint64)


def _shortest(bits):
    """(f, k): the positive normal float64s of ``bits`` are f 10**k rounded, f the
    fewest digits that round back, the closest on a tie, scaled by trailing zeros to
    16 or 17 digits.  Schubfach (R. Giulietti, "The Schubfach way to render doubles",
    2020) as in OpenJDK's DoubleToDecimal; it picks between candidates by arithmetic
    on masks, as np.where and masked ufuncs branch on each element."""
    q, c = (bits >> 52).view(np.int64) - 1075, bits & 2**52 - 1 | 2**52
    irregular = (c == 2**52) & (q != -1074)  # 2**q sits closer to its lower neighbour
    k = q * 661971961083 - irregular * 274743187321 >> 41  # floor(log10(2**q or 3/4 2**q))
    h = (q + (k * -913124641741 >> 38) + 2).view(np.uint64)
    index = k + 324
    g = [limb.take(index) for limb in _tables()[1]]
    g1, odd, scratch = g[1] << 32 | g[0], c & 1, np.empty_like(c)
    c <<= 2
    def round_odd(cp):  # OpenJDK's rop, g cp 2**-127 rounded to odd, from 32-bit limbs
        cp <<= h
        z, b0 = g1 * cp, cp & 0xFFFFFFFF
        cp >>= 32
        y1, x1 = _high(*g[:2], b0, cp, scratch), _high(*g[2:], b0, cp, scratch)
        z >>= 1
        z += x1
        y1 += np.right_shift(z, 63, out=x1)
        z <<= 1  # the low 63 bits of z, nonzero or not
        y1 |= np.minimum(z, 1, out=z)
        return y1
    vbl, vbr = round_odd(c - 2 + irregular) + odd, round_odd(c + 2) - odd
    vb = round_odd(c)
    up = (vb & 7 == 3) | (vb & 7 >= 6)  # vb above 4 s + 2, or at it with s odd
    s = np.right_shift(vb, 2, out=vb)
    s10 = s // 10 * 10  # one digit fewer: s10 or s10 + 10, if exactly one is in the interval
    lo10, hi10 = vbl <= s10 << 2, s10 + 10 << 2 <= vbr
    lo, hi = vbl <= s << 2, s + 1 << 2 <= vbr
    s += hi & ~lo | up & (lo == hi)  # s + 1 alone in the interval, or both or neither and up
    s += (s10 - s + hi10 * np.uint64(10)) * (lo10 != hi10)
    return s, k


def _high(a0, a1, b0, b1, scratch):
    """(a1 2**32 + a0)(b1 2**32 + b0) >> 64, summed in place, each product in ``scratch``.
    In Schubfach the a's are below 2**32 (a1 below 2**31) and b1 2**32 + b0 below 2**60:
    no sum passes 2**64."""
    t = a0 * b0
    t >>= 32
    t += np.multiply(a0, b1, out=scratch)
    t += np.multiply(a1, b0, out=scratch)
    t >>= 32
    t += np.multiply(a1, b1, out=scratch)
    return t


def _cell_words(a: np.ndarray) -> list:
    """The str of each int64 or the repr of each float64 of a 1-D array, as rows of
    uint32 words, a row per word position that some value uses, NUL as padding."""
    group, bits = _tables()[0], a.view(np.uint64)
    if a.dtype.kind == "i":
        return _integer_words(np.where(a < 0, 0 - bits, bits), a < 0, group)
    zero, normal = bits << 1 == 0, np.isfinite(a) & (np.abs(a) >= np.finfo(float).tiny)
    f, k = _shortest(np.where(normal, bits & 2**63 - 1, 1 << 62))  # 2.0 where repr writes
    np.copyto(f, 0, where=zero)  # then "0.0", as 2.0's point is 1
    n = 17 - (f < 10**16)  # digits in f: 16 or 17
    point = k + n  # digits before the "."
    exponent = (point > 16) | (point < -3)
    np.copyto(point, 1, where=exponent)
    below1 = point < 1  # "0.", then _FRONT's zeros and first digit, then the other digits
    unit = _P10.take(after := n - np.maximum(point, 1))  # f's digits after the "."
    whole = f // unit
    f -= np.multiply(whole, unit, out=unit)
    fraction = (f * _P10.take(16 - after)).view(np.int64)  # 16 digits, left-aligned
    blank = fraction == 0
    front = [_FRONT.take(np.maximum(np.minimum(whole, 9).view(np.int64) - 10 * point, -1))
             ] if below1.any() else []  # at 10 z + d, the first digit d after z zeros; else ""
    whole *= ~below1
    words = _integer_words(whole, bits >> 63 == 1, group) + [_DOT * ~(exponent & blank), *front]
    high, low, tail = fraction // 10**8, np.ones(a.shape, bool), []
    for half in (fraction - high * 10**8, high):
        top = half // 10**4
        for digits in (half - top * 10**4, top):
            digits += low * _TRAIL  # no trailing zeros while each lower digit is 0
            low &= digits == _TRAIL
            tail.append(digits)
    tail[-1] += (blank & ~exponent & ~below1) * 10**4  # the "0" of "1.0"
    words += [group.take(t) for t in tail[::-1]]
    if (scientific := np.flatnonzero(exponent)).size:
        words += list(np.zeros((2, a.size), np.uint32))
        words[-2][scientific], words[-1][scientific] = _EXP[k[scientific] + n[scientific] + 329].T
    if (fallback := np.flatnonzero(~normal & ~zero)).size:  # subnormal, inf and nan: repr
        texts = [repr(v).ljust(4 * len(words), "\0") for v in a[fallback].tolist()]
        for word, column in zip(words, text_words(texts).T):
            word[fallback] = column
    return words


def _integer_words(u, negative, group) -> list:
    """Rows of 4-digit words of each uint64 u, after "-" where ``negative``: whole words
    below u's top digit, its word right-aligned ("0" for 0), none above."""
    words, rest = [], u
    for j in range(4, len(str(int(u.max()))), 4):  # each word below the top one
        words.append(rest % 10**4 + _LEAD * (u < 10**j))  # the top digit's word: no leading 0
        rest = rest // 10**4
    words.append(rest + _LEAD)
    for j, index in enumerate(words[1:], 1):
        index += _LEAD * (u < 10 ** (4 * j))  # above the top digit: the trailing form of 0
    return [negative * _MINUS] * bool(negative.any()) + [
        group.take(index.view(np.intp)) for index in words[::-1]]


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
