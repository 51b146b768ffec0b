"""CSV ingestion and emission for the command-line harness.

Conventions: comma separation, `NA` (or an empty field) for missing
values, an optional header row that is auto-detected (a first row with
no numeric field and some field that is not a missing marker). Files
are read as UTF-8; a leading byte-order mark is dropped. All numeric output is
written with shortest round-trip precision: the printed string parses
back to the exact same double. ``format_value`` is the reference for every
printed value; rows that ``orjson`` prints exactly as it would are
formatted by ``orjson``, about eight times faster.
"""
from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np
import orjson

from .eigenmodel import MISSING, SymmetricBinaryNetwork
from .errors import ParseError

MISSING_TOKENS = {"", "NA"}

# The bytes of a file that ``read_matrix`` hands to ``orjson`` as one JSON
# array of rows. On this alphabet a JSON number is a field that ``float``
# accepts, with the same value, and any other field, a blank or ragged row
# or a trailing comma is not valid JSON. The exception is the integer -0,
# which JSON reads as +0: a file where "-0" is followed by no point, digit
# or exponent (``NEGATIVE_ZERO``, which also finds an exponent "e-0") takes
# the full parser. Checked on orjson 3.8.3 only; before another release is
# accepted, test_cli.py::TestParsers::test_orjson_reads_hard_tokens_bit_for_bit
# must pass with it.
FAST_PATH_BYTES = b"0123456789+-.eE,\r\n \t"
NEGATIVE_ZERO = re.compile(rb"-0(?![.eE0-9])")

# The magnitudes on which ``orjson`` prints a double exactly as ``repr``
# does: the same shortest round-trip digits, in positional notation. Below
# the range repr switches to exponent notation and orjson does not
# ("9.99e-05" against "0.0000999"); from its top on both use exponents,
# written differently ("1e+16" against "1e16"). Zero of either sign prints
# alike; orjson writes NaN and the infinities as null. This was checked
# on orjson 3.8.3 only; before another orjson release is accepted,
# tests/test_cli.py::test_writers_match_format_value_byte_for_byte must
# pass with it.
ORJSON_RANGE = (1e-4, 1e16)


def format_value(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return "NA"
    return repr(x)


def _to_float(tok: str):
    """The value of a field: a float, NaN for a missing marker, None for
    anything else. ``float`` strips surrounding whitespace and reads
    ``nan`` and ``NaN`` itself, so the markers are looked up only for the
    fields it refuses."""
    try:
        return float(tok)
    except ValueError:
        return np.nan if tok.strip() in MISSING_TOKENS else None


def _read_rows(path) -> list[tuple[int, list[str]]]:
    """All non-blank CSV rows with their 1-based line numbers."""
    path = Path(path)
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if row and any(f.strip() for f in row):
                    rows.append((lineno, row))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: the file is not UTF-8 text") from exc
    if not rows:
        raise ParseError(f"{path}: file contains no data")
    return rows


def _split_header(rows):
    """Detect and strip a header row, returned as its line number and its
    stripped fields, or None: a first row with no numeric field
    and at least one field that is not a missing marker either. A first
    row with a number in it is data, so a malformed field there fails with
    its line number instead of taking the row away as a header."""
    lineno, first = rows[0]
    vals = [_to_float(tok) for tok in first]
    if None in vals and all(v is None or v != v for v in vals):
        return (lineno, [tok.strip() for tok in first]), rows[1:]
    return None, rows


def _read_table(path, fault):
    """Header row (its line number and fields, or None) and float table of
    a CSV file, NA/empty as NaN.

    Each data row is parsed field by field with ``_to_float`` (None for a
    non-numeric field), then handed to the per-row cell check
    `fault(r, row, vals)`, which returns None or the message naming the
    first bad field of data row r; it may overwrite cells it ignores.
    Every ParseError carries the file line number.
    """
    path = Path(path)
    header, rows = _split_header(_read_rows(path))
    if not rows:
        raise ParseError(f"{path}: no data rows after header")
    width = len(rows[0][1])
    table = np.empty((len(rows), width))
    for r, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} fields, found {len(row)}")
        vals = [_to_float(tok) for tok in row]
        message = fault(r, row, vals)
        if message is not None:
            raise ParseError(f"{path}:{lineno}: {message}")
        table[r] = vals
    return header, table


def _numeric_fault(r: int, row: list[str], vals: list) -> str | None:
    if None in vals:
        c = vals.index(None)
        return f"field {c + 1} is not numeric: {row[c].strip()!r}"
    return None


def _binary_fault(what: str, skip_diagonal: bool = False):
    """Cell check for 0/1/NA tables. With skip_diagonal, cell (r, r) is
    set missing without validation (the adjacency diagonal is undefined and
    ignored whatever it holds)."""
    def fault(r: int, row: list[str], vals: list) -> str | None:
        if skip_diagonal and r < len(vals):
            vals[r] = np.nan
        for c, val in enumerate(vals):
            if val is None or (val == val and val not in (0.0, 1.0)):
                return (f"{what} entry at field {c + 1} must be 0, 1 or NA, "
                        f"got {row[c].strip()!r}")
        return None
    return fault


def read_matrix(path) -> np.ndarray:
    """Float matrix; NA/empty becomes NaN. Raises ParseError with the file
    line number for ragged or non-numeric rows.

    A file of plain numbers (only ``FAST_PATH_BYTES``, no integer -0) is
    read by ``orjson``, about three and a half times as fast; any file it
    refuses, or whose rows are ragged or empty, goes to the full parser,
    which gives the same array or the ParseError with its line number.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.translate(None, FAST_PATH_BYTES) and not NEGATIVE_ZERO.search(raw):
        try:
            table = np.array(orjson.loads(b"[[" + b"],[".join(raw.splitlines()) + b"]]"),
                             dtype=np.float64)
        except ValueError:
            pass
        else:
            if table.size:
                return table
    return _read_table(path, _numeric_fault)[1]


def parse_adjacency(path) -> SymmetricBinaryNetwork:
    """Validated n x n symmetric binary network; the diagonal is ignored."""
    path = Path(path)
    _, table = _read_table(path, _binary_fault("adjacency", skip_diagonal=True))
    if table.shape[0] != table.shape[1]:
        raise ParseError(
            f"{path}: adjacency must be square, got {table.shape[0]}x{table.shape[1]}")
    return SymmetricBinaryNetwork(np.where(np.isnan(table), MISSING, table))


def parse_covariates(path, n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Column names and node covariate table (0/1/NA), checked to have one
    row per node of an n-node network. Without a header the names are
    x1, x2, ..."""
    path = Path(path)
    header, table = _read_table(path, _binary_fault("covariate"))
    if table.shape[0] != n:
        raise ParseError(
            f"{path}: covariate table has {table.shape[0]} rows, network has {n} nodes")
    if header is None:
        return tuple(f"x{k + 1}" for k in range(table.shape[1])), table
    lineno, names = header
    if len(names) != table.shape[1]:
        raise ParseError(f"{path}:{lineno}: the header has {len(names)} names, "
                         f"the rows {table.shape[1]} fields")
    return tuple(names), table


def _format_rows(mat: np.ndarray):
    """``",".join(format_value(v) for v in row)`` for each row of `mat`, in
    order, one row string at a time: ``tolist`` hands out Python ints and
    floats, whose ``repr`` is what ``format_value`` prints, and NaN is the
    one value unequal to itself.

    A float64 row whose every entry is 0 or of magnitude in
    ``ORJSON_RANGE`` (so no NaN or inf) is printed by ``orjson`` instead,
    which gives the same bytes. The rows that qualify are found in one
    pass over the whole matrix, not row by row, so a narrow trace pays no
    NumPy call per row. orjson is handed the list, not the array: its
    NumPy serializer refuses a row that is not C-contiguous."""
    exact = [False] * len(mat)
    if mat.dtype == np.float64:
        size = np.abs(mat)
        lo, hi = ORJSON_RANGE
        exact = ((size < hi) & ((size >= lo) | (size == 0.0))).all(axis=1).tolist()
    for row, fast in zip(mat, exact):
        values = row.tolist()
        if fast:
            yield orjson.dumps(values)[1:-1].decode()
        else:
            yield ",".join("NA" if v != v else repr(v) for v in values)


def _create(path):
    """`path` opened for writing, its directory made first: an output
    directory comes into being with its first file, so a run rejected
    before it writes anything leaves no directory behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def write_matrix(path, mat, header: list[str] | None = None) -> None:
    mat = np.atleast_2d(np.asarray(mat))
    with _create(path) as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for line in _format_rows(mat):
            fh.write(line + "\n")


def write_trace(path, colnames: list[str], iterations, columns) -> None:
    """Trace file: header `iter,<colnames...>`, one row per saved state."""
    columns = np.atleast_2d(np.asarray(columns))
    with _create(path) as fh:
        fh.write(",".join(["iter"] + list(colnames)) + "\n")
        for it, line in zip(iterations, _format_rows(columns)):
            fh.write(f"{int(it)},{line}\n")


def write_summary(path, rows) -> None:
    """Summary file: header `quantity,value`, one row per (name, value)."""
    with _create(path) as fh:
        fh.write("quantity,value\n")
        for name, value in rows:
            fh.write(f"{name},{format_value(value)}\n")


def write_manifest(path, payload: dict) -> None:
    with _create(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
