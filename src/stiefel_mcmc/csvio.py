"""CSV ingestion and emission for the command-line harness.

Conventions: comma separation, `NA` (or an empty field) for missing
values, an optional header row that is auto-detected (a first row with
no numeric field and some field that is not a missing marker). Files
are read as UTF-8; a leading byte-order mark is dropped. All numeric output is
written with shortest round-trip precision: the printed string parses
back to the exact same double.
"""
from __future__ import annotations

import csv
import io
import json
import warnings
from pathlib import Path

import numpy as np

from .eigenmodel import NodeCovariates, SymmetricBinaryNetwork
from .errors import ParseError

MISSING_TOKENS = {"", "NA", "NaN", "nan"}

# The bytes of a file that ``read_matrix`` hands to ``np.loadtxt``. On
# this alphabet loadtxt accepts exactly the fields that ``float`` accepts,
# with the same values; outside it they differ (loadtxt strips the
# separators \x1c-\x1f as whitespace, float reads "1_000"), so any other
# byte takes the full parser.
FAST_PATH_BYTES = b"0123456789+-.eE,\r\n \tinfatyINFATY"


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
    """Detect and strip a header row: a first row with no numeric field
    and at least one field that is not a missing marker either. A first
    row with a number in it is data, so a malformed field there fails with
    its line number instead of taking the row away as a header."""
    first = rows[0][1]
    vals = [_to_float(tok) for tok in first]
    if None in vals and all(v is None or v != v for v in vals):
        return [tok.strip() for tok in first], rows[1:]
    return None, rows


def _read_table(path, fault):
    """Header (or None) and float table of a CSV file, NA/empty as NaN.

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

    A file of plain numbers (only ``FAST_PATH_BYTES``) is read by
    ``np.loadtxt``, about twice as fast; any file it refuses or finds
    empty goes to the full parser, which gives the same array or the
    ParseError with its line number.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.translate(None, FAST_PATH_BYTES):
        try:
            with warnings.catch_warnings():
                # loadtxt warns on a file without data; the full parser
                # raises a ParseError for it below
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(io.StringIO(raw.decode("ascii")), delimiter=",",
                                   comments=None, ndmin=2)
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
    return SymmetricBinaryNetwork.from_dense(table)


def parse_covariates(path, n: int | None = None) -> NodeCovariates:
    """Node covariate table (0/1/NA), optionally checked against n rows."""
    path = Path(path)
    header, table = _read_table(path, _binary_fault("covariate"))
    if n is not None and table.shape[0] != n:
        raise ParseError(
            f"{path}: covariate table has {table.shape[0]} rows, network has {n} nodes")
    names = tuple(header) if header else ()
    return NodeCovariates(table=table, names=names)


def _format_row(row: np.ndarray) -> str:
    """``",".join(format_value(v) for v in row)`` in one pass: ``tolist``
    hands out Python ints and floats, whose ``repr`` is what
    ``format_value`` prints, and NaN is the one value unequal to itself."""
    return ",".join("NA" if v != v else repr(v) for v in row.tolist())


def write_matrix(path, mat, header: list[str] | None = None) -> None:
    mat = np.atleast_2d(np.asarray(mat))
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in mat:
            fh.write(_format_row(row) + "\n")


def write_trace(path, colnames: list[str], iterations, columns) -> None:
    """Trace file: header `iter,<colnames...>`, one row per saved state."""
    columns = np.atleast_2d(np.asarray(columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["iter"] + list(colnames)) + "\n")
        for it, row in zip(iterations, columns):
            fh.write(f"{int(it)},{_format_row(row)}\n")


def write_manifest(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
