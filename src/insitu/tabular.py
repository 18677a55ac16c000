"""Shared tabular primitives: typed columns, CSV scanning, result sets.

Both query engines parse values with the same two-type rule (a column is
float64 when every value parses as a number, text otherwise) so that their
results compare exactly. Data files are plain comma-separated UTF-8 with a
header row, lines ending in LF or CRLF, and no embedded commas, quotes or
newlines in fields.
"""
from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError

NEWLINE = 0x0A
CR = 0x0D
COMMA = 0x2C

FLOAT_TYPE = "f64"
TEXT_TYPE = "txt"

# Per-entry bookkeeping overhead charged to cached text values.
TEXT_ENTRY_OVERHEAD = 8

COMPARATORS = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "=": operator.eq,
}


class Column:
    """One parsed column: a float64 array or a list of strings."""

    __slots__ = ("values", "type")

    def __init__(self, values):
        if isinstance(values, np.ndarray):
            self.values = values
            self.type = FLOAT_TYPE
        else:
            self.values = list(values)
            self.type = TEXT_TYPE

    @property
    def is_numeric(self) -> bool:
        return self.type == FLOAT_TYPE

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        if self.is_numeric:
            return 8 * len(self.values)
        return sum(len(v.encode("utf-8")) + TEXT_ENTRY_OVERHEAD for v in self.values)

    def take(self, indices) -> list:
        """Values at the given row indices, as plain Python objects."""
        if self.is_numeric:
            return self.values[indices].tolist()
        return [self.values[i] for i in indices]

    def gather(self, indices) -> Column:
        """Sub-column of the values at the given row indices."""
        if self.is_numeric:
            return Column(self.values[indices])
        return Column([self.values[i] for i in indices])

    def tolist(self) -> list:
        """Every value as a plain Python object."""
        return self.values.tolist() if self.is_numeric else self.values


def column_from_strings(raw: list[bytes]) -> Column:
    """Apply the float-or-text rule to one column of raw field bytes."""
    try:
        return Column(np.asarray(raw, dtype=np.float64))
    except ValueError:
        return Column([f.decode("utf-8") for f in raw])


def parse_field(raw: bytes):
    """Row-wise version of the float-or-text rule, for streaming scans.

    Assumes type-consistent columns, which the data generator guarantees;
    on a mixed column this can disagree with the whole-column rule.
    """
    try:
        return float(raw)
    except ValueError:
        return raw.decode("utf-8")


@dataclass
class CsvScan:
    """One pass over a data file: structure plus any requested columns."""

    path: str
    header: list[str]
    columns: dict[str, Column]
    row_offsets: np.ndarray  # byte offset of each data row start
    row_count: int
    file_bytes: int


def read_header(path) -> list[str]:
    with open(path, "rb") as f:
        line = f.readline()
    if not line:
        raise FormatError(f"{path}: empty file")
    return line.decode("utf-8").rstrip("\r\n").split(",")


def scan_csv(path, wanted=None) -> CsvScan:
    """Scan a CSV file in one pass, parsing only the wanted columns.

    `wanted` is a collection of header names (None parses every column,
    an empty collection parses none and just validates structure).
    Raises FormatError on ragged rows, naming the first bad data row.
    A line ends at its newline, less one "\\r" before it (CRLF files).
    """
    with open(path, "rb") as f:
        raw = f.read()
    if not raw:
        raise FormatError(f"{path}: empty file")
    file_bytes = len(raw)
    if not raw.endswith(b"\n"):
        raw += b"\n"

    arr = np.frombuffer(raw, dtype=np.uint8)
    newlines = np.flatnonzero(arr == NEWLINE)
    line_starts = np.concatenate(([0], newlines[:-1] + 1))
    # arr[-1] is a newline, so a newline at offset 0 looks back at no "\r".
    line_ends = newlines - (arr[newlines - 1] == CR)
    # Drop blank trailing lines (e.g. file ending in "\n\n"); keep the header.
    nlines = len(newlines)
    while nlines > 1 and line_starts[nlines - 1] == line_ends[nlines - 1]:
        nlines -= 1
    newlines, line_starts, line_ends = (
        newlines[:nlines], line_starts[:nlines], line_ends[:nlines]
    )

    header = raw[: line_ends[0]].decode("utf-8").split(",")
    ncols = len(header)
    row_offsets = line_starts[1:].astype(np.int64)
    row_count = len(row_offsets)

    # Ragged-row check: commas per line must equal ncols - 1 everywhere.
    commas = np.flatnonzero(arr == COMMA)
    counts = np.diff(np.searchsorted(commas, newlines), prepend=0)
    bad = np.flatnonzero(counts != ncols - 1)
    if len(bad):
        line_no = int(bad[0])
        found = int(counts[line_no]) + 1
        raise FormatError(
            f"{path}: data row {line_no} has {found} fields, expected {ncols}"
        )

    columns: dict[str, Column] = {}
    if wanted is None:
        wanted = header
    wanted = list(wanted)
    for name in wanted:
        if name not in header:
            raise FormatError(f"{path}: no column named {name!r}")
    if wanted and row_count:
        # Field (r, j) sits between consecutive delimiters in the flattened
        # comma/newline grid; slicing per wanted column avoids materializing
        # every field of the file.
        delims = np.flatnonzero((arr == COMMA) | (arr == NEWLINE))
        delims = delims[: (row_count + 1) * ncols]
        for name in wanted:
            j = header.index(name)
            starts = delims[ncols + j - 1 :: ncols] + 1
            ends = line_ends[1:] if j == ncols - 1 else delims[ncols + j :: ncols]
            n = min(len(starts), row_count)
            fields = [raw[s:e] for s, e in zip(starts[:n].tolist(), ends[:n].tolist())]
            columns[name] = column_from_strings(fields)
    elif wanted:
        for name in wanted:
            columns[name] = Column(np.empty(0, dtype=np.float64))

    return CsvScan(
        path=str(path),
        header=header,
        columns=columns,
        row_offsets=row_offsets,
        row_count=row_count,
        file_bytes=file_bytes,
    )


def predicate_mask(column: Column, op: str, literal) -> np.ndarray:
    """Boolean mask of rows passing `value op literal`.

    Numeric column with a non-numeric literal matches nothing; text column
    compares against the literal rendered as text. Both engines and the
    streaming scan share these rules.
    """
    cmp = COMPARATORS[op]
    if column.is_numeric:
        try:
            lit = float(literal)
        except (TypeError, ValueError):
            return np.zeros(len(column), dtype=bool)
        return cmp(column.values, lit)
    lit = _text_literal(literal)
    return np.fromiter((cmp(v, lit) for v in column.values), dtype=bool, count=len(column))


def filter_rows(qcols, predicates, nrows: int) -> np.ndarray:
    """Indices of the rows passing every predicate over `qcols`, keyed by
    qualified attribute name."""
    mask = np.ones(nrows, dtype=bool)
    for pred in predicates:
        mask &= predicate_mask(qcols[pred.attr], pred.op, pred.literal)
    return np.flatnonzero(mask)


def join_stage(inter, join, new_table, new_rows, qcols, match):
    """One left-deep join stage over row-index vectors.

    `inter` maps each joined table to its row index per intermediate tuple;
    `new_rows` are the candidate rows of `new_table`. `match(old, new)`, the
    engine's join kernel, compares two columns and returns the match count
    per `old` value plus the matched `new` positions, grouped by `old`
    value in order. Returns the next intermediate, in the same form.
    """
    new_prefix = new_table + "."
    if join.left.startswith(new_prefix) and not join.right.startswith(new_prefix):
        new_attr, old_attr = join.left, join.right
    else:
        old_attr, new_attr = join.left, join.right

    def old_values(attr):
        return qcols[attr].gather(inter[attr.split(".", 1)[0]])

    if new_attr.startswith(new_prefix):
        counts, positions = match(old_values(old_attr), qcols[new_attr].gather(new_rows))
        lefts = np.repeat(np.arange(len(counts)), counts)
        rights = new_rows[positions]
    else:
        # Degenerate condition not referencing the joined table: it acts as
        # a per-tuple filter crossed with every candidate new-table row.
        pairs = zip(old_values(old_attr).tolist(), old_values(new_attr).tolist())
        kept = np.flatnonzero(np.asarray([x == y for x, y in pairs], dtype=bool))
        lefts = np.repeat(kept, len(new_rows))
        rights = np.tile(new_rows, len(kept))
    nxt = {t: idx[lefts] for t, idx in inter.items()}
    nxt[new_table] = rights
    return nxt


def project(projections, qcols, rows_of) -> ResultSet:
    """Result rows of the projected attributes; `rows_of` maps each table
    to the row index of every output row."""
    taken = [qcols[a].take(rows_of[a.split(".", 1)[0]]) for a in projections]
    return ResultSet(columns=tuple(projections), rows=list(zip(*taken)))


def predicate_row_test(op: str, literal):
    """Per-value test matching predicate_mask, for streaming scans."""
    cmp = COMPARATORS[op]
    text_lit = _text_literal(literal)
    try:
        num_lit = float(literal)
    except (TypeError, ValueError):
        num_lit = None

    def test(raw: bytes) -> bool:
        try:
            v = float(raw)
        except ValueError:
            return cmp(raw.decode("utf-8"), text_lit)
        if num_lit is None:
            return False
        return cmp(v, num_lit)

    return test


def _text_literal(literal) -> str:
    if isinstance(literal, str):
        return literal
    return repr(float(literal))


@dataclass
class ResultSet:
    """Query output: named columns and materialized rows."""

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def multiset(self) -> Counter:
        return Counter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self, out) -> None:
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(format_value(v) for v in row) + "\n")


def format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


@dataclass
class ExecStats:
    """Per-query measurements shared by both engines."""

    duration_ms: float = 0.0
    bytes_read_from_disk: int = 0
    rows_scanned: int = 0
    cache_hit_columns: int = 0
    early_stop: bool = False
    peak_cache_bytes: int = 0


@dataclass
class LoadStats:
    """Per-load measurements for the columnar engine."""

    rows_loaded: int = 0
    input_bytes: int = 0
    binary_bytes: int = 0
    journal_bytes: int = 0
    duration_ms: float = 0.0

    @property
    def total_written(self) -> int:
        return self.binary_bytes + self.journal_bytes
