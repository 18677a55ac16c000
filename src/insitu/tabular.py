"""Shared tabular primitives: typed columns, CSV scanning, result sets.

Both query engines, the LIMIT path and the plan slicer split lines with
one tokenizer, in two steps: `split_lines` finds every line and field end
and returns them as a compact positional map (`RowMap`, as in NoDB), and
`cut_fields` copies the wanted fields out of the map. A scan always
returns the map it cut from; the in-situ engine keeps it per file and
hands it back to `scan_csv`, which then skips `split_lines`. The engines
type values with one rule: a column is float64 when every value read
parses as a number, text otherwise. So cold, hot and LIMIT scans and the
two engines compare exactly, with one known divergence: a LIMIT scan that
stops early types each column over the rows it read, so a column whose
first text value lies past those bytes comes back numeric. Data files are
plain comma-separated UTF-8 with a header row, lines ending in LF or CRLF,
and no embedded commas, quotes or newlines in fields.
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


@dataclass
class CsvScan:
    """One pass over a data file: its positional map plus any requested
    columns."""

    header: list[str]
    columns: dict[str, Column]
    row_count: int
    file_bytes: int
    rowmap: RowMap  # the map the columns were cut from


class RowMap:
    """Positional map of a data file (as in NoDB): where its fields lie;
    the one form in which the tokenizer describes a file's structure.

    `line_starts[r]` is the offset of data line r in the bytes the map was
    built from (a whole file, or a LIMIT scan's chunk), and `ends[r, j]`
    the end of its field j counted from that start; the last field ends at
    the line end, before any "\\r". Each array has the narrowest unsigned
    dtype that holds its values, so a file whose lines are all shorter than
    256 bytes costs one byte per field plus one offset per line. The number
    of lines is the file's row count. A map describes the bytes it was
    built from and nothing else: whoever keeps one must drop it when the
    file changes.
    """

    __slots__ = ("line_starts", "ends")

    def __init__(self, line_starts: np.ndarray, grid: np.ndarray, buf_len: int):
        """Narrow `split_lines`' line starts and absolute field-end grid of a
        buffer of `buf_len` bytes."""
        self.line_starts = line_starts.astype(np.min_scalar_type(buf_len))
        widest = int((grid[:, -1] - line_starts).max(initial=0))
        self.ends = np.subtract(
            grid, line_starts[:, None], out=np.empty(grid.shape, np.min_scalar_type(widest)),
            casting="unsafe",
        )

    def __len__(self) -> int:
        return len(self.line_starts)

    @property
    def nbytes(self) -> int:
        return self.line_starts.nbytes + self.ends.nbytes

    def bounds(self, j):
        """Start and end offsets of field j on every line."""
        base = self.line_starts
        return (base + self.ends[:, j - 1] + 1 if j else base), base + self.ends[:, j]


def read_header(path) -> list[str]:
    with open(path, "rb") as f:
        line = f.readline()
    if not line:
        raise FormatError(f"{path}: empty file")
    return _header_names(line.removesuffix(b"\n"), path)


def _header_names(line: bytes, path) -> list[str]:
    """Column names of a header line without its newline; one "\\r" before
    the newline goes with it, as for data lines. A repeated name is a
    FormatError: a query could reach only the first of its columns."""
    names = line.removesuffix(b"\r").decode("utf-8").split(",")
    if len(set(names)) < len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise FormatError(f"{path}: header repeats the column name {dup!r}")
    return names


def read_csv(path, wanted=None):
    """Read a data file whole and check its header; the prelude of
    `scan_csv` and of the plan slicer.

    Returns the file bytes (a final newline added when missing), the file
    size, the header names, the wanted names (every column for None) and
    the offset of the first data line. Raises FormatError on an empty file,
    a repeated header name or a wanted name missing from the header.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if not raw:
        raise FormatError(f"{path}: empty file")
    file_bytes = len(raw)
    if not raw.endswith(b"\n"):
        raw += b"\n"
    nl = raw.find(b"\n")
    header = _header_names(raw[:nl], path)
    wanted = header if wanted is None else list(wanted)
    for name in wanted:
        if name not in header:
            raise FormatError(f"{path}: no column named {name!r}")
    return raw, file_bytes, header, wanted, nl + 1


def scan_csv(path, wanted=None, rowmap: RowMap | None = None) -> CsvScan:
    """Scan a CSV file in one pass, parsing only the wanted columns.

    `wanted` is a collection of header names (None parses every column,
    an empty collection parses none and just validates structure).
    Raises FormatError on ragged rows, naming the first bad data row.

    `rowmap` is the positional map of an earlier scan of the same, unchanged
    file: the fields are cut straight from it, skipping `split_lines`.
    Either way the file is read whole, the result is the same and
    `CsvScan.rowmap` holds the map the fields were cut from.
    """
    raw, file_bytes, header, wanted, start = read_csv(path, wanted)
    if rowmap is None:
        rowmap, _ = split_lines(raw, start, len(header), path)
    fields = cut_fields(raw, rowmap, [header.index(n) for n in wanted])
    return CsvScan(
        header=header,
        columns={name: column_from_strings(f) for name, f in zip(wanted, fields)},
        row_count=len(rowmap),
        file_bytes=file_bytes,
        rowmap=rowmap,
    )


def split_lines(buf: bytes, start: int, ncols: int, path, first_row: int = 1):
    """Structure step of the tokenizer: find every data line of `buf` from
    offset `start` and the end of each of its fields.

    A line ends at its newline, less one "\\r" before it (CRLF files); bytes
    after the last newline belong to no line. Blank lines at the end are
    not rows; a blank line before a data line is a one-field row. Raises
    FormatError on the first row whose field count is not `ncols`,
    numbering rows from `first_row`. Returns the lines' positional map
    (offsets into `buf`) and the offset just past each row's newline.
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    body = arr[start:]
    # Field (r, j) sits between consecutive delimiters in the flattened
    # comma/newline grid; a line's comma count is its delimiter count less one.
    delims = np.flatnonzero((body == COMMA) | (body == NEWLINE))
    nl_at = np.flatnonzero(body[delims] == NEWLINE)
    delims += start
    newlines = delims[nl_at]
    line_starts = np.concatenate(([start], newlines + 1))[:-1]
    line_ends = newlines - ((newlines > line_starts) & (arr[newlines - 1] == CR))
    filled = np.flatnonzero(line_starts != line_ends)
    nrows = int(filled[-1]) + 1 if len(filled) else 0

    commas = np.diff(nl_at[:nrows], prepend=-1) - 1
    bad = np.flatnonzero(commas != ncols - 1)
    if len(bad):
        row = int(bad[0])
        raise FormatError(
            f"{path}: data row {first_row + row} has {int(commas[row]) + 1} fields, "
            f"expected {ncols}"
        )

    grid = delims[: nrows * ncols].reshape(nrows, ncols)
    grid[:, -1] = line_ends[:nrows]  # the newline, less its "\r"
    return RowMap(line_starts[:nrows], grid, len(buf)), newlines[:nrows] + 1


def cut_fields(buf: bytes, rowmap: RowMap, wanted):
    """Cut step of the tokenizer: the raw field bytes of the wanted column
    indices, cut from the positional map of `buf`, one column at a time so
    that a caller can type each before the next exists."""
    for j in wanted:
        starts, ends = rowmap.bounds(j)
        yield [buf[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


def predicate_mask(column: Column, op: str, literal) -> np.ndarray:
    """Boolean mask of rows passing `value op literal`.

    Numeric column with a non-numeric literal matches nothing; text column
    compares against the literal rendered as text. Both engines share
    these rules.
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


@dataclass
class ExecStats:
    """Per-query measurements shared by both engines."""

    duration_ms: float = 0.0
    bytes_read_from_disk: int = 0
    rows_scanned: int = 0
    cache_hit_columns: int = 0
    early_stop: bool = False
    peak_cache_bytes: int = 0
    structure_scans: int = 0  # files this query tokenized for structure
    rowmap_bytes: int = 0  # positional map bytes the engine holds afterwards


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
