"""Shared tabular primitives: typed columns, CSV scanning, result sets.

Both query engines, the LIMIT path, loads and the plan slicer split lines
with one tokenizer. `split_lines` finds every line and field end and
returns them as a compact positional map (`RowMap`, as in NoDB), stamped
with the file's (size, mtime_ns). It walks the buffer in line-aligned
windows (`LineSplit`, as Instant Loading tokenizes a chunk at a time),
keeps only each window's narrow line starts and field ends and joins them
once, so no temporary is sized by the file; the LIMIT path extends one
`LineSplit` by the lines each of its reads completes, so it splits each
byte once. A scan always returns the map it worked from; the in-situ
engine keeps it per file and hands it back to `scan_csv`, which skips
`split_lines` while the file still has the map's stamp.

Only the in-situ engine reads whole files (`read_csv`, for the maps it
keeps). Loads and the plan slicer read a file once, a window at a time
(`CsvReader`): each window comes with its own map, cut and dropped before
the next is read, and one `LineSplit` carries on across the windows, so
errors name the file's rows.

Values are typed by one rule: a column is float64 when every value read
parses as a number (`np.asarray(fields, np.float64)` on the field bytes),
text otherwise. `scan_csv` applies it with `cut_column`, straight from the
map: a field of the plain form `[+-]digits[.digits]` with at most 15
bytes after the sign is parsed by an array kernel, exactly (its digits
read as an integer below 2**53, divided by a power of ten that float64
holds exactly: one correctly rounded division). Every other field goes
through the rule itself, and a column is text exactly when the rule
raises on one of them; a first field that is not a number makes it text
before any parsing, and a block of rows mostly outside the plain form
(17-digit float reprs, say) sends the rest of its column to the rule
without the kernel. `cut_column` is the one step that types a column read
from a file: whole files for scans, each window for loads (which append
the pieces), and a file's prefix (header included, so map offsets are
file offsets) for the LIMIT path. The db load's check that a text column
was text from its first rows applies the rule word by word with
`column_from_strings`, the rule on a list. The plan slicer types nothing:
`cut_rows` copies a block of rows' kept fields, each with the delimiter
after it, out of the buffer with one gather, so a slice holds the field
bytes verbatim, in source column order, with LF line ends. So cold, hot and LIMIT scans and the two
engines compare exactly, with one known divergence: a LIMIT scan that
stops early types each column over the prefix it read, so a column whose
first text value lies past those bytes comes back numeric. Data files
are plain comma-separated UTF-8 with a header row, lines ending in LF or
CRLF, and no embedded commas, quotes or newlines in fields; a header or
a text field read that is not UTF-8 is a FormatError naming the file.

A text column is dictionary-coded: int32 codes into the sorted list of
its distinct strings. `cut_column` codes the fields as it reads them,
keyed on their bytes, and decodes each distinct field once.

The operator layer both engines share works on row-index vectors:
`filter_rows` masks (a text predicate places its literal among the
sorted words by binary search and compares codes), `join_stage` pairs
rows with equal `join_keys` (text as codes of one dictionary) through the
engine's join kernel, and `project` gathers each projected column with
one fancy index (`Column.take`; text stays coded).
A `ResultSet` holds those gathered columns; it builds row tuples, and
decodes text, only when `rows` or `multiset` is read, as late
materialization does in a column store.
"""
from __future__ import annotations

import bisect
import operator
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

NEWLINE = 0x0A
CR = 0x0D
COMMA = 0x2C

FLOAT_TYPE = "f64"
TEXT_TYPE = "txt"

# Bookkeeping overhead charged per distinct word of a cached text column.
TEXT_ENTRY_OVERHEAD = 8

COMPARATORS = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "=": operator.eq,
}

# A text predicate other than "=" compares each code with the literal's
# insertion point among the sorted words, left or right of a word equal
# to it: `<` keeps the codes of the words before it, and so on.
_CODE_BOUNDS = {
    "<": (bisect.bisect_left, operator.lt),
    "<=": (bisect.bisect_right, operator.lt),
    ">": (bisect.bisect_right, operator.ge),
    ">=": (bisect.bisect_left, operator.ge),
}


class Column:
    """One parsed column. Numeric: `values` is a float64 array and `words`
    is None. Text: the column is dictionary-coded (as in Abadi et al.,
    "Integrating Compression and Execution in Column-Oriented Database
    Systems", 2006); `words` is the sorted list of its distinct strings and
    `values` an int32 array of codes into it, so row r holds
    `words[values[r]]`. Codes order as their strings do, so text predicates
    compare codes (`predicate_mask`).

    `Column(array)` is numeric, `Column(codes, words)` text, and
    `Column(strings)` codes a sequence of str."""

    __slots__ = ("values", "words")

    def __init__(self, values, words=None):
        if words is None and not isinstance(values, np.ndarray):
            values, words = _dictionary([[v.encode("utf-8") for v in values]])
        self.values = values
        self.words = words

    @property
    def type(self) -> str:
        return FLOAT_TYPE if self.words is None else TEXT_TYPE

    @property
    def is_numeric(self) -> bool:
        return self.words is None

    def __len__(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        """Bytes charged to a cache, what the column holds: its values (8 per
        number, 4 per text code) and, per distinct text word, its UTF-8
        length plus `TEXT_ENTRY_OVERHEAD`."""
        if self.is_numeric:
            return self.values.nbytes
        return self.values.nbytes + sum(
            len(w.encode("utf-8")) + TEXT_ENTRY_OVERHEAD for w in self.words
        )

    def take(self, indices) -> Column:
        """Sub-column of the values at the given row indices; a text column
        gathers codes and shares its words."""
        return Column(self.values[indices], self.words)

    def tolist(self) -> list:
        """Every value as a plain Python object."""
        if self.is_numeric:
            return self.values.tolist()
        return np.array(self.words, dtype=object)[self.values].tolist()


def _dictionary(blocks):
    """Dictionary coding of field bytes, given in row order as an iterable
    of lists: int32 codes into the sorted list of the distinct fields,
    decoded, and that list. Each distinct field is decoded once, in order
    of first appearance, so the UnicodeDecodeError raised is that of the
    first field in row order that is not UTF-8."""
    index: dict[bytes, int] = {}
    codes = []
    for fields in blocks:
        for f in dict.fromkeys(fields):
            index.setdefault(f, len(index))
        codes.append(np.fromiter(map(index.__getitem__, fields), np.int32, count=len(fields)))
    first = np.concatenate(codes) if codes else np.empty(0, dtype=np.int32)
    distinct = [f.decode("utf-8") for f in index]
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return rank[first], [distinct[i] for i in order]


def text_column(blocks) -> Column:
    """Text column of field bytes given in row order as an iterable of
    lists (see `_dictionary`)."""
    return Column(*_dictionary(blocks))


def column_from_strings(raw: list[bytes]) -> Column:
    """Apply the float-or-text rule to one column of raw field bytes; a
    text field that is not UTF-8 is a FormatError."""
    try:
        return Column(np.asarray(raw, dtype=np.float64))
    except ValueError:
        try:
            return text_column([raw])
        except UnicodeDecodeError as exc:
            raise FormatError(f"text field {exc.object!r} is not UTF-8") from None


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
    built from (a whole file, or a LIMIT scan's prefix), and `ends[r, j]`
    the end of its field j counted from that start; the last field ends at
    the line end, before any "\\r". Each array has the narrowest unsigned
    dtype that holds its values, so a file whose lines are all shorter than
    256 bytes costs one byte per field plus one offset per line. The number
    of lines is the file's row count. `split_lines` builds a map one window
    of the file at a time and joins the windows' narrow parts once. A map
    describes the bytes it was built from and nothing else. `stamp` is the
    (size, mtime_ns) of the file it was built from (None for a LIMIT scan's
    prefix); `read_csv` reuses a map only while its file keeps that stamp.
    `path` names that file in errors from cuts.
    """

    __slots__ = ("line_starts", "ends", "stamp", "path")

    def __init__(self, line_starts: np.ndarray, ends: np.ndarray, path):
        self.line_starts = line_starts
        self.ends = ends
        self.stamp: tuple[int, int] | None = None
        self.path = path

    def __len__(self) -> int:
        return len(self.line_starts)

    @property
    def nbytes(self) -> int:
        return self.line_starts.nbytes + self.ends.nbytes

    def bounds(self, j, rows=slice(None)):
        """Start and end offsets of field j on the given lines (every line
        by default), as intp: differences of the narrow unsigned offsets
        would wrap below 0."""
        base = self.line_starts[rows].astype(np.intp)
        ends = self.ends[rows]
        return (base + ends[:, j - 1] + 1 if j else base), base + ends[:, j]


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
    try:
        names = line.removesuffix(b"\r").decode("utf-8").split(",")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: header {line!r} is not UTF-8") from None
    if len(set(names)) < len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise FormatError(f"{path}: header repeats the column name {dup!r}")
    return names


def file_stamp(st: os.stat_result) -> tuple[int, int]:
    """What tells a data file's versions apart: its (size, mtime_ns)."""
    return st.st_size, st.st_mtime_ns


def read_csv(path, wanted=None, rowmap: RowMap | None = None):
    """Read a data file whole, check its header and map its lines; the
    prelude of `scan_csv`.

    Returns the file bytes (a final newline added when missing), the file
    size, the header names, the wanted names (every column for None) and
    the file's positional map. That is `rowmap`, a map from an earlier read,
    while the file keeps the stamp on it; else the lines are split again.
    Raises FormatError on an empty file, a repeated header name, a wanted
    name missing from the header or a ragged row.
    """
    with open(path, "rb") as f:
        stamp = file_stamp(os.fstat(f.fileno()))  # a write during the read changes it
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
    if rowmap is None or rowmap.stamp != stamp:
        rowmap, _ = split_lines(raw, nl + 1, len(header), path)
        rowmap.stamp = stamp
    return raw, file_bytes, header, wanted, rowmap


def scan_csv(path, wanted=None, rowmap: RowMap | None = None) -> CsvScan:
    """Scan a CSV file in one pass, parsing only the wanted columns.

    `wanted` is a collection of header names (None parses every column,
    an empty collection parses none and just validates structure).
    Raises FormatError on ragged rows, naming the first bad data row.

    `rowmap` is the positional map of an earlier scan of the file: while
    the file keeps the stamp on it, the fields are cut straight from it,
    skipping `split_lines`. Either way the file is read whole, the result
    is the same and `CsvScan.rowmap` holds the map the fields were cut from.
    """
    raw, file_bytes, header, wanted, rowmap = read_csv(path, wanted, rowmap)
    return CsvScan(
        header=header,
        columns={name: cut_column(raw, rowmap, header.index(name)) for name in wanted},
        row_count=len(rowmap),
        file_bytes=file_bytes,
        rowmap=rowmap,
    )


# Bytes per step of the structure pass, which runs on to the end of the
# line it reaches: its temporaries, a few bytes per byte, scale with this
# and not with the file.
_SPLIT_WINDOW = 1 << 20


def split_lines(buf: bytes, start: int, ncols: int, path):
    """Structure step of the tokenizer: find every data line of `buf` from
    offset `start` and the end of each of its fields.

    A line ends at its newline, less one "\\r" before it (CRLF files); bytes
    after the last newline belong to no line. Blank lines at the end are
    not rows; a blank line before a data line is a one-field row. Raises
    FormatError on the first row whose field count is not `ncols`,
    numbering rows from 1. Returns the lines' positional map (offsets into
    `buf`) and the offset just past each row's newline. The lines are split
    in windows of about `_SPLIT_WINDOW` bytes (`LineSplit`), so no
    temporary is sized by `buf`; the map's narrow parts are joined once.
    """
    split = LineSplit(ncols, path, start)
    split.extend(buf)
    return split.rowmap()


class LineSplit:
    """The structure step over a buffer that grows, from offset `start`:
    `extend` splits the complete lines added since its last call, one
    line-aligned window at a time, and `rowmap` gives the map of every row
    split so far, as `split_lines` gives it for the whole buffer. Each
    window keeps only its rows' narrow line starts and field ends; a
    partial last line waits for the bytes that complete it.

    Blank lines after the last non-blank line wait: a later non-blank line
    makes them rows, which with `ncols` > 1 is the FormatError of the
    first of them; at the end of the data they are no rows."""

    def __init__(self, ncols: int, path, start: int):
        self.ncols = ncols
        self.path = path
        self._split_to = start  # the start of the first line not split
        self._starts = [np.empty(0, np.uint8)]  # narrow parts, one per window
        self._ends = [np.empty((0, ncols), np.uint8)]
        self._lines = 0  # lines in the parts
        self._rows = 0  # of them, those up to the last non-blank line
        self._row_end = 0  # the offset past that line's newline
        self._blank_row = None  # first waiting blank line's row number, ncols > 1

    def extend(self, buf: bytes) -> None:
        """Split the lines of `buf`, the buffer of earlier calls with bytes
        appended, that end in a newline and were not split yet. A window
        ends at the first newline at or past `_SPLIT_WINDOW` bytes, so a
        longer line makes a longer window."""
        start = self._split_to
        stop = max(buf.rfind(b"\n", start) + 1, start)
        arr = np.frombuffer(buf, dtype=np.uint8)
        while start < stop:
            end = buf.find(b"\n", min(start + _SPLIT_WINDOW, stop) - 1, stop) + 1
            self._window(arr, start, end)
            start = end
        self._split_to = stop

    def _window(self, arr: np.ndarray, lo: int, hi: int) -> None:
        """Split the lines of `arr[lo:hi]`, which ends in a newline."""
        ncols = self.ncols
        body = arr[lo:hi]
        # Field (r, j) sits between consecutive delimiters in the flattened
        # comma/newline grid; a line's comma count is its delimiter count less one.
        is_delim = body == COMMA
        is_delim |= body == NEWLINE
        delims = np.flatnonzero(is_delim)
        del is_delim
        nl_at = np.flatnonzero(body[delims] == NEWLINE)
        newlines = delims[nl_at]
        starts = np.concatenate(([0], newlines[:-1] + 1))
        line_ends = newlines - ((newlines > starts) & (body[newlines - 1] == CR))
        filled = np.flatnonzero(starts != line_ends)
        last = int(filled[-1]) + 1 if len(filled) else 0
        if last and self._blank_row is not None:
            self._raise_fields(self._blank_row, 1)
        # One-field rows take blank lines as they come; wider rows stop at
        # the window's last non-blank line.
        n = len(newlines) if ncols == 1 else last
        commas = np.diff(nl_at[:n], prepend=-1) - 1
        bad = np.flatnonzero(commas != ncols - 1)
        if len(bad):
            self._raise_fields(self._lines + int(bad[0]) + 1, int(commas[bad[0]]) + 1)
        if n < len(newlines) and self._blank_row is None:
            self._blank_row = self._lines + n + 1

        grid = delims[: n * ncols].reshape(n, ncols)
        grid[:, -1] = line_ends[:n]  # the newline, less its "\r"
        grid -= starts[:n, None]
        self._ends.append(grid.astype(np.min_scalar_type(int(grid[:, -1].max(initial=0)))))
        starts += lo
        self._starts.append(starts[:n].astype(np.min_scalar_type(len(arr))))
        if last:
            self._rows = self._lines + last
            self._row_end = lo + int(newlines[last - 1]) + 1
        self._lines += n

    def _raise_fields(self, row: int, fields: int):
        raise FormatError(
            f"{self.path}: data row {row} has {fields} fields, expected {self.ncols}"
        )

    def rowmap(self):
        """The positional map of the rows split so far, and the offset just
        past each row's newline. The parts are joined into one, which later
        windows extend."""
        self._starts = [np.concatenate(self._starts)]
        self._ends = [np.concatenate(self._ends)]
        starts = self._starts[0][: self._rows]
        row_ends = np.empty_like(starts)
        if self._rows:
            row_ends[:-1] = starts[1:]
            row_ends[-1] = self._row_end
        return RowMap(starts, self._ends[0][: self._rows], self.path), row_ends

    def window(self, buf: bytes):
        """Split the complete lines of `buf`, a new buffer whose first byte
        follows the last row split so far: the map of its rows (offsets into
        `buf`) and the offset just past the last of them, 0 when it holds
        none. Blank lines after that row and a partial last line stay
        unsplit, for the next buffer to start with; rows are numbered on
        from earlier buffers."""
        rows = self._rows
        self._lines, self._blank_row, self._split_to = rows, None, 0
        del self._starts[1:], self._ends[1:]  # keep the empty first parts
        self.extend(buf)
        n = self._rows - rows
        starts, ends = np.concatenate(self._starts)[:n], np.concatenate(self._ends)[:n]
        return RowMap(starts, ends, self.path), (self._row_end if n else 0)


class CsvReader:
    """One pass over a data file in line-aligned windows of about
    `_SPLIT_WINDOW` bytes: how loads and the plan slicer read, so that they
    hold a window of a file, never the whole of it. Opening checks
    the header as `read_csv` does (`indices` checks wanted names); iterating
    yields `(buf, rowmap, size)` per window: its bytes, its rows' map and
    how many of its bytes are the source's (all but the newline added after
    a last line without one). One `LineSplit` carries on from window to
    window, so a FormatError names the file's row. Each byte after the
    header is in exactly one window; blank lines at the end are in the last
    and are no rows. `file_bytes` and `rows` count what was read."""

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb")
        try:
            line = self._file.readline()
            if not line:
                raise FormatError(f"{path}: empty file")
            self.header = _header_names(line.removesuffix(b"\n"), path)
        except BaseException:
            self._file.close()
            raise
        self.file_bytes = len(line)
        self.rows = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def indices(self, names) -> list[int]:
        """Header positions of `names`, ascending; a name the header lacks
        is a FormatError."""
        for name in names:
            if name not in self.header:
                raise FormatError(f"{self.path}: no column named {name!r}")
        kept = set(names)
        return [j for j, name in enumerate(self.header) if name in kept]

    def __iter__(self):
        split = LineSplit(len(self.header), self.path, 0)
        parts = []  # what the last window left unsplit, then reads with no newline
        while True:
            parts.append(self._file.read(_SPLIT_WINDOW))
            self.file_bytes += len(parts[-1])
            end_of_file = not parts[-1]
            if not end_of_file and b"\n" not in parts[-1]:
                continue
            buf = b"".join(parts)
            parts.clear()
            size = len(buf)
            if end_of_file and not buf.endswith(b"\n"):
                buf += b"\n"
            rowmap, end = split.window(buf)
            self.rows += len(rowmap)
            if end_of_file:
                yield buf, rowmap, size
                return
            if end:
                yield buf, rowmap, end
            parts.append(buf[end:])
            del buf, rowmap  # before the next read


# Rows per step of `cut_column` and `cut_rows`: every temporary is a vector
# this long (times the kept fields in `cut_rows`), or for text a list of
# this many Python ints per offset array and one of field bytes.
_BLOCK_ROWS = 4096
_TEXT_BLOCK_ROWS = 1024
# Source span of a step of `cut_rows`: its rows start within this many bytes
# of its first, since its temporaries take about 17 bytes per byte copied
# (long lines make short blocks).
_BLOCK_BYTES = 1 << 20


def cut_rows(buf: bytes, rowmap: RowMap, keep):
    """Projection step of the tokenizer: the lines of `buf` cut down to the
    column indices `keep` (ascending, at least one), as CSV bytes, one
    uint8 array per block of rows. Field bytes are copied verbatim,
    separated by "," and each row ends in "\\n", whatever the source's line
    end: `b",".join(row) + b"\\n"` over each row's kept fields, field j of
    a row being `buf[s:e]` for its pair of `rowmap.bounds(j)`.

    Each field is widened by the one byte after it (its comma, or the "\\r"
    or "\\n" that ends its line; `read_csv` and `CsvReader` add a final
    newline), all of a block's widened fields are gathered with one fancy
    index, and the copied delimiter bytes are overwritten. A block is at most
    `_BLOCK_ROWS` rows, and holds only the rows that start less than
    `_BLOCK_BYTES` past its first."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    lo = 0
    while lo < len(rowmap):
        line_starts = rowmap.line_starts[lo:lo + _BLOCK_ROWS].astype(np.intp)
        n = int(np.searchsorted(line_starts, line_starts[0] + _BLOCK_BYTES))
        rows = slice(lo, lo + n)
        lo += n
        bounds = [rowmap.bounds(j, rows) for j in keep]
        starts = np.stack([s for s, _ in bounds], axis=1).ravel()  # row-major
        lengths = np.stack([e for _, e in bounds], axis=1).ravel() - starts + 1
        ends = np.cumsum(lengths)  # each widened field's end in the block
        # Block byte i copies source byte i + start - offset of its field,
        # offset being where that field lands in the block.
        index = np.repeat(starts - (ends - lengths), lengths)
        index += np.arange(len(index))
        out = arr[index]
        out[ends - 1] = COMMA
        out[ends[len(keep) - 1::len(keep)] - 1] = NEWLINE
        yield out


_U64 = np.uint64
_ASCII_ZERO = _U64(0x3030_3030_3030_3030)
_LOW7 = _U64(0x7F7F_7F7F_7F7F_7F7F)
_OVER_NINE = _U64(0x7676_7676_7676_7676)  # a byte below 0x80 reaches it from 10
_HIGH = _U64(0x8080_8080_8080_8080)
_BYTE_SUM = _U64(0x0101_0101_0101_0101)
# Byte 7 - k of each counts the window bytes after byte k of `hi`, of `lo`:
# times a word that is 1 in byte k alone, it lands in the top byte.
_AFTER_HI = _U64(0x0706_0504_0302_0100)
_AFTER_LO = _U64(0x0F0E_0D0C_0B0A_0908)
_ALL = _U64(0xFFFF_FFFF_FFFF_FFFF)
# _TOP_BYTES[k]: a word whose k most significant bytes are set.
_TOP_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], np.uint64)
_POW10 = np.array([float(10 ** k) for k in range(16)])  # each exact in float64


def cut_column(buf: bytes, rowmap: RowMap, j: int) -> Column:
    """Typing step of the tokenizer: column j of `buf`, typed by the
    float-or-text rule straight from the positional map, a block of rows at
    a time. Plain decimals take the array kernel (`_plain_decimals`), every
    other field the rule itself; the result equals `column_from_strings` on
    the column's field bytes (`buf[s:e]` for each pair of
    `rowmap.bounds(j)`), bit for bit, and raises what it raises. The
    column is text from the first field the rule rejects; a first field
    that is no number makes it text before any parsing. From a block
    mostly outside the plain form on, the column skips the kernel."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    # Every 8-byte little-endian word of the buffer, one starting at each
    # byte; a buffer under 16 bytes is padded so that the kernel's two words
    # exist for every field.
    padded = buf.ljust(16, b"\0")
    words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    try:
        np.asarray(_fields(buf, *rowmap.bounds(j, slice(1))), dtype=np.float64)
        values = np.empty(len(rowmap))
        kernel = True
        for lo in range(0, len(rowmap), _BLOCK_ROWS):
            s, e = rowmap.bounds(j, slice(lo, lo + _BLOCK_ROWS))
            if not kernel:
                values[lo:lo + len(s)] = np.asarray(_fields(buf, s, e), dtype=np.float64)
                continue
            block, plain = _plain_decimals(arr, words, s, e)
            other = np.flatnonzero(~plain)
            if len(other):
                block[other] = np.asarray(_fields(buf, s[other], e[other]), dtype=np.float64)
            values[lo:lo + len(s)] = block
            # The kernel costs a sixth to a half of the rule per field, so
            # it loses where most fields pay for both.
            kernel = 2 * len(other) <= len(s)
    except ValueError:
        blocks = (_fields(buf, *rowmap.bounds(j, slice(lo, lo + _TEXT_BLOCK_ROWS)))
                  for lo in range(0, len(rowmap), _TEXT_BLOCK_ROWS))
        try:
            return text_column(blocks)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{rowmap.path}: text field {exc.object!r} is not UTF-8") from None
    return Column(values)


def _fields(buf: bytes, starts, ends) -> list[bytes]:
    return [buf[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


def _plain_decimals(arr, words, s, e):
    """Array kernel of `cut_column` over fields [s, e) of `arr`: each
    field's value, and whether it has the plain form `[+-]digits[.digits]`
    (either digit run may be empty, not both) with 1 to 15 bytes after the
    sign and ends at offset 16 or later. Values of other fields are
    garbage.

    The last 16 bytes of each field are read as two words, `lo` then `hi`,
    with the bytes before the digits zeroed, which reads them as leading
    zeros. SWAR masks check for digits and one dot, the dot is squeezed
    out, and each word's eight digits become an integer by fast_float's
    multiply-shift (Lemire, "Number Parsing at a Gigabyte per Second",
    2021). The value is that integer, below 10**15 < 2**53, over 10 to the
    number of fraction digits: one IEEE division of exact operands, so
    correctly rounded and equal to what the rule gives.
    """
    first = arr[s]  # a field starts before the buffer's final newline
    negative = first == ord("-")
    width = e - s - (negative | (first == ord("+")))  # digits and dot
    plain = (e >= 16) & (width >= 1) & (width <= 15)
    width = np.clip(width, 0, 15)
    at = np.maximum(e - 16, 0)
    lo = (words[at] ^ _ASCII_ZERO) & _TOP_BYTES[np.maximum(width - 8, 0)]
    hi = (words[at + 8] ^ _ASCII_ZERO) & _TOP_BYTES[np.minimum(width, 8)]
    # Digits are now byte values 0-9. A plain field's one other byte is its
    # dot, "." ^ "0" = 0x1E; `*_dot` holds a 1 in that byte.
    lo_dot, hi_dot = _non_digits(lo), _non_digits(hi)
    lo_dots, hi_dots = lo_dot * _U64(0x1E), hi_dot * _U64(0x1E)
    dots = ((lo_dot + hi_dot) * _BYTE_SUM >> _U64(56)).astype(np.intp)
    plain &= ((lo & lo_dot * _U64(0xFF)) == lo_dots) & ((hi & hi_dot * _U64(0xFF)) == hi_dots)
    plain &= (dots <= 1) & (width > dots)

    fraction = (hi_dot * _AFTER_HI + lo_dot * _AFTER_LO) >> _U64(56)
    # Zero the dot and shift the bytes before it up by one byte, over it.
    lo ^= lo_dots
    hi ^= hi_dots
    hi_before = hi_dot - (hi_dot != 0)
    lo_before = np.where(hi_dot != 0, _ALL, lo_dot - (lo_dot != 0))
    hi = (hi & ~hi_before) | ((hi & hi_before) << _U64(8)) | ((lo & lo_before) >> _U64(56))
    lo = (lo & ~lo_before) | ((lo & lo_before) << _U64(8))
    digits = _eight_digits(lo) * _U64(100_000_000) + _eight_digits(hi)
    values = digits.astype(np.float64) / _POW10[np.minimum(fraction, 15).astype(np.intp)]
    np.negative(values, out=values, where=negative)
    return values, plain


def _non_digits(x):
    """1 in each byte of the words `x` above 9, 0 in every other byte."""
    return ((((x & _LOW7) + _OVER_NINE) | x) & _HIGH) >> _U64(7)


def _eight_digits(x):
    """The integer spelled by words of eight digit values 0-9, most
    significant in the low byte (fast_float's parse_eight_digits)."""
    x = x * _U64(10) + (x >> _U64(8))
    pairs = _U64(0x0000_00FF_0000_00FF)
    x = ((x & pairs) * _U64(0x000F_4240_0000_0064)
         + ((x >> _U64(16)) & pairs) * _U64(0x0000_2710_0000_0001))
    return (x >> _U64(32)) & _U64(0xFFFF_FFFF)


def predicate_mask(column: Column, op: str, literal) -> np.ndarray:
    """Boolean mask of rows passing `value op literal`.

    Numeric column with a non-numeric literal matches nothing; text column
    compares against the literal rendered as text, by code point as `str`
    does. Both engines share these rules. On text, the literal is placed
    among the column's sorted words by binary search, and the codes are
    compared with that position.
    """
    if column.is_numeric:
        try:
            lit = float(literal)
        except (TypeError, ValueError):
            return np.zeros(len(column), dtype=bool)
        return COMPARATORS[op](column.values, lit)
    lit = _text_literal(literal)
    words = column.words
    if op == "=":
        i = bisect.bisect_left(words, lit)
        if i < len(words) and words[i] == lit:
            return column.values == i
        return np.zeros(len(column), dtype=bool)
    search, cmp = _CODE_BOUNDS[op]
    return cmp(column.values, search(words, lit))


def filter_rows(qcols, predicates, nrows: int) -> np.ndarray:
    """Indices of the rows passing every predicate over `qcols`, keyed by
    qualified attribute name."""
    mask = np.ones(nrows, dtype=bool)
    for pred in predicates:
        mask &= predicate_mask(qcols[pred.attr], pred.op, pred.literal)
    return np.flatnonzero(mask)


def join_keys(old: Column, new: Column):
    """The (old, new) keys a join compares, or None when one side is
    numeric and the other text: such sides match nothing. Numeric sides
    give their values; text sides the new side's codes, each old word
    mapped once to the new side's code for it (-1 when absent)."""
    if old.is_numeric != new.is_numeric:
        return None
    if old.is_numeric:
        return old.values, new.values
    code = {w: i for i, w in enumerate(new.words)}
    mapped = np.array([code.get(w, -1) for w in old.words], dtype=np.int32)
    return mapped[old.values], new.values


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
        return qcols[attr].take(inter[attr.split(".", 1)[0]])

    if new_attr.startswith(new_prefix):
        counts, positions = match(old_values(old_attr), qcols[new_attr].take(new_rows))
        lefts = np.repeat(np.arange(len(counts)), counts)
        rights = new_rows[positions]
    else:
        # Degenerate condition not referencing the joined table: it acts as
        # a per-tuple filter crossed with every candidate new-table row.
        keys = join_keys(old_values(old_attr), old_values(new_attr))
        kept = np.flatnonzero(keys[0] == keys[1]) if keys else np.empty(0, dtype=np.intp)
        lefts = np.repeat(kept, len(new_rows))
        rights = np.tile(new_rows, len(kept))
    nxt = {t: idx[lefts] for t, idx in inter.items()}
    nxt[new_table] = rights
    return nxt


def project(projections, qcols, rows_of) -> ResultSet:
    """Result of the projected attributes, gathered column by column (text
    stays coded); `rows_of` maps each table to the row index of every
    output row."""
    return ResultSet(tuple(projections), tuple(
        qcols[a].take(rows_of[a.split(".", 1)[0]]) for a in projections
    ))


def count_result(n: int) -> ResultSet:
    """Result of a COUNT query that counted `n` rows."""
    return ResultSet(("count",), (np.array([n]),))


def _text_literal(literal) -> str:
    if isinstance(literal, str):
        return literal
    return repr(float(literal))


@dataclass
class ResultSet:
    """Query output: named columns (at least one) and the values of each,
    all of one length: a `Column` (a text one still coded), or an array (an
    int array for COUNT). Rows are built only when `rows` or `multiset` is
    asked for; their values are Python floats, ints and strs."""

    columns: tuple[str, ...]
    values: tuple

    @property
    def rows(self) -> list[tuple]:
        return list(zip(*(v.tolist() for v in self.values)))

    def multiset(self) -> Counter:
        return Counter(self.rows)

    def __len__(self) -> int:
        return len(self.values[0])


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
