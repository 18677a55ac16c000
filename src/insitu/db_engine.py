"""Load-then-query columnar engine.

COPY-style bulk load converts CSV into typed binary column files in one
windowed pass over the file (optionally journaling every input record
verbatim from the same windows), records per-column min/max,
and answers queries over the loaded columns with in-memory caching, min/max
pruning, and equi-joins by one array kernel (`_hash_match`: a stable sort
of one side's keys and binary searches for the other's; text keys are
the columns' dictionary codes, the old side's recoded into the new
side's dictionary).

On-disk layout per table, under `<data_dir>/<table>/`:

* `meta`: UTF-8 lines split on LF only; the row count, then one
  `<attr>,<type>,<min>,<max>` line per loaded column, in header order;
* `<i>.col`: the `i`-th column line of `meta`, counting from 0, named by
  position so no header text reaches a file name. An `f64 <rows>` ASCII
  line and `rows` little-endian float64 values, or a `txt <rows> <words>`
  line, `rows` little-endian int32 codes and the sorted words joined by
  newlines in UTF-8 (the CSV contract forbids newlines in fields). A file
  that disagrees with its header is a LoadError naming it;
* `journal.log`, when journaling is on: the source's data records
  verbatim, whichever columns were loaded.
"""
from __future__ import annotations

import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cache import ColumnCache
from .errors import FormatError, LoadError, NotLoadedError, SchemaError
from .query_model import QueryAst, needed_attrs
from .tabular import (
    Column,
    CsvReader,
    ExecStats,
    FLOAT_TYPE,
    LoadStats,
    ResultSet,
    TEXT_TYPE,
    _TEXT_BLOCK_ROWS,
    _fields,
    _text_literal,
    column_from_strings,
    count_result,
    cut_column,
    filter_rows,
    join_keys,
    join_stage,
    project,
    text_column,
)

DEFAULT_CACHE_BUDGET = 1 << 30

_TYPE_INFER_ROWS = 1000


@dataclass
class TableStore:
    """Metadata for one loaded table; column payloads stay on disk."""

    directory: Path
    attrs: list[str]
    types: dict[str, str]
    row_count: int
    minmax: dict[str, tuple | None] = field(default_factory=dict)

    def col_path(self, attr: str) -> Path:
        return self.directory / f"{self.attrs.index(attr)}.col"

    @property
    def meta_path(self) -> Path:
        return self.directory / "meta"

    @property
    def journal_path(self) -> Path:
        return self.directory / "journal.log"


class DbEngine:
    def __init__(
        self,
        data_dir,
        cache_budget_bytes: int = DEFAULT_CACHE_BUDGET,
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ColumnCache(cache_budget_bytes)
        self.stores: dict[str, TableStore] = {}
        self.total_bytes_written = 0

    # -- loading ----------------------------------------------------------

    def has_table(self, table: str) -> bool:
        return table in self.stores or (self.data_dir / table / "meta").exists()

    def load_table(self, csv_path, table: str, journal: bool = False,
                   columns=None, tee=None) -> LoadStats:
        """Bulk-load a CSV file into typed binary column files, in one
        windowed pass (`tabular.CsvReader`): each window's columns are cut
        and appended (`_ColumnBuilder`) and, with `journal`, its source bytes
        appended to the journal, so the file is opened and read once.

        `columns` names the columns to load (None loads every one); they are
        stored in header order. A subset load counts as input the size of
        those columns as CSV text (header, fields, commas and LF), a full
        load the file size. The journal holds the file's data records
        verbatim either way. A table that already holds rows must be
        truncated first. `tee`, when given, shares the pass: its
        `start(reader)` runs once the header is read and its `add(buf,
        rowmap)` on each window (the plan slicer's raw slice). Errors are
        raised as a whole-file scan raises them: a ragged row first, then a
        text field that is not UTF-8 (in `columns` order), then a type
        conflict (in header order); nothing is left in the store.
        """
        existing = self.stores.get(table)
        if existing is not None and existing.row_count > 0:
            raise LoadError(f"table {table!r} is already loaded; truncate it first")

        start = time.perf_counter()
        directory = self.data_dir / table
        tmp_dir = self.data_dir / f".{table}.loading"
        with CsvReader(csv_path) as reader:
            if tee is not None:
                tee.start(reader)
            wanted = reader.header if columns is None else list(columns)
            kept = reader.indices(wanted)
            attrs = [reader.header[j] for j in kept]
            builders = {name: _ColumnBuilder(name, reader.header.index(name)) for name in wanted}
            if tmp_dir.exists():
                shutil.rmtree(tmp_dir)
            tmp_dir.mkdir(parents=True)
            store = TableStore(directory=tmp_dir, attrs=attrs, types={}, row_count=0)
            stats = LoadStats()
            field_text = 0
            try:
                with open(store.journal_path, "wb") if journal else nullcontext() as log:
                    for buf, rowmap, size in reader:
                        if tee is not None:
                            tee.add(buf, rowmap)
                        if log:
                            log.write(memoryview(buf)[:size])
                        for builder in builders.values():
                            builder.add(buf, rowmap)
                        if columns is not None:
                            field_text += sum(int((e - s).sum())
                                              for s, e in map(rowmap.bounds, kept))
                        del buf, rowmap  # so one window is held while the next is read
                    if log:  # every input record verbatim, fsynced once per load
                        log.flush()
                        os.fsync(log.fileno())
                        stats.journal_bytes = log.tell()
                errors = [b.error for b in builders.values() if isinstance(b.error, FormatError)]
                errors += [builders[a].error for a in attrs if builders[a].error is not None]
                if errors:
                    raise errors[0]
                store.row_count = stats.rows_loaded = reader.rows
                stats.input_bytes = reader.file_bytes if columns is None else (
                    len((",".join(attrs) + "\n").encode("utf-8"))
                    + field_text + reader.rows * len(attrs))
                for attr in attrs:
                    col = builders.pop(attr).column()
                    store.types[attr] = col.type
                    store.minmax[attr] = _column_minmax(col)
                    stats.binary_bytes += _write_column(store.col_path(attr), col)
                _write_meta(store.meta_path, store)
            except BaseException:
                shutil.rmtree(tmp_dir, ignore_errors=True)
                raise
        if directory.exists():
            shutil.rmtree(directory)
        tmp_dir.rename(directory)
        store.directory = directory
        self.cache.drop_matching(lambda key: key[0] == str(directory))
        self.stores[table] = store
        self.total_bytes_written += stats.total_written
        stats.duration_ms = (time.perf_counter() - start) * 1000.0
        return stats

    def truncate_table(self, table: str) -> float:
        """Empty a table: zero rows, empty column files, reset statistics."""
        start = time.perf_counter()
        store = self._require_store(table, for_truncate=True)
        for attr in store.attrs:
            _write_column(store.col_path(attr), Column(np.empty(0, dtype=np.float64))
                          if store.types[attr] == FLOAT_TYPE else Column([]))
        store.row_count = 0
        store.minmax = {attr: None for attr in store.attrs}
        if store.journal_path.exists():
            store.journal_path.unlink()
        _write_meta(store.meta_path, store)
        self.cache.drop_matching(lambda key: key[0] == str(store.directory))
        return (time.perf_counter() - start) * 1000.0

    def _require_store(self, table: str, for_truncate: bool = False) -> TableStore:
        store = self.stores.get(table)
        if store is None:
            store = _read_meta(self.data_dir / table)
            if store is not None:
                self.stores[table] = store
        if store is None:
            if for_truncate:
                raise SchemaError(f"unknown table {table!r}")
            raise NotLoadedError(f"table {table!r} is not loaded")
        return store

    # -- querying ----------------------------------------------------------

    def execute(self, ast: QueryAst) -> tuple[ResultSet, ExecStats]:
        stats = ExecStats()
        self.cache.begin_peak_window()
        start = time.perf_counter()

        stores = {t: self._require_store(t) for t in ast.tables}
        needed = needed_attrs(ast, lambda table: stores[table].attrs)

        # Min/max pruning: a predicate range disjoint from the column's
        # [min, max] empties the whole result without any column scan.
        pruned = any(
            _prunes(stores[p.attr.split('.', 1)[0]], p) for p in ast.predicates
        )
        if pruned:
            stats.duration_ms = (time.perf_counter() - start) * 1000.0
            if ast.is_count:
                return count_result(0), stats
            empty = tuple(np.empty(0) for _ in ast.projections)
            return ResultSet(tuple(ast.projections), empty), stats

        # Pin the whole working set so tight budgets error out rather than
        # evicting a column the running query still needs.
        pinned = {
            (str(stores[t].directory), a)
            for t, attrs in needed.items()
            for a in attrs
        }
        qcols: dict[str, Column] = {}
        for table, attrs in needed.items():
            for bare in attrs:
                qcols[f"{table}.{bare}"] = self._fetch_column(
                    stores[table], bare, stats, pinned
                )

        if ast.joins:
            result = self._execute_join(ast, stores, qcols, stats)
        else:
            result = self._execute_single(ast, stores[ast.tables[0]], qcols, stats)
        stats.duration_ms = (time.perf_counter() - start) * 1000.0
        stats.peak_cache_bytes = self.cache.window_peak_bytes
        return result, stats

    def _fetch_column(self, store: TableStore, attr: str, stats, pinned) -> Column:
        key = (str(store.directory), attr)
        col = self.cache.get(key)
        if col is not None:
            stats.cache_hit_columns += 1
            return col
        col, nbytes = _read_column(store.col_path(attr))
        stats.bytes_read_from_disk += nbytes
        self.cache.put(key, col, pinned=pinned)
        return col

    def _execute_single(self, ast, store, qcols, stats) -> ResultSet:
        nrows = store.row_count
        indices = filter_rows(qcols, ast.predicates, nrows)
        if ast.is_count:
            stats.rows_scanned = nrows if ast.predicates else 0
            return count_result(len(indices))
        stats.rows_scanned = nrows
        if ast.limit is not None and len(indices) > ast.limit:
            indices = indices[: ast.limit]
            stats.early_stop = True
        return project(ast.projections, qcols, {ast.tables[0]: indices})

    def _execute_join(self, ast, stores, qcols, stats) -> ResultSet:
        # Pre-filter each table with its own predicates, then left-deep joins
        # matching in intermediate order so pair enumeration matches the
        # in-situ engine's nested loop.
        survivors = {
            table: filter_rows(
                qcols,
                [p for p in ast.predicates if p.attr.split(".", 1)[0] == table],
                stores[table].row_count,
            )
            for table in ast.tables
        }
        stats.rows_scanned = sum(stores[t].row_count for t in ast.tables)

        first = ast.tables[0]
        inter = {first: survivors[first]}
        for new_table, join in zip(ast.tables[1:], ast.joins):
            inter = join_stage(
                inter, join, new_table, survivors[new_table], qcols, _hash_match
            )

        if ast.is_count:
            return count_result(len(inter[first]))
        if ast.limit is not None and len(inter[first]) > ast.limit:
            inter = {t: idx[: ast.limit] for t, idx in inter.items()}
            stats.early_stop = True
        return project(ast.projections, qcols, inter)


# -- helpers ----------------------------------------------------------------


class _ColumnBuilder:
    """Column `attr` (header position j) of a load, cut from each window
    with `cut_column` and appended: float64 pieces are joined once at the
    end, text pieces have their dictionaries merged and sorted once. The
    column is typed by the engines' one rule over all its rows, as a
    whole-file cut types it.

    A load aborts a text column whose first non-number lies past its first
    `_TYPE_INFER_ROWS` rows (the whole-column rule would have silently
    fallen back to text): `error` then holds that LoadError. So a column
    that turns text after its first window needs only the field bytes of
    its first `_TYPE_INFER_ROWS` rows again, which it keeps while it is
    numeric; after the flip it cuts every window as text. A text field that
    is not UTF-8 is the FormatError in `error` instead, and ends the cuts."""

    def __init__(self, attr: str, j: int):
        self.attr, self.j = attr, j
        self.pieces: list[Column] = []
        self.rows = 0
        self.text = False
        self.head: list[bytes] = []  # the first rows' fields while numeric
        self.error: Exception | None = None

    def add(self, buf: bytes, rowmap) -> None:
        if isinstance(self.error, FormatError) or not len(rowmap):
            return
        try:
            piece = (_cut_text if self.text else cut_column)(buf, rowmap, self.j)
        except FormatError as exc:
            self.error, self.pieces = exc, []
            return
        if piece.is_numeric:
            # Rows past `_TYPE_INFER_ROWS` make a later flip a LoadError.
            within = self.rows + len(rowmap) < _TYPE_INFER_ROWS
            self.head = self.head + _fields(buf, *rowmap.bounds(self.j)) if within else []
        elif not self.text:
            self.text = True
            i, value = _first_text_row(piece)
            if self.rows + i >= _TYPE_INFER_ROWS:
                self.error = LoadError(f"type conflict in column {self.attr!r}: row "
                                       f"{self.rows + i + 1} value {value!r} is not numeric")
            elif self.rows:  # re-cut the rows before the flip as text
                self.pieces = [text_column([self.head])]
            self.head = []
        self.rows += len(rowmap)
        if self.error is None:
            self.pieces.append(piece)

    def column(self) -> Column:
        if not self.text:
            return Column(np.concatenate([p.values for p in self.pieces]) if self.pieces
                          else np.empty(0))
        words = sorted(set().union(*(p.words for p in self.pieces)))
        code = {w: i for i, w in enumerate(words)}
        return Column(np.concatenate([np.array([code[w] for w in p.words], np.int32)[p.values]
                                      for p in self.pieces]), words)


def _first_text_row(col: Column) -> tuple[int, str]:
    """The first row of a text column holding a non-number, and its value.
    A value is a number by the engines' one rule: `column_from_strings` on
    its UTF-8 bytes. Each distinct value is tested at most once, at its
    first row, in row order."""
    first = np.full(len(col.words), len(col))  # each word's first row
    np.minimum.at(first, col.values, np.arange(len(col)))
    # A text column holds a non-number, so the loop breaks.
    for i in np.sort(first).tolist():
        value = col.words[col.values[i]]
        if not column_from_strings([value.encode("utf-8")]).is_numeric:
            break
    return i, value


def _cut_text(buf: bytes, rowmap, j: int) -> Column:
    """Column j of a window as text, as `cut_column` cuts a text column."""
    blocks = (_fields(buf, *rowmap.bounds(j, slice(lo, lo + _TEXT_BLOCK_ROWS)))
              for lo in range(0, len(rowmap), _TEXT_BLOCK_ROWS))
    try:
        return text_column(blocks)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{rowmap.path}: text field {exc.object!r} is not UTF-8") from None



def _prunes(store: TableStore, pred) -> bool:
    bare = pred.attr.split(".", 1)[1]
    bounds = store.minmax.get(bare)
    if bounds is None:
        return store.row_count == 0
    lo, hi = bounds
    numeric = store.types[bare] == FLOAT_TYPE
    if numeric:
        try:
            lit = float(pred.literal)
        except (TypeError, ValueError):
            return True  # numeric column never matches a non-numeric literal
    else:
        lit = _text_literal(pred.literal)
    op = pred.op
    if op == ">":
        return hi <= lit
    if op == ">=":
        return hi < lit
    if op == "<":
        return lo >= lit
    if op == "<=":
        return lo > lit
    return lit < lo or lit > hi  # "="


def _hash_match(old: Column, new: Column):
    """Join kernel, sort-based: a stable argsort of the new keys, then a
    left and a right binary search for each old key delimit its run of
    equal new keys, expanded into new positions. Old keys stay in order
    and each key's new positions ascend, as a hash table built in new-row
    order and probed with each old value would give them. The keys are
    `join_keys`: a NaN matches nothing and -0.0 matches 0.0."""
    keys = join_keys(old, new)
    if keys is None:
        return np.zeros(len(old), dtype=np.int64), np.empty(0, dtype=np.int64)
    old_keys, new_keys = keys
    order = np.argsort(new_keys, kind="stable")
    sorted_keys = new_keys[order]
    lo = np.searchsorted(sorted_keys, old_keys, side="left")
    counts = np.searchsorted(sorted_keys, old_keys, side="right") - lo
    counts[np.isnan(old_keys)] = 0  # NaN sorts equal to NaN
    # Match i of old key k is new key lo[k] + i in sorted order.
    starts = np.cumsum(counts) - counts
    index = np.repeat(lo - starts, counts) + np.arange(counts.sum())
    return counts, order[index]


def _column_minmax(col: Column):
    if len(col) == 0:
        return None
    if col.is_numeric:
        return float(col.values.min()), float(col.values.max())
    return col.words[0], col.words[-1]


def _write_column(path, col: Column) -> int:
    if col.is_numeric:
        header = f"{col.type} {len(col)}\n"
        payload = col.values.astype("<f8").tobytes()
    else:
        header = f"{col.type} {len(col)} {len(col.words)}\n"
        payload = col.values.astype("<i4").tobytes() + "\n".join(col.words).encode("utf-8")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(payload)
    return len(header) + len(payload)


def _read_column(path) -> tuple[Column, int]:
    with open(path, "rb") as f:
        raw = f.read()
    head = raw[:raw.find(b"\n") + 1]  # b"" when the file has no newline
    kind, *sizes = head[:-1].decode("ascii", "replace").split(" ")
    if len(sizes) != {FLOAT_TYPE: 1, TEXT_TYPE: 2}.get(kind) or not all(map(str.isdigit, sizes)):
        raise LoadError(f"{path}: unreadable header {head[:40]!r}")
    rows = int(sizes[0])
    payload = memoryview(raw)[len(head):]
    width = 8 if kind == FLOAT_TYPE else 4
    if len(payload) < width * rows or (kind == FLOAT_TYPE and len(payload) > 8 * rows):
        raise LoadError(f"{path}: header says {rows} values, payload is {len(payload)} bytes")
    if kind == FLOAT_TYPE:
        return Column(np.frombuffer(payload, dtype="<f8").astype(np.float64)), len(raw)
    codes = np.frombuffer(payload, dtype="<i4", count=rows).astype(np.int32, copy=False)
    blob, nwords = payload[4 * rows:], int(sizes[1])
    try:
        # b"" splits to [""], one empty word, so 0 words is an empty blob.
        words = str(blob, "utf-8").split("\n") if len(blob) or nwords else []
    except UnicodeDecodeError:
        raise LoadError(f"{path}: words are not UTF-8") from None
    if len(words) != nwords:
        raise LoadError(f"{path}: header says {nwords} words, file holds {len(words)}")
    if rows and (codes.min() < 0 or codes.max() >= len(words)):
        raise LoadError(f"{path}: a code lies outside [0, {len(words)})")
    return Column(codes, words), len(raw)


def _write_meta(path, store: TableStore) -> None:
    lines = [str(store.row_count)]
    for attr in store.attrs:
        bounds = store.minmax.get(attr)
        if bounds is None:
            lo = hi = ""
        else:
            lo, hi = bounds
            if store.types[attr] == FLOAT_TYPE:
                lo, hi = repr(lo), repr(hi)
        lines.append(f"{attr},{store.types[attr]},{lo},{hi}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _read_meta(directory) -> TableStore | None:
    directory = Path(directory)
    meta = directory / "meta"
    if not meta.exists():
        return None
    attrs: list[str] = []
    types: dict[str, str] = {}
    minmax: dict[str, tuple | None] = {}
    try:
        # LF only: a column name may hold "\r" or another line break of
        # `str.splitlines`, and text mode would translate a lone "\r".
        lines = meta.read_bytes().decode("utf-8").removesuffix("\n").split("\n")
        row_count = int(lines[0])
        for line in lines[1:]:
            attr, kind, lo, hi = line.split(",", 3)
            attrs.append(attr)
            types[attr] = kind
            if lo == "" and hi == "":
                minmax[attr] = None
            elif kind == FLOAT_TYPE:
                minmax[attr] = (float(lo), float(hi))
            else:
                minmax[attr] = (lo, hi)
    except ValueError as exc:
        raise LoadError(f"{meta}: unreadable ({exc})") from None
    return TableStore(
        directory=directory,
        attrs=attrs,
        types=types,
        row_count=row_count,
        minmax=minmax,
    )
