"""Load-then-query columnar engine.

COPY-style bulk load converts CSV into typed binary column files (optionally
journaling every input record verbatim first), records per-column min/max,
and answers queries over the loaded columns with in-memory caching, min/max
pruning, and equi-joins by one array kernel (`_hash_match`: a stable sort
of one side's keys and binary searches for the other's; text keys are
the columns' dictionary codes, the old side's recoded into the new
side's dictionary).

On-disk layout per table, under `<data_dir>/<table>/`:

* `meta`: UTF-8 lines split on LF only; the row count, then one
  `<attr>,<type>,<min>,<max>` line per loaded column, in header order;
* `<i>.col`: the `i`-th column line of `meta`, counting from 0, named by
  position so no header text reaches a file name. A `<type> <count>` ASCII
  line, then either `count` little-endian float64 values or the text
  values as one newline-joined UTF-8 blob (the CSV contract forbids
  newlines in fields);
* `journal.log`, when journaling is on: the source's data records
  verbatim, whichever columns were loaded.
"""
from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cache import ColumnCache
from .errors import LoadError, NotLoadedError, SchemaError
from .query_model import QueryAst, needed_attrs
from .tabular import (
    Column,
    ExecStats,
    FLOAT_TYPE,
    LoadStats,
    ResultSet,
    _text_literal,
    column_from_strings,
    count_result,
    filter_rows,
    join_stage,
    project,
    scan_csv,
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
                   columns=None, rowmap=None) -> LoadStats:
        """Bulk-load a CSV file into typed binary column files.

        `columns` names the columns to load (None loads every one); they are
        stored in header order. A subset load counts as input the size of
        those columns as CSV text (header, fields, commas and LF), a full
        load the file size. The journal holds the file's data records
        verbatim either way. A table that already holds rows must be
        truncated first. `rowmap` is the positional map of an earlier scan
        of the file; the columns are cut from it while the file is unchanged
        (see `scan_csv`).
        """
        existing = self.stores.get(table)
        if existing is not None and existing.row_count > 0:
            raise LoadError(f"table {table!r} is already loaded; truncate it first")

        start = time.perf_counter()
        scan = scan_csv(csv_path, columns, rowmap=rowmap)
        if columns is None:
            attrs, input_bytes = scan.header, scan.file_bytes
        else:
            kept = [j for j, name in enumerate(scan.header) if name in scan.columns]
            attrs = [scan.header[j] for j in kept]
            field_text = sum(int((e - s).sum()) for s, e in map(scan.rowmap.bounds, kept))
            input_bytes = (len((",".join(attrs) + "\n").encode("utf-8"))
                           + field_text + scan.row_count * len(attrs))

        directory = self.data_dir / table
        tmp_dir = self.data_dir / f".{table}.loading"
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)

        stats = LoadStats(rows_loaded=scan.row_count, input_bytes=input_bytes)
        store = TableStore(directory=tmp_dir, attrs=attrs, types={}, row_count=scan.row_count)
        try:
            if journal:
                stats.journal_bytes = _write_journal(store.journal_path, csv_path)
            for attr in attrs:
                col = self._coerce_for_load(scan.columns[attr], attr)
                store.types[attr] = col.type
                store.minmax[attr] = _column_minmax(col)
                stats.binary_bytes += _write_column(store.col_path(attr), col)
            _write_meta(store.meta_path, store)
        except Exception:
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

    def _coerce_for_load(self, col: Column, attr: str) -> Column:
        """Abort the load of a text column whose first non-number lies past
        its first `_TYPE_INFER_ROWS` rows (the whole-column rule would have
        silently fallen back to text). A value is a number by the engines'
        one rule: `column_from_strings` on its UTF-8 bytes. Each distinct
        value is tested at most once, at its first row, in row order."""
        if col.is_numeric:
            return col
        first = np.full(len(col.words), len(col))  # each word's first row
        np.minimum.at(first, col.values, np.arange(len(col)))
        # A text column holds a non-number, so the loop breaks.
        for i in np.sort(first).tolist():
            v = col.words[col.values[i]]
            if not column_from_strings([v.encode("utf-8")]).is_numeric:
                break
        if i < _TYPE_INFER_ROWS:
            return col
        raise LoadError(
            f"type conflict in column {attr!r}: row {i + 1} value {v!r} is not numeric"
        )

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
    order and probed with each old value would give them. Text keys are
    the new side's codes, and each old word is mapped once to the new
    side's code for it (-1 when absent). A NaN key matches nothing, -0.0
    matches 0.0, and a numeric side matches no text side."""
    if old.is_numeric != new.is_numeric:
        return np.zeros(len(old), dtype=np.int64), np.empty(0, dtype=np.int64)
    new_keys = new.values
    if old.is_numeric:
        old_keys = old.values
    else:
        code = {w: i for i, w in enumerate(new.words)}
        old_keys = np.fromiter((code.get(w, -1) for w in old.words), dtype=np.int32,
                               count=len(old.words))[old.values]
    order = np.argsort(new_keys, kind="stable")
    sorted_keys = new_keys[order]
    lo = np.searchsorted(sorted_keys, old_keys, side="left")
    counts = np.searchsorted(sorted_keys, old_keys, side="right") - lo
    if old.is_numeric:
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
    header = f"{col.type} {len(col)}\n".encode("ascii")
    if col.is_numeric:
        payload = col.values.astype("<f8").tobytes()
    else:
        payload = _text_blob(col)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
    return len(header) + len(payload)


def _text_blob(col: Column) -> bytes:
    """The values of a text column as UTF-8, joined by newlines: each row's
    word and the newline after it gathered by one fancy index from the
    words' own bytes, each followed by a newline, and the last newline
    dropped. The index is as long as the blob, so it takes the narrowest
    signed dtype that holds its offsets."""
    encoded = [w.encode("utf-8") + b"\n" for w in col.words]
    words = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    sizes = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    lengths = sizes[col.values]
    ends = np.cumsum(lengths)
    dtype = np.min_scalar_type(-max(len(words), int(ends[-1]) if len(ends) else 0))
    # Blob byte i copies words byte i + start - offset of its row's word,
    # offset being where that row lands in the blob.
    index = np.repeat(((np.cumsum(sizes) - sizes)[col.values] - (ends - lengths)).astype(dtype),
                      lengths)
    index += np.arange(len(index), dtype=dtype)
    return words.take(index)[:-1].tobytes()


def _read_column(path) -> tuple[Column, int]:
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.index(b"\n")
    kind, count_s = raw[:nl].decode("ascii").split()
    count = int(count_s)
    payload = raw[nl + 1 :]
    if kind == FLOAT_TYPE:
        values = np.frombuffer(payload, dtype="<f8", count=len(payload) // 8)
        col = Column(values.astype(np.float64))
    else:
        # "" splits to [b""], which is one empty value, not zero values.
        col = text_column([payload.split(b"\n") if count or payload else []])
    if len(col) != count:
        raise LoadError(f"{path}: header says {count} values, file holds {len(col)}")
    return col, len(raw)


def _write_journal(path, csv_path) -> int:
    """Append every input record verbatim, fsynced once per load."""
    with open(csv_path, "rb") as src:
        src.readline()  # header is schema, not a record
        body = src.read()
    with open(path, "wb") as out:
        out.write(body)
        out.flush()
        os.fsync(out.fileno())
    return len(body)


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
    # LF only: a column name may hold "\r" or another line break of
    # `str.splitlines`, and text mode would translate a lone "\r".
    lines = meta.read_bytes().decode("utf-8").removesuffix("\n").split("\n")
    row_count = int(lines[0])
    attrs: list[str] = []
    types: dict[str, str] = {}
    minmax: dict[str, tuple | None] = {}
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
    return TableStore(
        directory=directory,
        attrs=attrs,
        types=types,
        row_count=row_count,
        minmax=minmax,
    )
