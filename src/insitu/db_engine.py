"""Load-then-query columnar engine.

COPY-style bulk load converts CSV into typed binary column files (optionally
journaling every input record verbatim first), records per-column min/max,
and answers queries over the loaded columns with in-memory caching, min/max
pruning, and hash joins.

On-disk layout per table: `<data_dir>/<table>/<attr>.col` files, a text
`meta` file (row count, per-column type and min/max), and `journal.log`
when journaling is on. A `.col` file is a `<type> <count>` ASCII line, then
either `count` little-endian float64 values or the text values as one
newline-joined UTF-8 blob (the CSV contract forbids newlines in fields).
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
    filter_rows,
    join_stage,
    project,
    scan_csv,
)

DEFAULT_CACHE_BUDGET = 1 << 30

_TYPE_INFER_ROWS = 1000


@dataclass
class TableStore:
    """Metadata for one loaded table; column payloads stay on disk."""

    table: str
    directory: Path
    attrs: list[str]
    types: dict[str, str]
    row_count: int
    minmax: dict[str, tuple | None] = field(default_factory=dict)

    def col_path(self, attr: str) -> Path:
        return self.directory / f"{attr}.col"

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
        cache: ColumnCache | None = None,
        cache_budget_bytes: int = DEFAULT_CACHE_BUDGET,
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.cache = cache if cache is not None else ColumnCache(cache_budget_bytes)
        self.stores: dict[str, TableStore] = {}
        self.total_bytes_written = 0

    # -- loading ----------------------------------------------------------

    def has_table(self, table: str) -> bool:
        return table in self.stores or (self.data_dir / table / "meta").exists()

    def load_table(self, csv_path, table: str, journal: bool = False) -> LoadStats:
        """Bulk-load a CSV file into typed binary column files.

        A table that already holds rows must be truncated first.
        """
        existing = self.stores.get(table)
        if existing is not None and existing.row_count > 0:
            raise LoadError(f"table {table!r} is already loaded; truncate it first")

        start = time.perf_counter()
        scan = scan_csv(csv_path)
        attrs = scan.header

        directory = self.data_dir / table
        tmp_dir = self.data_dir / f".{table}.loading"
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)

        stats = LoadStats(rows_loaded=scan.row_count, input_bytes=scan.file_bytes)
        try:
            if journal:
                stats.journal_bytes = _write_journal(tmp_dir / "journal.log", csv_path)
            types: dict[str, str] = {}
            minmax: dict[str, tuple | None] = {}
            binary = 0
            for attr in attrs:
                col = self._coerce_for_load(scan.columns[attr], attr)
                types[attr] = col.type
                minmax[attr] = _column_minmax(col)
                binary += _write_column(tmp_dir / f"{attr}.col", col)
            stats.binary_bytes = binary
            store = TableStore(
                table=table,
                directory=directory,
                attrs=attrs,
                types=types,
                row_count=scan.row_count,
                minmax=minmax,
            )
            _write_meta(tmp_dir / "meta", store)
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
        """Re-apply type inference on a row prefix so a conflicting value
        later in the file aborts the load (the whole-column rule would have
        silently fallen back to text)."""
        if col.is_numeric:
            return col
        prefix = col.values[:_TYPE_INFER_ROWS]
        try:
            [float(v) for v in prefix]
        except ValueError:
            return col  # inferred text from the prefix: consistent
        for i, v in enumerate(col.values):
            try:
                float(v)
            except ValueError:
                raise LoadError(
                    f"type conflict in column {attr!r}: row {i + 1} value {v!r} "
                    "is not numeric"
                ) from None
        return Column(np.asarray(col.values, dtype=np.float64))

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
                return ResultSet(columns=("count",), rows=[(0,)]), stats
            return ResultSet(columns=tuple(ast.projections), rows=[]), stats

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
            return ResultSet(columns=("count",), rows=[(len(indices),)])
        stats.rows_scanned = nrows
        if ast.limit is not None and len(indices) > ast.limit:
            indices = indices[: ast.limit]
            stats.early_stop = True
        return project(ast.projections, qcols, {ast.tables[0]: indices})

    def _execute_join(self, ast, stores, qcols, stats) -> ResultSet:
        # Pre-filter each table with its own predicates, then left-deep hash
        # joins probing in intermediate order so pair enumeration matches the
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
            return ResultSet(columns=("count",), rows=[(len(inter[first]),)])
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
        lit = pred.literal if isinstance(pred.literal, str) else repr(float(pred.literal))
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
    """Join kernel: build a hash table on the new rows, probe it with each
    old value in order."""
    buckets: dict = {}
    for pos, v in enumerate(new.tolist()):
        buckets.setdefault(v, []).append(pos)
    counts = np.zeros(len(old), dtype=np.int64)
    hits: list[int] = []
    for k, v in enumerate(old.tolist()):
        hit = buckets.get(v)
        if hit:
            counts[k] = len(hit)
            hits.extend(hit)
    return counts, np.asarray(hits, dtype=np.int64)


def _column_minmax(col: Column):
    if len(col) == 0:
        return None
    if col.is_numeric:
        return float(col.values.min()), float(col.values.max())
    return min(col.values), max(col.values)


def _write_column(path, col: Column) -> int:
    header = f"{col.type} {len(col)}\n".encode("ascii")
    if col.is_numeric:
        payload = col.values.astype("<f8").tobytes()
    else:
        payload = "\n".join(col.values).encode("utf-8")
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)
    return len(header) + len(payload)


def _read_column(path) -> tuple[Column, int]:
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.index(b"\n")
    kind, count_s = raw[:nl].decode("ascii").split()
    count = int(count_s)
    payload = raw[nl + 1 :]
    if kind == FLOAT_TYPE:
        values = np.frombuffer(payload, dtype="<f8", count=len(payload) // 8)
        values = values.astype(np.float64)
    else:
        # "" splits to [""], which is one empty value, not zero values.
        values = payload.decode("utf-8").split("\n") if count or payload else []
    if len(values) != count:
        raise LoadError(f"{path}: header says {count} values, file holds {len(values)}")
    return Column(values), len(raw)


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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_meta(directory) -> TableStore | None:
    directory = Path(directory)
    meta = directory / "meta"
    if not meta.exists():
        return None
    lines = meta.read_text(encoding="utf-8").splitlines()
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
        table=directory.name,
        directory=directory,
        attrs=attrs,
        types=types,
        row_count=row_count,
        minmax=minmax,
    )
