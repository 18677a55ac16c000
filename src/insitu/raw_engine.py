"""In-situ query engine over CSV files.

Tokenizes at query time, keeps parsed columns in a RAM-budgeted LRU cache,
stops LIMIT scans at the row that completes the result, and runs joins as
deliberately unindexed nested loops. The engine never writes to disk; all
caching and indexing is in memory.

One query executes at a time per instance; instances may move between
threads but are not safe for concurrent execution.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .cache import ColumnCache
from .errors import FormatError, JoinGuardError, SchemaError
from .query_model import QueryAst, needed_attrs
from .tabular import (
    Column,
    ExecStats,
    ResultSet,
    filter_rows,
    join_stage,
    parse_field,
    predicate_row_test,
    project,
    read_header,
    scan_csv,
)

DEFAULT_CACHE_BUDGET = 1 << 30  # 1 GiB
DEFAULT_JOIN_GUARD = 1_000_000_000

_SCAN_CHUNK = 1 << 16


@dataclass(frozen=True)
class PositionalMap:
    """Byte offsets of row starts in a raw file, built on first full scan."""

    path: str
    row_offsets: tuple[int, ...]

    @property
    def row_count(self) -> int:
        return len(self.row_offsets)


def build_positional_map(path) -> PositionalMap:
    """Scan a CSV file and index every data-row start offset."""
    scan = scan_csv(path, wanted=())
    return PositionalMap(path=str(path), row_offsets=tuple(scan.row_offsets.tolist()))


class RawEngine:
    def __init__(
        self,
        cache: ColumnCache | None = None,
        cache_budget_bytes: int = DEFAULT_CACHE_BUDGET,
        join_guard_pairs: int = DEFAULT_JOIN_GUARD,
    ):
        self.cache = cache if cache is not None else ColumnCache(cache_budget_bytes)
        self.join_guard_pairs = int(join_guard_pairs)
        self.files: dict[str, str] = {}
        self.total_bytes_written = 0  # in-situ contract: stays 0
        self._headers: dict[str, list[str]] = {}
        self._row_counts: dict[str, int] = {}

    # -- registration / maintenance ------------------------------------

    def register(self, table: str, path) -> None:
        self.files[table] = str(path)

    def copy_table(self, table: str, path) -> float:
        """COPY is a no-op here beyond remembering the file; zero load time."""
        self.register(table, path)
        return 0.0

    def truncate_table(self, table: str) -> float:
        """Drop cached state for a table; the raw file is left untouched."""
        path = self.files.get(table)
        if path is not None:
            self.cache.drop_matching(lambda key: key[0] == path)
            self._headers.pop(path, None)
            self._row_counts.pop(path, None)
        return 0.0

    def clear_cache(self) -> None:
        """Forget all cached columns and row counts; next run is cold."""
        self.cache.clear()
        self._headers.clear()
        self._row_counts.clear()

    # -- execution ------------------------------------------------------

    def execute(self, ast: QueryAst, files=None) -> tuple[ResultSet, ExecStats]:
        file_map = dict(self.files)
        if files:
            file_map.update({t: str(p) for t, p in files.items()})
        paths = {}
        for table in ast.tables:
            if table not in file_map:
                raise SchemaError(f"no file registered for table {table!r}")
            if not os.path.exists(file_map[table]):
                raise SchemaError(
                    f"file {file_map[table]!r} for table {table!r} does not exist"
                )
            paths[table] = file_map[table]

        stats = ExecStats()
        self.cache.begin_peak_window()
        start = time.perf_counter()

        needed = needed_attrs(ast, lambda table: self._header(paths[table]))
        if ast.joins:
            result = self._execute_join(ast, paths, needed, stats)
        else:
            result = self._execute_single(ast, paths, needed, stats)

        stats.duration_ms = (time.perf_counter() - start) * 1000.0
        stats.peak_cache_bytes = self.cache.window_peak_bytes
        return result, stats

    def _header(self, path: str) -> list[str]:
        header = self._headers.get(path)
        if header is None:
            header = read_header(path)
            self._headers[path] = header
        return header

    def _execute_single(self, ast, paths, needed, stats) -> ResultSet:
        table = ast.tables[0]
        path = paths[table]
        attrs = needed[table]

        if ast.limit is not None and not ast.is_count:
            cached = all((path, bare) in self.cache for bare in attrs)
            if not cached:
                return self._stream_limit_scan(ast, table, path, stats)

        cols = self._ensure_columns(path, attrs, stats)
        qcols = {f"{table}.{bare}": col for bare, col in cols.items()}
        nrows = self._row_counts[path]
        indices = filter_rows(qcols, ast.predicates, nrows)
        stats.rows_scanned = nrows
        if ast.is_count:
            return ResultSet(columns=("count",), rows=[(len(indices),)])
        if ast.limit is not None and len(indices) >= ast.limit:
            indices = indices[: ast.limit]
            stats.rows_scanned = int(indices[-1]) + 1
            stats.early_stop = stats.rows_scanned < nrows
        return project(ast.projections, qcols, {table: indices})

    def _ensure_columns(self, path, attrs, stats, pinned=None) -> dict[str, Column]:
        """Fetch the named columns, parsing the file once for any misses.

        A file whose row count is not yet known is scanned for structure
        even when no column is missing. ``pinned`` widens eviction
        protection to the whole query working set when a query spans
        several tables.
        """
        keys = {bare: (path, bare) for bare in attrs}
        cols: dict[str, Column] = {}
        missing = []
        for bare, key in keys.items():
            col = self.cache.get(key)
            if col is None:
                missing.append(bare)
            else:
                cols[bare] = col
        stats.cache_hit_columns += len(attrs) - len(missing)
        if missing or path not in self._row_counts:
            scan = scan_csv(path, wanted=missing)
            stats.bytes_read_from_disk += scan.file_bytes
            self._row_counts[path] = scan.row_count
            protect = set(keys.values()) | (pinned or set())
            for bare in missing:
                col = scan.columns[bare]
                self.cache.put(keys[bare], col, pinned=protect)
                cols[bare] = col
        return cols

    def _stream_limit_scan(self, ast, table, path, stats) -> ResultSet:
        """Row-at-a-time scan that stops at the row completing the LIMIT.

        Bytes are accounted at row granularity: the tally is the end offset
        of the last examined line, not the read-ahead chunk size.
        """
        header = self._header(path)
        ncols = len(header)
        prefix = table + "."
        tests = [
            (header.index(p.attr[len(prefix):]), predicate_row_test(p.op, p.literal))
            for p in ast.predicates
        ]
        proj_idx = [header.index(a[len(prefix):]) for a in ast.projections]

        rows: list[tuple] = []
        row_no = 0
        file_size = os.path.getsize(path)
        with open(path, "rb") as f:
            consumed = len(f.readline())  # the header
            for line, consumed in _data_lines(f, consumed):
                row_no += 1
                fields = line.split(b",")
                if len(fields) != ncols:
                    raise FormatError(
                        f"{path}: data row {row_no} has {len(fields)} fields, "
                        f"expected {ncols}"
                    )
                if all(test(fields[i]) for i, test in tests):
                    rows.append(tuple(parse_field(fields[i]) for i in proj_idx))
                    if len(rows) >= ast.limit:
                        break
            else:
                consumed = file_size  # trailing blank lines are read too

        consumed = min(consumed, file_size)
        stats.bytes_read_from_disk += consumed
        stats.rows_scanned = row_no
        stats.early_stop = consumed < file_size
        return ResultSet(columns=tuple(ast.projections), rows=rows)

    def _execute_join(self, ast, paths, needed, stats) -> ResultSet:
        all_keys = {
            (paths[t], bare) for t, attrs in needed.items() for bare in attrs
        }
        qcols: dict[str, Column] = {}
        counts: dict[str, int] = {}
        for table in ast.tables:
            cols = self._ensure_columns(
                paths[table], needed[table], stats, pinned=all_keys
            )
            counts[table] = self._row_counts[paths[table]]
            for bare, col in cols.items():
                qcols[f"{table}.{bare}"] = col

        first = ast.tables[0]
        inter = {first: np.arange(counts[first])}
        work = 0
        for new_table, join in zip(ast.tables[1:], ast.joins):
            work += len(inter[first]) * counts[new_table]
            if work > self.join_guard_pairs:
                raise JoinGuardError(work, self.join_guard_pairs)
            inter = join_stage(
                inter, join, new_table, np.arange(counts[new_table]), qcols,
                _nested_loop_match,
            )

        # Predicates run on the join output: the in-situ join is unfiltered.
        at_inter = {
            p.attr: qcols[p.attr].gather(inter[p.attr.split(".", 1)[0]])
            for p in ast.predicates
        }
        sel = filter_rows(at_inter, ast.predicates, len(inter[first]))
        stats.rows_scanned = sum(counts.values())
        if ast.is_count:
            return ResultSet(columns=("count",), rows=[(len(sel),)])
        if ast.limit is not None and len(sel) > ast.limit:
            sel = sel[: ast.limit]
            stats.early_stop = True
        return project(ast.projections, qcols, {t: idx[sel] for t, idx in inter.items()})


def _data_lines(f, offset: int):
    """Yield each line of `f` with the byte offset just past it.

    A line loses its newline and one "\\r" before it. Blank lines are held
    back until a non-blank line follows, so trailing blank lines are never
    yielded and a blank line inside the data is a one-field row.
    """
    buf = b""
    held: list[int] = []
    while True:
        chunk = f.read(_SCAN_CHUNK)
        buf += chunk
        pos = 0
        while True:
            nl = buf.find(b"\n", pos)
            if nl < 0:
                if chunk or pos >= len(buf):
                    break
                nl = len(buf)  # last line, no newline
            line = buf[pos:nl]
            offset += nl + 1 - pos
            pos = nl + 1
            if line.endswith(b"\r"):
                line = line[:-1]
            if not line:
                held.append(offset)
                continue
            for end in held:
                yield b"", end
            held.clear()
            yield line, offset
        buf = buf[pos:]
        if not chunk:
            return


def _nested_loop_match(old: Column, new: Column):
    """Join kernel: every old value against every new row, unindexed.
    O(n*m) comparisons by design."""
    if old.is_numeric and new.is_numeric:
        new_arr = new.values

        def matches(v):
            return np.flatnonzero(new_arr == v)
    else:
        new_list = new.tolist()

        def matches(v):
            return np.asarray([j for j, w in enumerate(new_list) if w == v], dtype=np.int64)

    counts = np.zeros(len(old), dtype=np.int64)
    hits = []
    for k, v in enumerate(old.tolist()):
        m = matches(v)
        if len(m):
            counts[k] = len(m)
            hits.append(m)
    return counts, np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
