"""In-situ query engine over CSV files.

Tokenizes at query time, keeps parsed columns in a RAM-budgeted LRU cache,
stops LIMIT scans at the chunk that completes the result, and runs joins as
deliberately unindexed nested loops. A LIMIT scan splits each byte it reads
once: each chunk's completed lines extend the prefix's positional map
(`tabular.LineSplit`). Every column it reads, from a whole file or from a
LIMIT scan's prefix, is typed by `tabular.cut_column`. The engine never
writes to disk; all caching is in memory.

Per data file the engine keeps one record: its header, the (size,
mtime_ns) it had when first seen, and, from the first full tokenization,
its positional map (`tabular.RowMap`: line starts plus narrow per-field
end offsets, about a tenth of the file for short lines). A later column
miss on the file still reads it whole, but cuts the fields straight from
the map instead of searching every comma and newline again. The map is
not charged to the column budget: charged, it evicts columns, and every
extra miss rereads the file, which raised `raw-explore`'s read
amplification from 82.5 to 114.1 in a measurement. A record, map and the
file's cached columns are dropped together when `execute` sees the file's
size or mtime change, and by `truncate_table` and `clear_cache`.

One query executes at a time per instance; instances may move between
threads but are not safe for concurrent execution.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .cache import ColumnCache
from .errors import JoinGuardError, SchemaError
from .query_model import QueryAst, needed_attrs
from .tabular import (
    Column,
    ExecStats,
    LineSplit,
    ResultSet,
    RowMap,
    count_result,
    cut_column,
    file_stamp,
    filter_rows,
    join_keys,
    join_stage,
    project,
    read_header,
    scan_csv,
)

DEFAULT_CACHE_BUDGET = 1 << 30  # 1 GiB
DEFAULT_JOIN_GUARD = 1_000_000_000

_SCAN_CHUNK = 1 << 16


@dataclass
class _FileRecord:
    """What the engine knows of one data file while its (size, mtime_ns)
    stays `seen`."""

    seen: tuple[int, int]
    header: list[str]
    rowmap: RowMap | None = None  # from the first full tokenization


class RawEngine:
    def __init__(
        self,
        cache_budget_bytes: int = DEFAULT_CACHE_BUDGET,
        join_guard_pairs: int = DEFAULT_JOIN_GUARD,
    ):
        self.cache = ColumnCache(cache_budget_bytes)
        self.join_guard_pairs = int(join_guard_pairs)
        self.files: dict[str, str] = {}
        self.total_bytes_written = 0  # in-situ contract: stays 0
        self._records: dict[str, _FileRecord] = {}

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
            self._forget(path)
        return 0.0

    def clear_cache(self) -> None:
        """Forget all cached columns and file records; next run is cold."""
        self.cache.clear()
        self._records.clear()

    def _forget(self, path: str) -> None:
        self.cache.drop_matching(lambda key: key[0] == path)
        self._records.pop(path, None)

    # -- execution ------------------------------------------------------

    def execute(self, ast: QueryAst, files=None) -> tuple[ResultSet, ExecStats]:
        file_map = dict(self.files)
        if files:
            file_map.update({t: str(p) for t, p in files.items()})
        paths, seen = {}, {}
        for table in ast.tables:
            if table not in file_map:
                raise SchemaError(f"no file registered for table {table!r}")
            path = paths[table] = file_map[table]
            try:
                st = os.stat(path)
            except OSError:
                raise SchemaError(
                    f"file {path!r} for table {table!r} does not exist"
                ) from None
            seen[path] = file_stamp(st)
        for path, now in seen.items():
            record = self._records.get(path)
            if record is None or record.seen != now:
                self._forget(path)
                self._records[path] = _FileRecord(now, read_header(path))

        stats = ExecStats()
        self.cache.begin_peak_window()
        start = time.perf_counter()

        needed = needed_attrs(ast, lambda table: self._records[paths[table]].header)
        if ast.joins:
            result = self._execute_join(ast, paths, needed, stats)
        else:
            result = self._execute_single(ast, paths, needed, stats)

        stats.duration_ms = (time.perf_counter() - start) * 1000.0
        stats.peak_cache_bytes = self.cache.window_peak_bytes
        stats.rowmap_bytes = sum(
            r.rowmap.nbytes for r in self._records.values() if r.rowmap is not None
        )
        return result, stats

    def _execute_single(self, ast, paths, needed, stats) -> ResultSet:
        table = ast.tables[0]
        path = paths[table]
        attrs = needed[table]

        if ast.limit is not None and not ast.is_count:
            cached = all((path, bare) in self.cache for bare in attrs)
            if not cached:
                return self._limit_scan(ast, table, path, attrs, stats)

        cols = self._ensure_columns(path, attrs, stats)
        qcols = {f"{table}.{bare}": col for bare, col in cols.items()}
        nrows = len(self._records[path].rowmap)
        indices = filter_rows(qcols, ast.predicates, nrows)
        stats.rows_scanned = nrows
        if ast.is_count:
            return count_result(len(indices))
        if ast.limit is not None and len(indices) >= ast.limit:
            indices = indices[: ast.limit]
            stats.rows_scanned = int(indices[-1]) + 1
            stats.early_stop = stats.rows_scanned < nrows
        return project(ast.projections, qcols, {table: indices})

    def _ensure_columns(self, path, attrs, stats, pinned=None) -> dict[str, Column]:
        """Fetch the named columns, parsing the file once for any misses.

        A file without a positional map is scanned for structure even when
        no column is missing, and the scan's map is kept; misses on a file
        with a map are cut from it. ``pinned`` widens eviction protection
        to the whole query working set when a query spans several tables.
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
        record = self._records[path]
        if missing or record.rowmap is None:
            stats.structure_scans += record.rowmap is None
            scan = scan_csv(path, wanted=missing, rowmap=record.rowmap)
            stats.bytes_read_from_disk += scan.file_bytes
            record.rowmap = scan.rowmap
            protect = set(keys.values()) | (pinned or set())
            for bare in missing:
                col = scan.columns[bare]
                self.cache.put(keys[bare], col, pinned=protect)
                cols[bare] = col
        return cols

    def _limit_scan(self, ast, table, path, attrs, stats) -> ResultSet:
        """Read the file in doubling chunks, stopping at the chunk that
        completes the LIMIT.

        The buffer starts with the header line, so its map's offsets are
        file offsets. Each round splits only the lines its chunk completed
        (`tabular.LineSplit`, which carries the partial last line and any
        blank lines still waiting), so each byte is split once, and types
        the wanted columns over the whole prefix with `cut_column`, as a
        full scan does, then filters them. Bytes are accounted at row
        granularity: the tally is the end offset of the row completing the
        LIMIT, not the read-ahead size.
        """
        record = self._records[path]
        header = record.header
        file_size = record.seen[0]
        chunk = _SCAN_CHUNK
        with open(path, "rb") as f:
            buf = f.readline()  # the header
            split = LineSplit(len(header), path, len(buf))
            while True:
                buf += f.read(chunk)
                chunk *= 2
                at_eof = len(buf) >= file_size
                if at_eof and not buf.endswith(b"\n"):
                    buf += b"\n"
                split.extend(buf)
                rowmap, row_ends = split.rowmap()
                qcols = {
                    f"{table}.{bare}": cut_column(buf, rowmap, header.index(bare))
                    for bare in attrs
                }
                hits = filter_rows(qcols, ast.predicates, len(rowmap))
                if at_eof or len(hits) >= ast.limit:
                    break

        hits = hits[: ast.limit]
        stats.rows_scanned, read = len(rowmap), file_size
        if len(hits) == ast.limit:
            stats.rows_scanned = int(hits[-1]) + 1
            read = min(int(row_ends[hits[-1]]), file_size)
        stats.bytes_read_from_disk += read
        stats.early_stop = read < file_size
        return project(ast.projections, qcols, {table: hits})

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
            counts[table] = len(self._records[paths[table]].rowmap)
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
            p.attr: qcols[p.attr].take(inter[p.attr.split(".", 1)[0]])
            for p in ast.predicates
        }
        sel = filter_rows(at_inter, ast.predicates, len(inter[first]))
        stats.rows_scanned = sum(counts.values())
        if ast.is_count:
            return count_result(len(sel))
        if ast.limit is not None and len(sel) > ast.limit:
            sel = sel[: ast.limit]
            stats.early_stop = True
        return project(ast.projections, qcols, {t: idx[sel] for t, idx in inter.items()})


def _nested_loop_match(old: Column, new: Column):
    """Join kernel: every old key against every new row, unindexed.
    O(n*m) comparisons by design. The keys are `join_keys`."""
    counts = np.zeros(len(old), dtype=np.int64)
    keys = join_keys(old, new)
    if keys is None:
        return counts, np.empty(0, dtype=np.int64)
    old_keys, new_keys = keys
    hits = []
    for k, key in enumerate(old_keys.tolist()):
        m = np.flatnonzero(new_keys == key)
        if len(m):
            counts[k] = len(m)
            hits.append(m)
    return counts, np.concatenate(hits) if hits else np.empty(0, dtype=np.int64)
