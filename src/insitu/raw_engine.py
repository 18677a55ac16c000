"""In-situ query engine over CSV files.

Tokenizes at query time, keeps parsed columns in a RAM-budgeted LRU cache,
stops LIMIT scans at the window that completes the result, and runs joins
as deliberately unindexed nested loops. Every read of a data file goes
through `tabular.CsvReader`. A LIMIT scan iterates it, 64 KiB first and
doubling to 1 MiB, and types each window once; a column that a later
window turns from numeric to text sends the query to a full scan, whose
bytes are counted too. A full scan (`tabular.scan_csv`) reads the rest of
the file whole after its header, into one buffer (`tabular` says why). The
engine never writes to disk; all caching is in memory.

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
    CsvReader,
    ExecStats,
    ResultSet,
    RowMap,
    count_result,
    cut_column,
    cut_text,
    file_stamp,
    filter_rows,
    join_keys,
    join_stage,
    merge_pieces,
    project,
    read_header,
    scan_csv,
)

DEFAULT_CACHE_BUDGET = 1 << 30  # 1 GiB
DEFAULT_JOIN_GUARD = 1_000_000_000

_SCAN_CHUNK = 1 << 16  # a LIMIT scan's first read


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
            result = None if cached else self._limit_scan(ast, table, path, attrs, stats)
            if result is not None:
                return result

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

    def _limit_scan(self, ast, table, path, attrs, stats) -> ResultSet | None:
        """Read the file through `tabular.CsvReader`, `_SCAN_CHUNK` bytes
        first and doubling to 1 MiB, and stop at the window that completes
        the LIMIT.

        Each window's wanted columns are cut once and filtered there; the
        result is projected from the pieces joined (`merge_pieces`). A
        column is typed by its first window: text there, it is cut as text
        from later windows; numeric there and made text by a later window,
        the scan ends with None, for the full-scan path to answer, and
        counts the bytes to the end of that window. Otherwise bytes are
        accounted at row granularity: the tally is the end offset of the
        row completing the LIMIT, not the read-ahead size.
        """
        record = self._records[path]
        file_size = record.seen[0]
        cols = {f"{table}.{bare}": record.header.index(bare) for bare in attrs}
        pieces = {attr: [] for attr in cols}
        hits, found, rows, read = [], 0, 0, file_size
        with CsvReader(path, _SCAN_CHUNK) as reader:
            offset = reader.file_bytes  # where the window starts in the file
            for buf, rowmap, size in reader:
                for attr, got in pieces.items():
                    cut = cut_text if got and not got[0].is_numeric else cut_column
                    got.append(cut(buf, rowmap, cols[attr]))
                    if got[-1].is_numeric != got[0].is_numeric:
                        stats.bytes_read_from_disk += min(offset + size, file_size)
                        return None
                window = {attr: got[-1] for attr, got in pieces.items()}
                hit = filter_rows(window, ast.predicates, len(rowmap))[: ast.limit - found]
                hits.append(hit + rows)
                found += len(hit)
                if found == ast.limit:
                    last = int(hit[-1])
                    line_end = int(rowmap.line_starts[last]) + int(rowmap.ends[last, -1])
                    read = min(offset + buf.find(b"\n", line_end) + 1, file_size)
                    rows += last + 1
                    break
                rows += len(rowmap)
                offset += size
                del buf, rowmap  # before the next read

        stats.rows_scanned = rows
        stats.bytes_read_from_disk += read
        stats.early_stop = read < file_size
        qcols = {attr: merge_pieces(got) for attr, got in pieces.items()}
        return project(ast.projections, qcols, {table: np.concatenate(hits)})

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
