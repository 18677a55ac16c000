"""Per-task resource monitoring.

Sampler loops read a stat source at a fixed frequency, tag each tick with
the task ID currently in the shared register (tag-at-read: attribution races
are bounded by one sampling period), buffer, and append to a CSV result file
whenever a record threshold is reached. The workload runner interrupts the
sampler; remaining buffered samples are drained on stop.

The stat source decides what a tick holds: which processes are watched is
settled when the source reads (see ``stat_sources``), and the monitor records
every reading it is given. Each tick becomes one TOTAL sample for the system
fragment plus one PROC sample per process reading. Samples are held as
columns (`SampleColumns`), which the CSV writer and the analyzer read:

* ``start_monitor`` spawns one background sampler thread that reads a live
  source (``read_tick``) and records each tick through ``_SampleSink.add_tick``;
* ``run_scripted`` records a script against a register timeline
  synchronously, producing byte-identical output for identical scripts. A
  synthetic script's arrays become the columns directly, tagged with one
  ``np.searchsorted`` over the timeline; a list of (time_s, reading) pairs
  goes tick by tick through ``add_tick``.

`ROW_LAYOUT` says which reading attribute fills each value field of a TOTAL
and of a PROC row; both paths read it.

Output CSV columns, in order:
``ts_ms,task_id,scope,process,cpu_pct,mem_pct,rss_bytes,read_Bps,write_Bps,io_wait_pct``
with scope TOTAL or PROC and missing fields left empty; a PROC row's
``process`` is the name the source reported (``comm`` for procfs). A mid-run
source failure is recorded as a gap marker row (scope TOTAL, process
``source-gap``, all metrics empty) and sampling continues.
"""
from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, MonitorError
from .stat_sources import ScriptColumns, TickReading

IDLE_TASK = "IDLE"

SCOPE_TOTAL = "TOTAL"
SCOPE_PROC = "PROC"

# samples.csv value field -> the `SystemReading` attribute a TOTAL row takes
# and the `ProcessReading` attribute a PROC row takes; None where it has none.
ROW_LAYOUT = {
    "cpu_pct": ("cpu_busy_pct", "cpu_pct"),
    "mem_pct": ("mem_used_pct", "mem_pct"),
    "rss_bytes": (None, "rss_bytes"),
    "read_Bps": ("read_Bps", "read_Bps"),
    "write_Bps": ("write_Bps", "write_Bps"),
    "io_wait_pct": ("io_wait_pct", None),
}

VALUE_FIELDS = tuple(ROW_LAYOUT)

SAMPLE_COLUMNS = ("ts_ms", "task_id", "scope", "process", *VALUE_FIELDS)

_TOTAL_ATTRS, _PROC_ATTRS = zip(*ROW_LAYOUT.values())

GAP_PROCESS = "source-gap"


class TaskRegister:
    """Single writer, many readers; reads and writes are whole-ID atomic."""

    def __init__(self):
        self._lock = threading.Lock()
        self._task_id = IDLE_TASK

    def set(self, task_id: str) -> None:
        with self._lock:
            self._task_id = task_id

    def get(self) -> str:
        with self._lock:
            return self._task_id


@dataclass
class Sample:
    """One sample as a record: what iterating `SampleColumns` yields. It is a
    copy, so it is not frozen; a frozen dataclass takes about 2.5 times as
    long to build."""

    ts_ms: int
    task_id: str
    scope: str
    process: str | None = None
    cpu_pct: float | None = None
    mem_pct: float | None = None
    rss_bytes: int | None = None
    read_Bps: float | None = None
    write_Bps: float | None = None
    io_wait_pct: float | None = None


@dataclass
class MonitorConfig:
    frequency_hz: float = 1.0
    flush_threshold_records: int = 512
    output_path: str | Path = "samples.csv"

    def validate(self) -> None:
        if not self.frequency_hz > 0:  # NaN too
            raise ConfigError("monitor frequency must be positive")
        if self.frequency_hz == math.inf:
            raise ConfigError("monitor frequency must be finite")
        if self.flush_threshold_records < 1:
            raise ConfigError(
                f"flush_threshold_records must be >= 1, got {self.flush_threshold_records}"
            )


@dataclass
class FlushReport:
    samples_total: int = 0
    flush_count: int = 0
    gap_rows: int = 0
    max_buffered: int = 0


def _fmt(v) -> str:
    if v is None:
        return ""
    if not isinstance(v, float):
        return str(v)
    # round(v, 6) is v itself when repr(v) has at most six decimals (or v is
    # an integer >= 1e16), so only the other floats pay for the rounding.
    text = repr(v)
    if "e-" in text or len(text) - text.find(".") > 7:
        text = repr(round(v, 6))
    return text


def _fmt_column(values: np.ndarray, present: np.ndarray) -> list[str]:
    """`_fmt` over a value column; an absent entry is empty."""
    kept = values[present]
    if kept.dtype.kind == "f":
        # Below 2**32 a float that is the nearest double to a six-place decimal
        # is its own six-place rounding, so `_fmt` is its repr; the others
        # take the scalar path.
        with np.errstate(invalid="ignore", over="ignore"):
            plain = (np.abs(kept) < 2.0 ** 32) & (np.rint(kept * 1e6) / 1e6 == kept)
        vals = kept.tolist()
        text = list(map(repr, vals))
        for i in np.flatnonzero(~plain).tolist():
            text[i] = _fmt(vals[i])
    else:
        text = list(map(str, kept.tolist()))
    if len(text) == len(values):
        return text
    out = np.full(len(values), "", dtype=object)
    out[present] = text
    return out.tolist()


@dataclass(eq=False)
class SampleColumns:
    """Monitor samples in sample order, one array per column.

    ``task`` and ``process`` hold codes into ``task_ids`` and ``processes``
    (where a process may be None), and ``proc`` marks the PROC samples. Each
    value field has an array (float64; ``rss_bytes`` int64) and a presence
    mask: a missing value is False in the mask, so it stays distinct from a
    NaN reading. Iterating yields `Sample` records, built on demand.
    """

    ts_ms: np.ndarray
    task: np.ndarray
    task_ids: list[str]
    proc: np.ndarray
    process: np.ndarray
    processes: list[str | None]
    values: dict[str, np.ndarray]
    present: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.ts_ms)

    def __iter__(self):
        tasks = [self.task_ids[c] for c in self.task.tolist()]
        scopes = [SCOPE_PROC if p else SCOPE_TOTAL for p in self.proc.tolist()]
        procs = [self.processes[c] for c in self.process.tolist()]
        values = [
            [v if p else None for v, p in zip(self.values[f].tolist(), self.present[f].tolist())]
            for f in VALUE_FIELDS
        ]
        return map(Sample, self.ts_ms.tolist(), tasks, scopes, procs, *values)

    def take(self, index) -> "SampleColumns":
        """The samples at ``index`` (a slice, a mask or positions)."""
        return SampleColumns(
            self.ts_ms[index], self.task[index], self.task_ids, self.proc[index],
            self.process[index], self.processes,
            {f: a[index] for f, a in self.values.items()},
            {f: a[index] for f, a in self.present.items()},
        )

    @classmethod
    def from_lists(cls, ts_ms, task_ids, procs, processes, values) -> "SampleColumns":
        """Columns from per-column lists; ``values`` holds one list per value
        field, None where a value is missing."""
        task, task_labels = _codes(task_ids)
        process, process_labels = _codes(processes)
        arrays, present = {}, {}
        for f, col in zip(VALUE_FIELDS, values):
            present[f] = np.array([v is not None for v in col], dtype=bool)
            arrays[f] = np.array([0 if v is None else v for v in col], dtype=_dtype(f))
        return cls(np.array(ts_ms, dtype=np.int64), task, task_labels,
                   np.array(procs, dtype=bool), process, process_labels, arrays, present)


def _row_values(reading, attrs) -> tuple:
    """A row's value fields: ``reading``'s attributes ``attrs``, one side of
    `ROW_LAYOUT`, where None is a field the row does not take."""
    return tuple(None if a is None else getattr(reading, a) for a in attrs)


def _dtype(field: str):
    return np.int64 if field == "rss_bytes" else np.float64


def _codes(labels) -> tuple[np.ndarray, list]:
    index: dict = {}
    codes = [index.setdefault(x, len(index)) for x in labels]
    return np.array(codes, dtype=np.int32), list(index)


def _csv_text(cols: SampleColumns) -> str:
    """The samples.csv rows of ``cols``, formatted a column at a time."""
    if not len(cols):
        return ""
    processes = ["" if p is None else p for p in cols.processes]
    columns = [
        map(str, cols.ts_ms.tolist()),
        [cols.task_ids[c] for c in cols.task.tolist()],
        [SCOPE_PROC if p else SCOPE_TOTAL for p in cols.proc.tolist()],
        [processes[c] for c in cols.process.tolist()],
        *(_fmt_column(cols.values[f], cols.present[f]) for f in VALUE_FIELDS),
    ]
    return "\n".join(map(",".join, zip(*columns))) + "\n"


class _SampleSink:
    """Buffered CSV writer enforcing the flush threshold; single writer.

    Rows arrive a tick at a time (`add_tick`) or as a whole scripted run
    (`add_columns`), and are written a chunk of columns per flush. A gap row
    is held as a TOTAL row of process `GAP_PROCESS` with no values, which is
    how the file shows it; it is no sample.
    """

    def __init__(self, config: MonitorConfig):
        self.config = config
        try:
            self._fh = open(config.output_path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise MonitorError(f"cannot open output {config.output_path}: {exc}") from exc
        self._fh.write(",".join(SAMPLE_COLUMNS) + "\n")
        # add_tick rows, one list per samples.csv column (scope as a PROC flag)
        self._lists: tuple[list, ...] = tuple([] for _ in SAMPLE_COLUMNS)
        self._table: SampleColumns | None = None  # the add_columns run
        self._written = 0
        self.report = FlushReport()

    def _held(self) -> int:
        return len(self._table) if self._table is not None else len(self._lists[0])

    def _rows(self, lo: int, hi: int) -> SampleColumns:
        if self._table is not None:
            return self._table.take(slice(lo, hi))
        ts, task, proc, process, *values = (col[lo:hi] for col in self._lists)
        return SampleColumns.from_lists(ts, task, proc, process, values)

    def _append(self, row: tuple) -> None:
        for col, v in zip(self._lists, row):
            col.append(v)
        if self._held() - self._written >= self.config.flush_threshold_records:
            self._flush()

    def add_tick(self, ts_ms: int, task_id: str, reading: TickReading | None) -> None:
        """Record one tick: a TOTAL sample for the system fragment and a PROC
        sample per process reading, or a gap row when the read failed."""
        if reading is None:
            # A gap row is no sample, but it shares the buffer so that the
            # file stays in time order.
            self.report.gap_rows += 1
            self._append((ts_ms, task_id, False, GAP_PROCESS) + (None,) * len(VALUE_FIELDS))
            return
        if reading.system is not None:
            self.report.samples_total += 1
            row = _row_values(reading.system, _TOTAL_ATTRS)
            self._append((ts_ms, task_id, False, None, *row))
        for p in reading.processes:
            self.report.samples_total += 1
            self._append((ts_ms, task_id, True, p.name, *_row_values(p, _PROC_ATTRS)))

    def add_columns(self, cols: SampleColumns) -> None:
        """Record a whole scripted run on a new sink; full chunks are written
        now, the rest on close, as if its rows had come one at a time."""
        self._table = cols
        self.report.samples_total = len(cols)
        while len(cols) - self._written >= self.config.flush_threshold_records:
            self._flush()

    def _flush(self) -> None:
        hi = min(self._held(), self._written + self.config.flush_threshold_records)
        self._fh.write(_csv_text(self._rows(self._written, hi)))
        self.report.max_buffered = max(self.report.max_buffered, hi - self._written)
        self._written = hi
        self.report.flush_count += 1

    def close(self) -> FlushReport:
        self._flush()  # drain-on-interrupt: final flush even when empty
        self._fh.flush()
        self._fh.close()
        return self.report

    def columns(self) -> SampleColumns:
        """Every sample recorded so far; gap rows are left out."""
        cols = self._rows(0, self._held())
        if self._table is None and self.report.gap_rows:
            gap = cols.processes.index(GAP_PROCESS)
            cols = cols.take(cols.proc | (cols.process != gap))
        return cols


class MonitorHandle:
    """A running threaded monitor; stop() is idempotent and drains buffers."""

    def __init__(self, config: MonitorConfig, source, register: TaskRegister):
        config.validate()
        self.config = config
        self.source = source
        self.register = register
        self._sink = _SampleSink(config)
        self._stop = threading.Event()
        self._report: FlushReport | None = None
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(target=self._run, daemon=True, name="rm-sampler")
        self._thread.start()

    @property
    def samples(self) -> SampleColumns:
        """The samples recorded; read after `stop`."""
        return self._sink.columns()

    def _elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def _run(self) -> None:
        period = 1.0 / self.config.frequency_hz
        k = 1
        while not self._stop.is_set():
            target = k * period
            delay = target - self._elapsed()
            if delay > 0 and self._stop.wait(delay):
                break
            now = self._elapsed()
            ts_ms = int(round(now * 1000.0))
            task = self.register.get()
            try:
                reading = self.source.read_tick()
            except Exception:
                reading = None
            self._sink.add_tick(ts_ms, task, reading)
            # Skip missed ticks rather than trying to catch up.
            k = max(k + 1, int(self._elapsed() / period) + 1)

    def stop(self) -> FlushReport:
        if self._report is not None:
            return self._report
        self._stop.set()
        self._thread.join()
        self._report = self._sink.close()
        return self._report


def start_monitor(config: MonitorConfig, source, register: TaskRegister) -> MonitorHandle:
    return MonitorHandle(config, source, register)


def run_scripted(config: MonitorConfig, script, timeline=()) -> tuple[SampleColumns, FlushReport]:
    """Record a script of ticks deterministically.

    ``script`` is a `ScriptColumns`, recorded from its arrays, or a sequence
    of (time_s, TickReading | None) pairs, recorded one tick at a time
    through `_SampleSink.add_tick`; a None reading is a gap row. ``timeline``
    is a sequence of (time_s, task_id) register events; every event at or
    before a tick is applied before that tick samples, and one
    `np.searchsorted` over it tags every tick. Both must be sorted by time.
    Identical inputs produce byte-identical output files.
    """
    config.validate()
    events = list(timeline)
    if isinstance(script, ScriptColumns):
        times = script.times.tolist()
    else:
        script = list(script)
        times = [t for t, _ in script]
    for what, ts in (("timeline", [t for t, _ in events]), ("script", times)):
        if ts != sorted(ts):
            raise ConfigError(f"{what} must be sorted by time")
    sink = _SampleSink(config)
    task, task_ids = _tag_ticks(events, times)
    if isinstance(script, ScriptColumns):
        sink.add_columns(_script_columns(script, task, task_ids))
    else:
        for (t, reading), code in zip(script, task.tolist()):
            sink.add_tick(int(round(t * 1000.0)), task_ids[code], reading)
    report = sink.close()
    return sink.columns(), report


def _tag_ticks(events, times) -> tuple[np.ndarray, list[str]]:
    """Task codes for the ticks at ``times``, and the task ids they index:
    a tick gets the task of the timeline's last event at or before it, IDLE
    before the first."""
    ids = {IDLE_TASK: 0}
    event_task = [ids.setdefault(task_id, len(ids)) for _, task_id in events]
    last = np.searchsorted(np.array([t for t, _ in events], dtype=np.float64),
                           np.asarray(times, dtype=np.float64), side="right")
    return np.array([0] + event_task, dtype=np.int32)[last], list(ids)


def _script_columns(script: ScriptColumns, tick_task, task_ids) -> SampleColumns:
    """The samples `add_tick` would record for each tick of ``script``: a
    TOTAL row then one PROC row per name."""
    n, width = len(script), 1 + len(script.names)
    processes = list(dict.fromkeys([None, *script.names]))
    row_process = np.array([processes.index(p) for p in (None, *script.names)], dtype=np.int32)

    values, present = {}, {}
    for f, (total, per_proc) in ROW_LAYOUT.items():
        grid = np.zeros((n, width), dtype=_dtype(f))
        mask = np.zeros((n, width), dtype=bool)
        if total is not None:
            grid[:, 0], mask[:, 0] = script.system[total], True
        if per_proc is not None:
            grid[:, 1:], mask[:, 1:] = script.procs[per_proc], True
        values[f], present[f] = grid.ravel(), mask.ravel()
    return SampleColumns(
        ts_ms=np.repeat(np.rint(script.times * 1000.0).astype(np.int64), width),
        task=np.repeat(tick_task, width), task_ids=task_ids,
        proc=np.tile(np.arange(width) > 0, n),
        process=np.tile(row_process, n), processes=processes,
        values=values, present=present,
    )


def read_samples_csv(path) -> SampleColumns:
    """Load a samples.csv written by this module (gap rows are skipped)."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        if header != list(SAMPLE_COLUMNS):
            raise FormatError(f"{path}: unexpected samples header {header!r}")
        rows = [line.rstrip("\n").split(",") for line in f]
    rows = [r for r in rows if len(r) != len(SAMPLE_COLUMNS) or r[3] != GAP_PROCESS]
    for r in rows:
        if len(r) != len(SAMPLE_COLUMNS) or r[2] not in (SCOPE_TOTAL, SCOPE_PROC):
            raise FormatError(f"{path}: malformed samples row {','.join(r)!r}")
    ts, task, scope, process, *fields = list(zip(*rows)) or [()] * len(SAMPLE_COLUMNS)
    try:
        return SampleColumns.from_lists(
            [int(t) for t in ts], task, [s == SCOPE_PROC for s in scope],
            [p or None for p in process],
            [[(int if f == "rss_bytes" else float)(v) if v else None for v in col]
             for f, col in zip(VALUE_FIELDS, fields)],
        )
    except ValueError as exc:
        raise FormatError(f"{path}: bad samples value: {exc}") from exc
