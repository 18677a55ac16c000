"""Per-task resource monitoring.

Sampler loops read a stat source at a fixed frequency, tag each tick with
the task ID currently in the shared register (tag-at-read: attribution races
are bounded by one sampling period), buffer, and append to a CSV result file
whenever a record threshold is reached. The workload runner interrupts the
sampler; remaining buffered samples are drained on stop.

The stat source decides what a tick holds: which processes are watched is
settled when the source reads (see ``stat_sources``), and the monitor records
every reading it is given. Each tick becomes one TOTAL sample for the system
fragment plus one PROC sample per process reading, through one path
(``_SampleSink.add_tick``) in both drive modes:

* ``start_monitor`` spawns one background sampler thread (live sources);
* ``run_scripted`` replays a scripted source and register timeline
  synchronously, producing byte-identical output for identical scripts.

Output CSV columns, in order:
``ts_ms,task_id,scope,process,cpu_pct,mem_pct,rss_bytes,read_Bps,write_Bps,io_wait_pct``
with scope TOTAL or PROC and missing fields left empty; a PROC row's
``process`` is the name the source reported (``comm`` for procfs). A mid-run
source failure is recorded as a gap marker row (scope TOTAL, process
``source-gap``, all metrics empty) and sampling continues.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, FormatError, MonitorError
from .stat_sources import TickReading

IDLE_TASK = "IDLE"

SCOPE_TOTAL = "TOTAL"
SCOPE_PROC = "PROC"

SAMPLE_COLUMNS = (
    "ts_ms",
    "task_id",
    "scope",
    "process",
    "cpu_pct",
    "mem_pct",
    "rss_bytes",
    "read_Bps",
    "write_Bps",
    "io_wait_pct",
)

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


@dataclass(frozen=True)
class Sample:
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
        if self.frequency_hz <= 0:
            raise ConfigError(f"frequency_hz must be positive, got {self.frequency_hz}")
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


class _SampleSink:
    """Buffered CSV writer enforcing the flush threshold; single writer."""

    def __init__(self, config: MonitorConfig):
        self.config = config
        try:
            self._fh = open(config.output_path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise MonitorError(f"cannot open output {config.output_path}: {exc}") from exc
        self._fh.write(",".join(SAMPLE_COLUMNS) + "\n")
        self._buffer: list[Sample] = []
        self.samples: list[Sample] = []
        self.report = FlushReport()

    def add_tick(self, ts_ms: int, task_id: str, reading: TickReading | None) -> None:
        """Record one tick: a TOTAL sample for the system fragment and a PROC
        sample per process reading, or a gap row when the read failed."""
        if reading is None:
            # A gap row is no sample, but it shares the buffer so that the
            # file stays in time order.
            self.report.gap_rows += 1
            self._buffer_row(Sample(ts_ms, task_id, SCOPE_TOTAL, GAP_PROCESS))
            return
        sys_r = reading.system
        if sys_r is not None:
            self._add(Sample(ts_ms, task_id, SCOPE_TOTAL, None, sys_r.cpu_busy_pct,
                             sys_r.mem_used_pct, None, sys_r.read_Bps, sys_r.write_Bps,
                             sys_r.io_wait_pct))
        for p in reading.processes:
            self._add(Sample(ts_ms, task_id, SCOPE_PROC, p.name, p.cpu_pct, p.mem_pct,
                             p.rss_bytes, p.read_Bps, p.write_Bps))

    def _add(self, sample: Sample) -> None:
        self.samples.append(sample)
        self.report.samples_total += 1
        self._buffer_row(sample)

    def _buffer_row(self, row: Sample) -> None:
        self._buffer.append(row)
        if len(self._buffer) >= self.config.flush_threshold_records:
            self._flush()

    def _flush(self) -> None:
        self._fh.write("".join(
            f"{s.ts_ms},{s.task_id},{s.scope},{s.process or ''},{_fmt(s.cpu_pct)},"
            f"{_fmt(s.mem_pct)},{_fmt(s.rss_bytes)},{_fmt(s.read_Bps)},"
            f"{_fmt(s.write_Bps)},{_fmt(s.io_wait_pct)}\n"
            for s in self._buffer
        ))
        self.report.max_buffered = max(self.report.max_buffered, len(self._buffer))
        self._buffer.clear()
        self.report.flush_count += 1

    def close(self) -> FlushReport:
        self._flush()  # drain-on-interrupt: final flush even when empty
        self._fh.flush()
        self._fh.close()
        return self.report


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
    def samples(self) -> list[Sample]:
        return self._sink.samples

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


def run_scripted(config: MonitorConfig, source, timeline=()) -> tuple[list[Sample], FlushReport]:
    """Drive sampling deterministically from a scripted source.

    ``timeline`` is a sorted sequence of (time_s, task_id) register events;
    every event at or before a tick is applied before that tick samples.
    Identical inputs produce byte-identical output files.
    """
    config.validate()
    events = list(timeline)
    if [t for t, _ in events] != sorted(t for t, _ in events):
        raise ConfigError("timeline must be sorted by time")
    sink = _SampleSink(config)
    register = TaskRegister()
    ei = 0
    for t, reading in source.ticks():
        while ei < len(events) and events[ei][0] <= t:
            register.set(events[ei][1])
            ei += 1
        sink.add_tick(int(round(t * 1000.0)), register.get(), reading)
    report = sink.close()
    return sink.samples, report


def read_samples_csv(path) -> list[Sample]:
    """Load a samples.csv written by this module (gap rows are skipped)."""
    samples: list[Sample] = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        if header != list(SAMPLE_COLUMNS):
            raise FormatError(f"{path}: unexpected samples header {header!r}")
        for line in f:
            parts = line.rstrip("\n").split(",")
            if parts[3] == GAP_PROCESS:
                continue
            samples.append(
                Sample(
                    ts_ms=int(parts[0]),
                    task_id=parts[1],
                    scope=parts[2],
                    process=parts[3] or None,
                    cpu_pct=_opt_float(parts[4]),
                    mem_pct=_opt_float(parts[5]),
                    rss_bytes=int(parts[6]) if parts[6] else None,
                    read_Bps=_opt_float(parts[7]),
                    write_Bps=_opt_float(parts[8]),
                    io_wait_pct=_opt_float(parts[9]),
                )
            )
    return samples


def _opt_float(s: str) -> float | None:
    return float(s) if s else None
