"""Derived quantities from samples and engine stats.

Per-task resource profiles are time-weighted over sample streams: each
sample covers the interval back to the previous sample of the same stream
(TOTAL, or PROC per process name), the first sample of a stream reaching
back to run start. CPU, memory, and IO-wait figures come from TOTAL
samples; resident-set peaks and read/write byte totals integrate the PROC
samples (rate x period).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import ConfigError, FormatError
from .monitor import SCOPE_PROC, SCOPE_TOTAL, Sample
from .tabular import ExecStats

MEAN_FIELDS = ("cpu_pct", "mem_pct", "io_wait_pct")
RATE_FIELDS = ("read_Bps", "write_Bps")


@dataclass
class SystemSpec:
    """Hardware envelope used for utilization and capacity arithmetic."""

    cores: int = 4
    ram_bytes: float = 16e9
    max_read_Bps: float = 300e6
    max_write_Bps: float = 200e6
    ram_expansion_factor: float = 2.24

    def __post_init__(self):
        for name in ("cores", "ram_bytes", "max_read_Bps", "max_write_Bps",
                     "ram_expansion_factor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"SystemSpec.{name} must be positive")


@dataclass
class ResourceProfile:
    task_id: str
    sample_count: int = 0
    duration_ms: float = 0.0
    mean_cpu_pct: float | None = None
    peak_cpu_pct: float | None = None
    mean_mem_pct: float | None = None
    peak_mem_pct: float | None = None
    peak_rss_bytes: int | None = None
    total_read_bytes: float = 0.0
    total_write_bytes: float = 0.0
    mean_io_wait_pct: float | None = None

    @property
    def is_empty(self) -> bool:
        return self.sample_count == 0


class _TaskSums:
    __slots__ = ("w", "wx", "peak", "read_bytes", "write_bytes", "peak_rss",
                 "count", "total_w")

    def __init__(self):
        self.w = {f: 0.0 for f in MEAN_FIELDS}
        self.wx = {f: 0.0 for f in MEAN_FIELDS}
        self.peak = {f: None for f in MEAN_FIELDS}
        self.read_bytes = 0.0
        self.write_bytes = 0.0
        self.peak_rss = None
        self.count = 0
        self.total_w = 0.0  # sum of dt over TOTAL samples: observed duration


class ProfileAccumulator:
    """Streaming per-task aggregation of monitor samples."""

    def __init__(self):
        self._tasks: dict[str, _TaskSums] = {}
        self._stream_last: dict[tuple, float] = {}

    @staticmethod
    def _stream_key(sample: Sample) -> tuple:
        if sample.scope == SCOPE_PROC:
            return (SCOPE_PROC, sample.process)
        return (SCOPE_TOTAL,)

    def add(self, sample: Sample) -> None:
        key = self._stream_key(sample)
        prev = self._stream_last.get(key, 0.0)
        ts = sample.ts_ms / 1000.0
        if ts < prev:
            raise ConfigError("samples must be sorted by timestamp within a stream")
        dt = ts - prev
        self._stream_last[key] = ts
        self._apply(sample, dt)

    def _apply(self, sample: Sample, dt: float) -> None:
        sums = self._tasks.setdefault(sample.task_id, _TaskSums())
        sums.count += 1
        if sample.scope == SCOPE_TOTAL:
            sums.total_w += dt
            for f in MEAN_FIELDS:
                x = getattr(sample, f)
                if x is None:
                    continue
                sums.w[f] += dt
                sums.wx[f] += x * dt
                if sums.peak[f] is None or x > sums.peak[f]:
                    sums.peak[f] = x
        else:
            if sample.rss_bytes is not None:
                if sums.peak_rss is None or sample.rss_bytes > sums.peak_rss:
                    sums.peak_rss = sample.rss_bytes
            if sample.read_Bps is not None:
                sums.read_bytes += sample.read_Bps * dt
            if sample.write_Bps is not None:
                sums.write_bytes += sample.write_Bps * dt

    def profile(self, task_id: str) -> ResourceProfile:
        sums = self._tasks.get(task_id)
        if sums is None or sums.count == 0:
            return ResourceProfile(task_id=task_id)  # empty-profile marker

        def mean(f):
            return sums.wx[f] / sums.w[f] if sums.w[f] > 0 else sums.peak[f]

        return ResourceProfile(
            task_id=task_id,
            sample_count=sums.count,
            duration_ms=sums.total_w * 1000.0,
            mean_cpu_pct=mean("cpu_pct"),
            peak_cpu_pct=sums.peak["cpu_pct"],
            mean_mem_pct=mean("mem_pct"),
            peak_mem_pct=sums.peak["mem_pct"],
            peak_rss_bytes=sums.peak_rss,
            total_read_bytes=sums.read_bytes,
            total_write_bytes=sums.write_bytes,
            mean_io_wait_pct=mean("io_wait_pct"),
        )

    def task_ids(self):
        return list(self._tasks)


def aggregate_profiles(samples, tasks=()) -> dict[str, ResourceProfile]:
    """Per-task profiles; workload tasks that never got a sample map to an
    empty-profile marker rather than fabricated zeros."""
    acc = ProfileAccumulator()
    for s in samples:
        acc.add(s)
    ids = list(dict.fromkeys([t.task_id for t in tasks] + acc.task_ids()))
    return {tid: acc.profile(tid) for tid in ids}


# ---------------------------------------------------------------------------
# Scalar derivations


@dataclass(frozen=True)
class WetBreakdown:
    total_ms: float
    load_ms: float
    query_ms: float


def wet(task_durations, load_task_ids) -> WetBreakdown:
    """Workload execution time split into load-class and query-class time."""
    load_ids = set(load_task_ids)
    load_ms = sum(d for t, d in task_durations.items() if t in load_ids)
    query_ms = sum(d for t, d in task_durations.items() if t not in load_ids)
    return WetBreakdown(total_ms=load_ms + query_ms, load_ms=load_ms, query_ms=query_ms)


@dataclass(frozen=True)
class AmplificationRatios:
    read_x: float
    write_x: float


def io_amplification(total_read_bytes, total_write_bytes, raw_file_bytes) -> AmplificationRatios:
    if raw_file_bytes <= 0:
        raise ConfigError("raw_file_bytes must be positive")
    return AmplificationRatios(
        read_x=total_read_bytes / raw_file_bytes,
        write_x=total_write_bytes / raw_file_bytes,
    )


@dataclass(frozen=True)
class BandwidthUtilization:
    pct: float
    saturated: bool


def bandwidth_utilization(rate_Bps, spec: SystemSpec, direction: str = "read") -> BandwidthUtilization:
    if rate_Bps < 0:
        raise ConfigError("rate must be non-negative")
    ceiling = spec.max_read_Bps if direction == "read" else spec.max_write_Bps
    pct = rate_Bps / ceiling * 100.0
    return BandwidthUtilization(pct=min(pct, 100.0), saturated=pct > 100.0)


def effective_ram_pct(process_rss_bytes, cached_dataset_bytes, spec: SystemSpec) -> float:
    """RAM share counting the cached dataset alongside the process RSS."""
    return (process_rss_bytes + cached_dataset_bytes) / spec.ram_bytes * 100.0


@dataclass(frozen=True)
class ColdHotDelta:
    time_delta_ms: float
    bytes_delta: int


def cold_hot_delta(cold: ExecStats, hot: ExecStats) -> ColdHotDelta:
    return ColdHotDelta(
        time_delta_ms=cold.duration_ms - hot.duration_ms,
        bytes_delta=cold.bytes_read_from_disk - hot.bytes_read_from_disk,
    )


def profiles_from_exec_stats(stats_by_task, spec: SystemSpec) -> dict[str, ResourceProfile]:
    """Engine-side stand-in profiles for tasks too short for the sampler.

    1 Hz monitoring cannot see a millisecond query; its byte and cache
    counters still give the footprint the partition advisor needs.
    """
    out = {}
    for task_id, st in stats_by_task.items():
        out[task_id] = ResourceProfile(
            task_id=task_id,
            sample_count=1,
            duration_ms=st.duration_ms,
            peak_mem_pct=st.peak_cache_bytes / spec.ram_bytes * 100.0,
            total_read_bytes=float(st.bytes_read_from_disk),
        )
    return out


# ---------------------------------------------------------------------------
# Report output


def record_dict(record) -> dict:
    """A dataclass record's fields as a shallow dict. Unlike `vars`, this
    materializes no `__dict__` on the instance, which CPython would keep
    for the record's lifetime."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def profile_to_dict(p: ResourceProfile) -> dict:
    return {**record_dict(p), "empty": p.is_empty}


def profile_from_dict(d: dict) -> ResourceProfile:
    """Inverse of `profile_to_dict`. A missing field, or a null one the
    profile never holds null, is a FormatError: reading it as 0 would
    fabricate a footprint."""
    bad = [f.name for f in fields(ResourceProfile)
           if d.get(f.name) is None and (f.name not in d or f.default is not None)]
    if bad:
        raise FormatError(f"profile {d.get('task_id')!r}: missing or null {bad}")
    return ResourceProfile(**{f.name: d[f.name] for f in fields(ResourceProfile)})


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def write_series_csv(path, samples, max_points: int = 1000) -> None:
    """Plot-ready long-format series (`ts_ms,series,value`), downsampled by
    tick stride to at most roughly max_points per series."""
    ticks = sorted({s.ts_ms for s in samples})
    stride = max(1, len(ticks) // max_points)
    keep = set(ticks[::stride])
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("ts_ms,series,value\n")
        for s in samples:
            if s.ts_ms not in keep:
                continue
            if s.scope == SCOPE_TOTAL:
                pairs = (
                    ("cpu_total", s.cpu_pct),
                    ("mem_total", s.mem_pct),
                    ("io_wait_total", s.io_wait_pct),
                    ("read_Bps_total", s.read_Bps),
                    ("write_Bps_total", s.write_Bps),
                )
            else:
                pairs = (
                    (f"cpu:{s.process}", s.cpu_pct),
                    (f"rss:{s.process}", s.rss_bytes),
                    (f"read_Bps:{s.process}", s.read_Bps),
                    (f"write_Bps:{s.process}", s.write_Bps),
                )
            for name, value in pairs:
                if value is not None:
                    f.write(f"{s.ts_ms},{name},{value}\n")
