"""Derived quantities from samples and engine stats.

Per-task resource profiles are time-weighted over sample streams: each
sample covers the interval back to the previous sample of the same stream
(TOTAL, or PROC per process name), the first sample of a stream reaching
back to run start. CPU, memory, and IO-wait figures come from TOTAL
samples; resident-set peaks and read/write byte totals integrate the PROC
samples (rate x period). The reduction runs over `SampleColumns` with numpy,
in sample order, so it equals a sequential per-sample loop bit for bit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, FormatError
from .monitor import VALUE_FIELDS, SampleColumns

MEAN_FIELDS = ("cpu_pct", "mem_pct", "io_wait_pct")
RATE_FIELDS = ("read_Bps", "write_Bps")


@dataclass
class SystemSpec:
    """Hardware envelope used for RAM-share and capacity arithmetic."""

    ram_bytes: float = 16e9
    ram_expansion_factor: float = 2.24

    def __post_init__(self):
        for name in ("ram_bytes", "ram_expansion_factor"):
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


def _stream_dt(cols: SampleColumns) -> np.ndarray:
    """Seconds each sample covers: back to the previous sample of its stream
    (TOTAL, or PROC per process), the first one back to run start."""
    ts = cols.ts_ms / 1000.0
    stream = np.where(cols.proc, cols.process + 1, 0)
    order = np.argsort(stream, kind="stable")
    t, s = ts[order], stream[order]
    prev = np.zeros(len(t))
    same = s[1:] == s[:-1]
    prev[1:][same] = t[:-1][same]
    if np.any(t < prev):
        raise ConfigError("samples must be sorted by timestamp within a stream")
    dt = np.empty(len(t))
    dt[order] = t - prev
    return dt


def _peaks(group: np.ndarray, x: np.ndarray, k: int) -> list:
    """Per group of ``k``, the value ``if peak is None or v > peak: peak = v``
    keeps over ``x`` in order: None for no value, a NaN that comes first,
    else the first of the largest values."""
    idx = np.arange(len(x))
    first = np.full(k, len(x))
    np.minimum.at(first, group, idx)
    ok = ~np.isnan(x) if x.dtype.kind == "f" else np.ones(len(x), dtype=bool)
    low = -np.inf if x.dtype.kind == "f" else np.iinfo(x.dtype).min
    top = np.full(k, low, dtype=x.dtype)
    np.maximum.at(top, group[ok], x[ok])
    hit = ok & (x == top[group])
    first_top = np.full(k, len(x))
    np.minimum.at(first_top, group[hit], idx[hit])
    out = [None] * k
    for g in np.flatnonzero(first < len(x)).tolist():
        lead = x[first[g]]
        out[g] = (lead if lead != lead else x[first_top[g]]).item()
    return out


def aggregate_profiles(cols: SampleColumns, tasks=()) -> dict[str, ResourceProfile]:
    """Per-task profiles of the samples ``cols``; workload tasks that never
    got a sample map to an empty-profile marker rather than fabricated zeros.

    Sums run in sample order (`np.bincount`), so each profile is bitwise the
    one a sequential per-sample loop gives.
    """
    dt = _stream_dt(cols)
    k = len(cols.task_ids)

    def total(mask, weights):  # float sums even over no samples
        sums = np.bincount(cols.task[mask], weights=weights[mask], minlength=k)
        return sums.astype(np.float64, copy=False).tolist()

    count = np.bincount(cols.task, minlength=k).tolist()
    is_total = ~cols.proc
    duration = total(is_total, dt)
    w, wx, peak, moved = {}, {}, {}, {}
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN, as in Python
        for f in MEAN_FIELDS:
            m = is_total & cols.present[f]
            x = cols.values[f]
            w[f], wx[f], peak[f] = total(m, dt), total(m, x * dt), _peaks(cols.task[m], x[m], k)
        for f in RATE_FIELDS:
            moved[f] = total(cols.proc & cols.present[f], cols.values[f] * dt)
    m = cols.proc & cols.present["rss_bytes"]
    peak_rss = _peaks(cols.task[m], cols.values["rss_bytes"][m], k)

    def mean(f, g):
        return wx[f][g] / w[f][g] if w[f][g] > 0 else peak[f][g]

    first = np.full(k, len(cols))
    np.minimum.at(first, cols.task, np.arange(len(cols)))
    seen = [cols.task_ids[g] for g in np.argsort(first, kind="stable").tolist() if count[g]]
    code = {tid: g for g, tid in enumerate(cols.task_ids)}
    out = {}
    for tid in dict.fromkeys([t.task_id for t in tasks] + seen):
        g = code.get(tid)
        if g is None or count[g] == 0:
            out[tid] = ResourceProfile(task_id=tid)  # empty-profile marker
            continue
        out[tid] = ResourceProfile(
            task_id=tid,
            sample_count=count[g],
            duration_ms=duration[g] * 1000.0,
            mean_cpu_pct=mean("cpu_pct", g),
            peak_cpu_pct=peak["cpu_pct"][g],
            mean_mem_pct=mean("mem_pct", g),
            peak_mem_pct=peak["mem_pct"][g],
            peak_rss_bytes=peak_rss[g],
            total_read_bytes=moved["read_Bps"][g],
            total_write_bytes=moved["write_Bps"][g],
            mean_io_wait_pct=mean("io_wait_pct", g),
        )
    return out


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


TOTAL_SERIES = (("cpu_total", "cpu_pct"), ("mem_total", "mem_pct"),
                 ("io_wait_total", "io_wait_pct"), ("read_Bps_total", "read_Bps"),
                 ("write_Bps_total", "write_Bps"))
PROC_SERIES = (("cpu", "cpu_pct"), ("rss", "rss_bytes"), ("read_Bps", "read_Bps"),
               ("write_Bps", "write_Bps"))


def write_series_csv(path, cols: SampleColumns, max_points: int = 1000) -> None:
    """Plot-ready long-format series (`ts_ms,series,value`) of the samples
    ``cols``, downsampled by tick stride to at most roughly max_points per
    series."""
    ts = np.sort(cols.ts_ms)
    ticks = ts[np.concatenate(([True], ts[1:] != ts[:-1]))] if len(ts) else ts
    keep = ticks[::max(1, len(ticks) // max_points)]
    at = np.searchsorted(keep, cols.ts_ms).clip(max=max(len(keep) - 1, 0))
    kept = cols.take(keep[at] == cols.ts_ms)
    values = {f: [v if p else None for v, p in zip(kept.values[f].tolist(),
                                                   kept.present[f].tolist())]
              for f in VALUE_FIELDS}
    lines = ["ts_ms,series,value\n"]
    for i, (ts_ms, proc, code) in enumerate(zip(kept.ts_ms.tolist(), kept.proc.tolist(),
                                                kept.process.tolist())):
        if proc:
            process = kept.processes[code]
            pairs = ((f"{name}:{process}", field) for name, field in PROC_SERIES)
        else:
            pairs = TOTAL_SERIES
        for name, field in pairs:
            value = values[field][i]
            if value is not None:
                lines.append(f"{ts_ms},{name},{value}\n")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("".join(lines))
