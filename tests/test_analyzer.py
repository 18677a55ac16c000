import math
import random
import struct
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insitu.analyzer import (
    ResourceProfile,
    SystemSpec,
    aggregate_profiles,
    io_amplification,
    profile_from_dict,
    profile_to_dict,
    profiles_from_exec_stats,
    wet,
    write_series_csv,
)
from insitu.errors import ConfigError, FormatError
from insitu.monitor import MonitorConfig, Sample, run_scripted
from insitu.stat_sources import ProcessReading, SystemReading, TickReading
from insitu.query_model import WorkloadTask
from insitu.tabular import ExecStats
from util import sample_columns


def total(ts_ms, task, cpu=None, mem=None, iow=None):
    return Sample(ts_ms=ts_ms, task_id=task, scope="TOTAL",
                  cpu_pct=cpu, mem_pct=mem, io_wait_pct=iow)


def proc(ts_ms, task, name="engine", rss=None, read=None, write=None):
    return Sample(ts_ms=ts_ms, task_id=task, scope="PROC", process=name,
                  rss_bytes=rss, read_Bps=read, write_Bps=write)


class TestAggregateProfiles:
    def test_time_weighted_mean_and_peak(self):
        samples = [total(1000, "T", cpu=10.0), total(2000, "T", cpu=30.0)]
        p = aggregate_profiles(sample_columns(samples))["T"]
        assert p.mean_cpu_pct == pytest.approx(20.0)
        assert p.peak_cpu_pct == 30.0
        assert p.duration_ms == pytest.approx(2000.0)

    def test_unequal_periods_weight_by_time(self):
        samples = [total(1000, "T", cpu=10.0), total(4000, "T", cpu=30.0)]
        p = aggregate_profiles(sample_columns(samples))["T"]
        assert p.mean_cpu_pct == pytest.approx((10.0 + 3 * 30.0) / 4.0)

    def test_task_without_samples_gets_empty_marker(self):
        tasks = [WorkloadTask("TRUN", "TRUNCATE TABLE t;"), WorkloadTask("Q0", "SELECT a FROM t")]
        samples = [total(1000, "Q0", cpu=5.0)]
        profiles = aggregate_profiles(sample_columns(samples), tasks)
        assert profiles["TRUN"].is_empty
        assert profiles["TRUN"].mean_cpu_pct is None
        assert not profiles["Q0"].is_empty

    def test_io_totals_integrate_rate_times_period(self):
        samples = [
            proc(1000, "Q", read=1000.0, write=100.0),
            proc(2000, "Q", read=3000.0, write=100.0),
        ]
        p = aggregate_profiles(sample_columns(samples))["Q"]
        assert p.total_read_bytes == pytest.approx(4000.0)
        assert p.total_write_bytes == pytest.approx(200.0)

    def test_tiny_sampling_footprint_stays_small(self):
        # One tick of a low-rate read, then idle ticks under another task.
        samples = [
            proc(1000, "Q7", read=1.5e6, rss=1 << 20),
            proc(2000, "IDLE", read=0.0),
        ]
        p = aggregate_profiles(sample_columns(samples))["Q7"]
        assert p.total_read_bytes < 2 * 1024 * 1024

    def test_peaks_dominate_means(self):
        rng = random.Random(5)
        samples = [
            total(1000 * (i + 1), "T", cpu=rng.uniform(0, 100), mem=rng.uniform(0, 100),
                  iow=rng.uniform(0, 30))
            for i in range(50)
        ]
        p = aggregate_profiles(sample_columns(samples))["T"]
        assert p.peak_cpu_pct >= p.mean_cpu_pct
        assert p.peak_mem_pct >= p.mean_mem_pct

    def test_conservation_across_tasks(self):
        rng = random.Random(6)
        samples = []
        for i in range(200):
            task = "A" if i < 120 else "B"
            samples.append(proc(500 * (i + 1), task, read=rng.uniform(0, 1e6)))
        per_task = aggregate_profiles(sample_columns(samples))
        run_level = aggregate_profiles(sample_columns(
            [Sample(**{**s.__dict__, "task_id": "ALL"}) for s in samples]
        ))["ALL"]
        total_read = sum(p.total_read_bytes for p in per_task.values())
        assert total_read <= run_level.total_read_bytes + 1e-6
        assert total_read == pytest.approx(run_level.total_read_bytes)


MEANS = ("cpu_pct", "mem_pct", "io_wait_pct")


def reference_profiles(samples, tasks=()):
    """A plain sequential per-sample loop: what the column reducer must equal
    bitwise. Each sample covers the time back to the previous sample of its
    stream (TOTAL, or PROC per process name), the first back to run start."""
    last, sums = {}, {}
    for s in samples:
        key = ("PROC", s.process) if s.scope == "PROC" else ("TOTAL",)
        prev = last.get(key, 0.0)
        ts = s.ts_ms / 1000.0
        if ts < prev:
            raise ConfigError("unsorted stream")
        dt = ts - prev
        last[key] = ts
        t = sums.setdefault(s.task_id, {
            "count": 0, "total_w": 0.0, "w": dict.fromkeys(MEANS, 0.0),
            "wx": dict.fromkeys(MEANS, 0.0), "peak": dict.fromkeys(MEANS),
            "rss": None, "read": 0.0, "write": 0.0,
        })
        t["count"] += 1
        if s.scope == "TOTAL":
            t["total_w"] += dt
            for f in MEANS:
                x = getattr(s, f)
                if x is None:
                    continue
                t["w"][f] += dt
                t["wx"][f] += x * dt
                if t["peak"][f] is None or x > t["peak"][f]:
                    t["peak"][f] = x
        else:
            if s.rss_bytes is not None and (t["rss"] is None or s.rss_bytes > t["rss"]):
                t["rss"] = s.rss_bytes
            if s.read_Bps is not None:
                t["read"] += s.read_Bps * dt
            if s.write_Bps is not None:
                t["write"] += s.write_Bps * dt

    def profile(tid):
        t = sums.get(tid)
        if t is None:
            return ResourceProfile(task_id=tid)

        def mean(f):
            return t["wx"][f] / t["w"][f] if t["w"][f] > 0 else t["peak"][f]

        return ResourceProfile(
            task_id=tid, sample_count=t["count"], duration_ms=t["total_w"] * 1000.0,
            mean_cpu_pct=mean("cpu_pct"), peak_cpu_pct=t["peak"]["cpu_pct"],
            mean_mem_pct=mean("mem_pct"), peak_mem_pct=t["peak"]["mem_pct"],
            peak_rss_bytes=t["rss"], total_read_bytes=t["read"],
            total_write_bytes=t["write"], mean_io_wait_pct=mean("io_wait_pct"),
        )

    return {tid: profile(tid) for tid in dict.fromkeys([t.task_id for t in tasks] + list(sums))}


def reference_series(samples, max_points):
    """series.csv as a plain loop over the samples writes it."""
    ticks = sorted({s.ts_ms for s in samples})
    keep = set(ticks[::max(1, len(ticks) // max_points)])
    lines = ["ts_ms,series,value\n"]
    for s in samples:
        if s.ts_ms not in keep:
            continue
        if s.scope == "TOTAL":
            pairs = (("cpu_total", s.cpu_pct), ("mem_total", s.mem_pct),
                     ("io_wait_total", s.io_wait_pct), ("read_Bps_total", s.read_Bps),
                     ("write_Bps_total", s.write_Bps))
        else:
            pairs = ((f"cpu:{s.process}", s.cpu_pct), (f"rss:{s.process}", s.rss_bytes),
                     (f"read_Bps:{s.process}", s.read_Bps),
                     (f"write_Bps:{s.process}", s.write_Bps))
        lines += [f"{s.ts_ms},{name},{v}\n" for name, v in pairs if v is not None]
    return "".join(lines)


def bitwise(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def assert_same_profiles(got, want):
    assert list(got) == list(want)
    for tid, p in want.items():
        for f in fields(p):
            assert bitwise(getattr(got[tid], f.name), getattr(p, f.name)), (tid, f.name)


# Special values come often enough that a NaN leads a task's values or
# follows a number, and that a 0.0 ties a -0.0 within one task.
VALUE = st.one_of(st.none(), st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0]),
                  st.floats(), st.floats(0, 1e9).map(lambda v: round(v, 2)))
RSS = st.one_of(st.none(), st.sampled_from([0, 1 << 20]), st.integers(0, 1 << 40))
NAMES = st.sampled_from(["engine", "python", ""])
TASKS = st.sampled_from(["IDLE", "COPY", "Q0"])
TICK = st.one_of(
    st.none(),  # a failed read: gap row
    st.builds(
        TickReading,
        st.one_of(st.none(), st.builds(SystemReading, VALUE, VALUE, VALUE, VALUE, VALUE)),
        st.lists(st.builds(ProcessReading, NAMES, VALUE, VALUE, RSS, VALUE, VALUE),
                 max_size=3).map(tuple),
    ),
)


class TestColumnReducer:
    """`aggregate_profiles` over columns against the sequential reference."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(0, 700), TICK), max_size=40),
           st.lists(st.tuples(st.integers(0, 20_000), TASKS), max_size=6))
    def test_recorded_run_matches_sequential_reference(self, tmp_path_factory, steps, events):
        # Steps of 0 ms give equal timestamps; the timeline tags IDLE before
        # its first event.
        ticks, ts_ms = [], 0
        for step, reading in steps:
            ts_ms += step
            ticks.append((ts_ms / 1000.0, reading))
        timeline = sorted((ms / 1000.0, task) for ms, task in events)
        out = tmp_path_factory.mktemp("run") / "s.csv"
        samples, report = run_scripted(MonitorConfig(flush_threshold_records=7,
                                                     output_path=out), ticks, timeline)
        expected, ei, task = [], 0, "IDLE"
        for t, reading in ticks:
            while ei < len(timeline) and timeline[ei][0] <= t:
                task = timeline[ei][1]
                ei += 1
            if reading is None:
                continue
            ms, sys_r = int(round(t * 1000.0)), reading.system
            if sys_r is not None:
                expected.append(Sample(ms, task, "TOTAL", None, sys_r.cpu_busy_pct,
                                       sys_r.mem_used_pct, None, sys_r.read_Bps,
                                       sys_r.write_Bps, sys_r.io_wait_pct))
            expected += [Sample(ms, task, "PROC", p.name, p.cpu_pct, p.mem_pct, p.rss_bytes,
                                p.read_Bps, p.write_Bps) for p in reading.processes]
        got = list(samples)
        assert len(got) == len(expected) == report.samples_total
        assert all(bitwise(getattr(a, f.name), getattr(b, f.name))
                   for a, b in zip(got, expected) for f in fields(Sample))
        tasks = [WorkloadTask("Q9", "SELECT a FROM t"), WorkloadTask("Q1", "SELECT a FROM t")]
        assert_same_profiles(aggregate_profiles(samples, tasks),
                             reference_profiles(expected, tasks))
        series = out.with_name("series.csv")
        write_series_csv(series, samples, max_points=3)
        assert series.read_text() == reference_series(expected, max_points=3)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(-40, 400), TASKS, st.booleans(), NAMES,
                              VALUE, VALUE, RSS, VALUE, VALUE, VALUE), max_size=30))
    def test_sample_list_matches_reference_or_raises_alike(self, rows):
        # Negative steps make some streams unsorted; both sides must refuse.
        samples, ts = [], 0
        for step, task, proc, name, *values in rows:
            ts += step
            samples.append(Sample(ts, task, "PROC" if proc else "TOTAL",
                                  name if proc else None, *values))
        try:
            want = reference_profiles(samples)
        except ConfigError:
            with pytest.raises(ConfigError, match="sorted by timestamp"):
                aggregate_profiles(sample_columns(samples))
            return
        assert_same_profiles(aggregate_profiles(sample_columns(samples)), want)


class TestScalarDerivations:
    def test_wet_split(self):
        w = wet({"COPY": 100.0, "Q0": 5.0}, load_task_ids={"COPY"})
        assert (w.total_ms, w.load_ms, w.query_ms) == (105.0, 100.0, 5.0)

    def test_wet_raw_engine_shape(self):
        w = wet({"TRUN": 0.0, "COPY": 0.0, "Q0": 12.0}, load_task_ids={"TRUN", "COPY"})
        assert w.load_ms == 0.0
        assert w.query_ms == 12.0

    def test_read_amplification_example(self):
        r = io_amplification(10.34e9, 0.0, 4.7e9)
        assert r.read_x == pytest.approx(2.2, abs=0.01)
        assert r.write_x == 0.0

    def test_identity_amplification(self):
        assert io_amplification(4.7e9, 4.7e9, 4.7e9).read_x == 1.0

    def test_scale_invariance(self):
        a = io_amplification(9.4e9, 3.0e9, 4.7e9)
        b = io_amplification(2 * 9.4e9, 2 * 3.0e9, 2 * 4.7e9)
        assert a == b

    def test_profiles_from_exec_stats(self):
        spec = SystemSpec(ram_bytes=16e9)
        stats = {"Q7": ExecStats(bytes_read_from_disk=1 << 20, peak_cache_bytes=0)}
        p = profiles_from_exec_stats(stats, spec)["Q7"]
        assert p.total_read_bytes == float(1 << 20)
        assert p.peak_mem_pct == 0.0
        assert not p.is_empty


class TestProfileJson:
    FULL = ResourceProfile(task_id="Q1", sample_count=3, duration_ms=2000.0,
                           mean_cpu_pct=12.5, peak_cpu_pct=40.0, mean_mem_pct=1.5,
                           peak_mem_pct=2.0, peak_rss_bytes=1 << 20,
                           total_read_bytes=4096.0, total_write_bytes=512.0,
                           mean_io_wait_pct=0.25)

    @pytest.mark.parametrize("profile", [FULL, ResourceProfile(task_id="Q2")],
                             ids=["full", "empty"])
    def test_round_trip(self, profile):
        assert profile_from_dict(profile_to_dict(profile)) == profile

    @pytest.mark.parametrize("name", ["total_read_bytes", "mean_cpu_pct", "task_id"])
    def test_missing_field_is_format_error(self, name):
        d = profile_to_dict(self.FULL)
        del d[name]
        with pytest.raises(FormatError, match=name):
            profile_from_dict(d)

    def test_null_only_where_the_profile_holds_null(self):
        assert profile_from_dict({**profile_to_dict(self.FULL), "peak_mem_pct": None}
                                 ).peak_mem_pct is None
        with pytest.raises(FormatError, match="total_read_bytes"):
            profile_from_dict({**profile_to_dict(self.FULL), "total_read_bytes": None})
