import hashlib
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insitu.errors import ConfigError, FormatError, MonitorError
from insitu.monitor import (
    IDLE_TASK,
    _fmt,
    _fmt_column,
    MonitorConfig,
    TaskRegister,
    read_samples_csv,
    run_scripted,
    start_monitor,
)
from insitu.stat_sources import (
    ProcessReading,
    SyntheticSource,
    SystemReading,
    TickReading,
    synthetic_script,
)


def make_script(n_ticks, period=0.1, proc_names=("engine",)):
    script = []
    for k in range(1, n_ticks + 1):
        system = SystemReading(cpu_busy_pct=10.0 + k, io_wait_pct=1.0, mem_used_pct=50.0)
        procs = tuple(
            ProcessReading(name=n, cpu_pct=5.0, mem_pct=0.5, rss_bytes=1 << 20)
            for n in proc_names
        )
        script.append((k * period, TickReading(system, procs)))
    return script


class TestTaskRegister:
    def test_initial_idle(self):
        assert TaskRegister().get() == IDLE_TASK

    def test_set_bumps_generation(self):
        reg = TaskRegister()
        reg.set("Q1")
        reg.set("Q2")
        assert reg.get() == "Q2"


class TestScriptedRuns:
    def test_correlation_two_task_timeline(self, tmp_path):
        # A on [0, 3), B on [3, 6) at 10 Hz.
        config = MonitorConfig(
            frequency_hz=10, flush_threshold_records=32,
            output_path=tmp_path / "s.csv",
        )
        samples, report = run_scripted(
            config, make_script(60, period=0.1), timeline=[(0.0, "A"), (3.0, "B")]
        )
        period_ms = 100
        boundary_ms = 3000
        for s in samples:
            if abs(s.ts_ms - boundary_ms) <= period_ms:
                continue
            expected = "A" if s.ts_ms < boundary_ms else "B"
            assert s.task_id == expected, s
        assert report.max_buffered <= 32

    def test_sample_counts_and_scopes(self, tmp_path):
        config = MonitorConfig(frequency_hz=10, output_path=tmp_path / "s.csv")
        samples, report = run_scripted(config, make_script(10))
        totals = [s for s in samples if s.scope == "TOTAL"]
        procs = [s for s in samples if s.scope == "PROC"]
        assert len(totals) == 10
        assert len(procs) == 10
        assert report.samples_total == 20

    def test_flush_threshold_arithmetic(self, tmp_path):
        # 250 samples with threshold 100: two threshold flushes + final 50.
        config = MonitorConfig(
            frequency_hz=10, flush_threshold_records=100,
            output_path=tmp_path / "s.csv",
        )
        script = make_script(250, proc_names=())
        samples, report = run_scripted(config, script)
        assert report.samples_total == 250
        assert report.flush_count == 3

    def test_empty_script_valid_file(self, tmp_path):
        config = MonitorConfig(output_path=tmp_path / "s.csv")
        samples, report = run_scripted(config, [])
        assert list(samples) == []
        assert report.flush_count == 1  # final empty flush still writes a file
        assert (tmp_path / "s.csv").read_text().startswith("ts_ms,")

    def test_byte_identical_reruns(self, tmp_path):
        script = make_script(40)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_scripted(MonitorConfig(output_path=out1), script, timeline=[(0.0, "T")])
        run_scripted(MonitorConfig(output_path=out2), script, timeline=[(0.0, "T")])
        assert out1.read_bytes() == out2.read_bytes()

    def test_gap_marker_on_source_failure(self, tmp_path):
        script = [
            (1.0, TickReading(SystemReading(cpu_busy_pct=1.0), ())),
            (2.0, None),  # signals one failed read
            (3.0, TickReading(SystemReading(cpu_busy_pct=3.0), ())),
        ]
        config = MonitorConfig(output_path=tmp_path / "s.csv")
        samples, report = run_scripted(config, script)
        assert report.gap_rows == 1
        assert len(samples) == 2
        text = (tmp_path / "s.csv").read_text()
        assert "source-gap" in text

    def test_gap_row_in_time_order(self, tmp_path):
        script = make_script(3, period=1.0)
        script[1] = (2.0, None)  # the read at 2 s fails
        config = MonitorConfig(output_path=tmp_path / "s.csv")  # threshold 512
        run_scripted(config, script)
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["1000", "1000", "2000", "3000", "3000"]
        assert rows[2] == "2000,IDLE,TOTAL,source-gap,,,,,,"

    def test_samples_csv_golden_bytes(self, tmp_path):
        script = [
            (0.5, TickReading(
                SystemReading(cpu_busy_pct=1 / 3, io_wait_pct=0.0, mem_used_pct=50.0,
                              write_Bps=2048.0),
                (ProcessReading(name="engine", cpu_pct=12.5, rss_bytes=1 << 20,
                                read_Bps=1e7, write_Bps=0.1 + 0.2),),
            )),
            (1.0, None),  # a failed read: gap row
            (1.5, TickReading(None, (
                ProcessReading(name="engine", cpu_pct=2.0000004, write_Bps=1.5e16),
            ))),
            (2.0, TickReading(SystemReading(), ())),
        ]
        # Threshold 2: both samples of the first tick are flushed together.
        config = MonitorConfig(flush_threshold_records=2, output_path=tmp_path / "s.csv")
        samples, report = run_scripted(config, script, timeline=[(0.0, "Q1"), (1.0, "Q2")])
        assert (tmp_path / "s.csv").read_bytes() == (
            b"ts_ms,task_id,scope,process,cpu_pct,mem_pct,rss_bytes,read_Bps,"
            b"write_Bps,io_wait_pct\n"
            b"500,Q1,TOTAL,,0.333333,50.0,,,2048.0,0.0\n"
            b"500,Q1,PROC,engine,12.5,,1048576,10000000.0,0.3,\n"
            b"1000,Q2,TOTAL,source-gap,,,,,,\n"
            b"1500,Q2,PROC,engine,2.0,,,,1.5e+16,\n"
            b"2000,Q2,TOTAL,,,,,,,\n"
        )
        assert len(samples) == 4
        assert (report.flush_count, report.gap_rows) == (3, 1)

    @settings(max_examples=2000, derandomize=True, deadline=None, database=None)
    @given(st.one_of(
        st.floats(),
        st.builds(round, st.floats(-1e12, 1e12), st.integers(0, 9)),
        st.integers(-(1 << 60), 1 << 60).map(float),
    ))
    def test_float_field_is_repr_of_rounded_value(self, v):
        assert _fmt(v) == repr(round(v, 6))

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.one_of(st.none(), st.floats(), st.floats(-5e9, 5e9),
                              st.builds(round, st.floats(-1e10, 1e10), st.integers(0, 7)))))
    def test_column_format_is_fmt_per_value(self, values):
        present = np.array([v is not None for v in values], dtype=bool)
        column = np.array([0.0 if v is None else v for v in values], dtype=np.float64)
        assert _fmt_column(column, present) == [_fmt(v) for v in values]

    @pytest.mark.parametrize("threshold", [1, 2, 3, 7, 512])
    @pytest.mark.parametrize("names", [(), ("engine",), ("a", "b"), ("a", "a")])
    def test_script_arrays_record_like_ticks_one_at_a_time(self, tmp_path, threshold, names):
        # The array path and the per-tick path write the same bytes and count
        # the same flushes; events fall before, on and between tick times.
        script = synthetic_script(4, 3.0, 4.0, process_names=names)
        timeline = [(0.0, "A"), (0.5, "B"), (0.6, "A"), (2.0, "C"), (2.0, "D")]
        results = []
        for name, arg in (("arrays", script), ("ticks", list(script))):
            config = MonitorConfig(flush_threshold_records=threshold,
                                   output_path=tmp_path / f"{name}.csv")
            samples, report = run_scripted(config, arg, timeline[1:])
            results.append(((tmp_path / f"{name}.csv").read_bytes(), report, list(samples)))
        assert results[0] == results[1]
        assert b"IDLE" in results[0][0]

    def test_script_arrays_golden_sha256(self, tmp_path):
        # The test above compares two paths that read the same `ROW_LAYOUT`;
        # this pins the bytes, so a wrong layout entry fails here.
        script = synthetic_script(4, 3.0, 4.0, process_names=("a", "b"))
        out = tmp_path / "s.csv"
        run_scripted(MonitorConfig(output_path=out), script,
                     [(0.5, "B"), (0.6, "A"), (2.0, "C")])
        data = out.read_bytes()
        assert data.startswith(
            b"ts_ms,task_id,scope,process,cpu_pct,mem_pct,rss_bytes,read_Bps,"
            b"write_Bps,io_wait_pct\n"
            b"250,IDLE,TOTAL,,76.58,49.91,,5636902.0,56428402.0,4.3\n"
            b"250,IDLE,PROC,a,79.58,2.498,18032867,18082704.0,8841128.0,\n"
            b"250,IDLE,PROC,b,6.47,3.469,94705146,19072466.0,5508504.0,\n"
        )
        assert hashlib.sha256(data).hexdigest() == (
            "9d0280bb817172e96c0ac60a73a622ed7d554ab425486a9235cfc2b1fddeb936")

    def test_unsorted_script_rejected(self, tmp_path):
        # Either form, checked before the sink opens its file.
        arrays = synthetic_script(1, 2.0, 2.0)
        arrays.times = arrays.times[::-1].copy()
        out = tmp_path / "s.csv"
        for script in (arrays, list(arrays)):
            with pytest.raises(ConfigError, match="script must be sorted by time"):
                run_scripted(MonitorConfig(output_path=out), script)
            assert not out.exists()

    @pytest.mark.parametrize("row", [
        "1000,Q0,TOTAL,,1.0,2.0,,3.0", "1000,Q0,SYSTEM,,,,,,,", "x,Q0,TOTAL,,,,,,,",
        "1000,Q0,PROC,engine,,,1.5,,,",
    ], ids=["short", "scope", "ts", "rss"])
    def test_malformed_samples_row_is_format_error(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(
            "ts_ms,task_id,scope,process,cpu_pct,mem_pct,rss_bytes,read_Bps,write_Bps,"
            f"io_wait_pct\n{row}\n"
        )
        with pytest.raises(FormatError):
            read_samples_csv(path)

    def test_samples_roundtrip_through_csv(self, tmp_path):
        config = MonitorConfig(output_path=tmp_path / "s.csv")
        samples, _ = run_scripted(config, make_script(6), timeline=[(0.0, "X")])
        loaded = read_samples_csv(tmp_path / "s.csv")
        assert list(loaded) == list(samples)


class TestThreadedMonitor:
    def test_default_frequency_sample_count(self, tmp_path):
        # One observation per second: a 10 s run yields 10 +/- 1 samples.
        config = MonitorConfig(
            frequency_hz=1, output_path=tmp_path / "s.csv",
        )
        source = SyntheticSource(make_script(60, period=1.0, proc_names=()))
        register = TaskRegister()
        handle = start_monitor(config, source, register)
        time.sleep(10.0)
        report = handle.stop()
        totals = [s for s in handle.samples if s.scope == "TOTAL"]
        assert 9 <= len(totals) <= 11

    def test_live_sampling_counts(self, tmp_path):
        config = MonitorConfig(
            frequency_hz=50, output_path=tmp_path / "s.csv",
        )
        source = SyntheticSource(make_script(1000, period=0.02, proc_names=()))
        register = TaskRegister()
        register.set("COPY")
        handle = start_monitor(config, source, register)
        time.sleep(1.0)
        report = handle.stop()
        assert 30 <= report.samples_total <= 60
        assert all(s.task_id == "COPY" for s in handle.samples)

    def test_stop_is_idempotent(self, tmp_path):
        config = MonitorConfig(frequency_hz=100, output_path=tmp_path / "s.csv")
        handle = start_monitor(config, SyntheticSource([]), TaskRegister())
        time.sleep(0.05)
        first = handle.stop()
        second = handle.stop()
        assert first is second

    def test_register_readback_from_runner_thread(self, tmp_path):
        config = MonitorConfig(
            frequency_hz=100, output_path=tmp_path / "s.csv",
        )
        source = SyntheticSource(make_script(2000, period=0.01, proc_names=()))
        register = TaskRegister()
        handle = start_monitor(config, source, register)

        def runner():
            register.set("T1")
            time.sleep(0.25)
            register.set("T2")
            time.sleep(0.25)

        t = threading.Thread(target=runner)
        t.start()
        t.join()
        handle.stop()
        tasks = {s.task_id for s in handle.samples}
        assert "T1" in tasks and "T2" in tasks

    def test_unwritable_output_fails_at_start(self, tmp_path):
        config = MonitorConfig(output_path=tmp_path / "nodir" / "s.csv")
        with pytest.raises(MonitorError):
            start_monitor(config, SyntheticSource([]), TaskRegister())

    def test_bad_frequency_rejected(self, tmp_path):
        for freq in (0, math.inf, math.nan):
            config = MonitorConfig(frequency_hz=freq, output_path=tmp_path / "s.csv")
            with pytest.raises(ConfigError):
                start_monitor(config, SyntheticSource([]), TaskRegister())
