import os
import subprocess
import sys
import time

import pytest

from insitu.errors import FormatError
from insitu.stat_sources import (
    ProcfsSource,
    SyntheticSource,
    SystemReading,
    TickReading,
    ZERO_TICK,
    parse_iotop_block,
    parse_top_block,
    replay_script,
    split_tool_blocks,
    synthetic_script,
)

# Verbatim batch-output fixtures in the tools' line formats.
TOP_BLOCK = """\
top - 23:43:41 up 1:42, 1 user, load average: 1.20, 0.67, 0.46
Tasks: 268 total, 2 running, 214 sleeping, 0 stopped, 1 zombie
%cpu(s): 21.8 us, 2.9 sy, 0.0 ni, 59.6 id, 13.7 wa, 0.0 hi, 2.0 si, 0.0 st
KiB Mem : 16257856 total, 3572580 free, 2052448 used, 10632828 buff/cache
KiB Swap: 2097148 total, 2097148 free, 0 used, 13510608 avail Mem

  PID USER      PR  NI   VIRT   RES   SHR  S  %CPU  %MEM    TIME+  COMMAND
 3553  om        20   0  174716 45092 43396  R   82.4   0.3   0:33.39 postgres
 2438  om        20   0  2291336 215472 45972  S    8.3   1.3  14:12.69 anydesk
 1068  om        20   0  595520 110000 94380  S   2.7   0.7   3:44.15 Xorg
 3544  root      20   0  52952 14676  6716  S   2.3   0.1   0:00.88 iotop
 3542  om        20   0  44672  4544  3316  S   2.0   0.0   0:00.88 top
"""

IOTOP_BLOCK = """\
Total DISK READ : 40501.48 K/s | Total DISK WRITE : 22058.46 K/s
Actual DISK READ: 20452.48 K/s | Actual DISK WRITE: 9988.81 K/s
  TID  PRIO  USER      DISK READ  DISK WRITE  SWAPIN     IO>     COMMAND
20134 be/4 root      391528.00 K  308.00 K  0.00 %  1.07 % mount.ntfs /dev
 238  be/3 root           0.00 K  4260.00 K  0.00 %  0.88 % [jbd2/sda3-8]
16244 be/4 om           0.00 K 165280.00 K  0.00 %  0.77 % postgres: wal w
20396 be/4 om      328704.00 K 203120.00 K  0.00 %  16.04 % postgres: om pl
 1261 be/4 om          432.00 K   0.00 K  0.00 %  0.12 % Xorg vt1 -displ
27706 be/4 om          4848.00 K  1644.00 K  0.00 %  0.10 % chrome
"""


class TestTopParser:
    def test_golden_cpu_fields(self):
        snap = parse_top_block(TOP_BLOCK)
        assert snap.cpu["us"] == 21.8
        assert snap.cpu["sy"] == 2.9
        assert snap.cpu["ni"] == 0.0
        assert snap.cpu["id"] == 59.6
        assert snap.cpu["wa"] == 13.7
        assert snap.cpu_busy_pct == pytest.approx(40.4)
        assert snap.io_wait_pct == 13.7

    def test_golden_mem_fields(self):
        snap = parse_top_block(TOP_BLOCK)
        assert snap.mem_total_kib == 16257856
        assert snap.mem_free_kib == 3572580
        assert snap.mem_used_kib == 2052448
        assert snap.mem_buff_kib == 10632828

    def test_golden_process_rows(self):
        snap = parse_top_block(TOP_BLOCK)
        postgres = next(p for p in snap.processes if p.command == "postgres")
        assert postgres.pid == 3553
        assert postgres.cpu_pct == 82.4
        assert postgres.mem_pct == 0.3
        assert postgres.rss_kib == 45092
        assert len(snap.processes) == 5

    def test_idle_identity(self):
        block = TOP_BLOCK.replace(
            "21.8 us, 2.9 sy, 0.0 ni, 59.6 id, 13.7 wa, 0.0 hi, 2.0 si, 0.0 st",
            "0.0 us, 0.0 sy, 0.0 ni, 100.0 id, 0.0 wa, 0.0 hi, 0.0 si, 0.0 st",
        )
        assert parse_top_block(block).cpu_busy_pct == 0.0

    def test_zero_process_rows(self):
        head = "\n".join(TOP_BLOCK.splitlines()[:6])
        snap = parse_top_block(head)
        assert snap.processes == []

    def test_missing_summary_is_error(self):
        with pytest.raises(FormatError, match="cpu"):
            parse_top_block("KiB Mem : 1 total, 1 free, 0 used, 0 buff/cache")

    def test_malformed_rows_counted(self):
        block = TOP_BLOCK + " 9999 om 20 0 broken row\n"
        snap = parse_top_block(block)
        assert snap.skipped_rows == 1


class TestIotopParser:
    def test_golden_totals(self):
        snap = parse_iotop_block(IOTOP_BLOCK)
        assert snap.total_read_Bps == 40501.48 * 1024
        assert snap.total_write_Bps == 22058.46 * 1024
        assert snap.actual_read_Bps == 20452.48 * 1024

    def test_golden_process_row(self):
        snap = parse_iotop_block(IOTOP_BLOCK)
        pg = next(p for p in snap.processes if p.command.startswith("postgres: om"))
        assert pg.pid == 20396
        assert pg.io_pct == 16.04
        assert pg.read_value == 328704.00 * 1024
        assert pg.write_value == 203120.00 * 1024
        assert pg.cumulative  # bare-K columns are cumulative KiB

    def test_totals_only_block(self):
        snap = parse_iotop_block(IOTOP_BLOCK.splitlines()[0])
        assert snap.processes == []
        assert snap.total_read_Bps == 40501.48 * 1024

    def test_negative_rows_skipped(self):
        block = IOTOP_BLOCK + "404 be/4 om -5.00 K 1.00 K 0.00 % 0.10 % weird\n"
        snap = parse_iotop_block(block)
        assert snap.skipped_rows == 1
        assert all(p.pid != 404 for p in snap.processes)

    def test_missing_totals_is_error(self):
        with pytest.raises(FormatError, match="Total DISK"):
            parse_iotop_block("TID PRIO USER\n")


class TestSyntheticSource:
    def test_replays_script_exactly(self):
        script = [(float(i), TickReading(SystemReading(cpu_busy_pct=float(i)), ())) for i in range(5)]
        src = SyntheticSource(script)
        seen = [src.read_tick().system.cpu_busy_pct for _ in range(5)]
        assert seen == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_exhausted_script_yields_zero_fragments(self):
        src = SyntheticSource([])
        assert src.read_tick() == ZERO_TICK

    def test_generated_script_is_deterministic(self):
        a = synthetic_script(7, 5.0, 2.0)
        b = synthetic_script(7, 5.0, 2.0)
        assert list(a) == list(b)
        assert len(a) == 10


class TestSyntheticScript:
    def test_seed_decides_the_script(self):
        a = list(synthetic_script(1, 4.0, 5.0, process_names=("p", "q")))
        assert a == list(synthetic_script(1, 4.0, 5.0, process_names=("p", "q")))
        assert a != list(synthetic_script(2, 4.0, 5.0, process_names=("p", "q")))

    @pytest.mark.parametrize("duration_s, frequency_hz, n", [
        (0.0, 50.0, 0), (1.0, 50.0, 50), (407.0, 50.0, 20350), (2.5, 3.0, 8),
        (0.1, 1.0, 0), (1.0, 0.6, 1),
    ])
    def test_tick_count_and_times(self, duration_s, frequency_hz, n):
        script = synthetic_script(3, duration_s, frequency_hz)
        assert len(script) == n == round(duration_s * frequency_hz)
        period = 1.0 / frequency_hz
        times = [t for t, _ in script]
        assert times == [k * period for k in range(1, n + 1)]
        assert all(a < b for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("names", [(), ("engine",), ("insitu", "python")])
    def test_field_types_and_ranges(self, names):
        script = synthetic_script(5, 20.0, 10.0, process_names=names)
        assert len(script) == 200

        def check(value, lo, hi, kind, places=None):
            assert type(value) is kind
            assert lo <= value <= hi
            if places is not None:
                assert value == round(value, places)

        for _, tick in script:
            s = tick.system
            check(s.cpu_busy_pct, 20.0, 80.0, float, 2)
            check(s.io_wait_pct, 0.0, 10.0, float, 2)
            check(s.mem_used_pct, 30.0, 70.0, float, 2)
            check(s.read_Bps, 0.0, 200 * 1024 * 1024 - 1, float, 0)
            check(s.write_Bps, 0.0, 100 * 1024 * 1024 - 1, float, 0)
            assert tuple(p.name for p in tick.processes) == names
            for p in tick.processes:
                check(p.cpu_pct, 0.0, 90.0, float, 2)
                check(p.mem_pct, 0.0, 5.0, float, 3)
                check(p.rss_bytes, 10 << 20, (200 << 20) - 1, int)
                check(p.read_Bps, 0.0, 50 * 1024 * 1024 - 1, float, 0)
                check(p.write_Bps, 0.0, 10 * 1024 * 1024 - 1, float, 0)
        # Values vary between ticks and between processes.
        assert len({tick.system.cpu_busy_pct for _, tick in script}) > 100
        if len(names) == 2:
            assert any(a.rss_bytes != b.rss_bytes for a, b in
                       (tick.processes for _, tick in script))


class TestReplayScript:
    def test_block_splitting(self):
        text = TOP_BLOCK + IOTOP_BLOCK + TOP_BLOCK
        blocks = split_tool_blocks(text)
        assert len(blocks) == 3

    def test_cumulative_counters_become_rates(self):
        later = IOTOP_BLOCK.replace("328704.00 K", "329728.00 K")  # +1024 KiB
        src = SyntheticSource(
            replay_script(IOTOP_BLOCK + later, watched_names=["postgres"], period_s=1.0)
        )
        first = src.read_tick()
        second = src.read_tick()
        assert first.processes == ()  # no rate before a baseline exists
        pg = next(p for p in second.processes if "om pl" in p.name)
        assert pg.read_Bps == 1024 * 1024.0

    def test_top_blocks_replay_watched(self):
        src = SyntheticSource(replay_script(TOP_BLOCK, watched_names=["postgres"]))
        tick = src.read_tick()
        assert tick.system.cpu_busy_pct == pytest.approx(40.4)
        assert [p.name for p in tick.processes] == ["postgres"]


class TestProcfsSource:
    def test_identical_jiffies_give_zero_cpu(self, tmp_path):
        proc = tmp_path / "proc"
        (proc / "1").mkdir(parents=True)
        (proc / "stat").write_text("cpu  100 0 100 800 50 0 0 0 0 0\ncpu0 100 0 100 800 50 0 0 0 0 0\n")
        (proc / "meminfo").write_text("MemTotal: 1000 kB\nMemAvailable: 600 kB\n")
        src = ProcfsSource(watched_names=(), proc_root=proc)
        first = src.read_tick()
        second = src.read_tick()
        assert first.system.cpu_busy_pct == 0.0
        assert second.system.cpu_busy_pct == 0.0  # no delta
        assert second.system.mem_used_pct == pytest.approx(40.0)

    def test_busy_child_process_is_seen(self):
        if not os.path.exists("/proc/stat"):
            pytest.skip("no procfs")
        child = subprocess.Popen(
            [sys.executable, "-c", "while True: pass"],
        )
        try:
            src = ProcfsSource(watched_names=["python"], rediscover_every_s=0.0)
            src.read_tick()
            best = 0.0
            for _ in range(3):
                time.sleep(0.5)
                tick = src.read_tick()
                for p in tick.processes:
                    best = max(best, p.cpu_pct)
        finally:
            child.kill()
            child.wait()
        assert best >= 90.0

    def test_child_reading_bytes_shows_read_rate(self, tmp_path):
        if not os.path.exists("/proc/stat"):
            pytest.skip("no procfs")
        blob = tmp_path / "blob.bin"
        blob.write_bytes(os.urandom(8 << 20))
        # The child says when it is running (so its command line is its own)
        # and when its read is done; it reads when told to.
        code = (
            "import sys; print('ready', flush=True); sys.stdin.readline()\n"
            f"data = open({str(blob)!r},'rb').read(); print('done', flush=True)\n"
            "sys.stdin.readline()"
        )
        child = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline() == "ready\n"
            # The blob path is in the child's command line only, not in
            # pytest's, whose own reads would count otherwise.
            src = ProcfsSource(watched_names=[str(blob)], rediscover_every_s=0.0)
            # A tick's rates are taken from the time it starts.
            before = time.monotonic()
            assert [p.read_Bps for p in src.read_tick().processes] == [0.0]
            child.stdin.write("go\n")
            child.stdin.flush()
            assert child.stdout.readline() == "done\n"
            after = time.monotonic()
            tick = src.read_tick()
            total = sum(p.read_Bps for p in tick.processes) * (after - before)
        finally:
            child.kill()
            child.wait()
        assert total == pytest.approx(8 << 20, rel=0.2)
