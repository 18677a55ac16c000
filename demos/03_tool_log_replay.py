"""Parse captured top/iotop batch output and replay it as samples.

The block parsers normalize tool text (KiB-based units, cumulative
per-process counters) into fragments; replay_script turns a log into one
tick per refresh block, keeping only the watched processes, and
run_scripted records that script so captured logs can be analyzed with the
same pipeline as live runs.
"""
import tempfile
from pathlib import Path

from insitu import MonitorConfig, parse_iotop_block, parse_top_block, replay_script
from insitu.monitor import run_scripted

TOP = """\
top - 23:43:41 up 1:42, 1 user, load average: 1.20, 0.67, 0.46
Tasks: 268 total, 2 running, 214 sleeping, 0 stopped, 1 zombie
%cpu(s): 21.8 us, 2.9 sy, 0.0 ni, 59.6 id, 13.7 wa, 0.0 hi, 2.0 si, 0.0 st
KiB Mem : 16257856 total, 3572580 free, 2052448 used, 10632828 buff/cache
KiB Swap: 2097148 total, 2097148 free, 0 used, 13510608 avail Mem

  PID USER      PR  NI   VIRT   RES   SHR  S  %CPU  %MEM    TIME+  COMMAND
 3553  om        20   0  174716 45092 43396  R   82.4   0.3   0:33.39 postgres
 2438  om        20   0  2291336 215472 45972  S    8.3   1.3  14:12.69 anydesk
"""

IOTOP = """\
Total DISK READ : 40501.48 K/s | Total DISK WRITE : 22058.46 K/s
Actual DISK READ: 20452.48 K/s | Actual DISK WRITE: 9988.81 K/s
  TID  PRIO  USER      DISK READ  DISK WRITE  SWAPIN     IO>     COMMAND
20396 be/4 om      328704.00 K 203120.00 K  0.00 %  16.04 % postgres: om pl
27706 be/4 om          4848.00 K  1644.00 K  0.00 %  0.10 % chrome
"""

snap = parse_top_block(TOP)
print(f"top: busy {snap.cpu_busy_pct:.1f}%, io-wait {snap.io_wait_pct:.1f}%, "
      f"mem used {snap.mem_used_pct:.1f}%")
for p in snap.processes:
    print(f"  pid {p.pid:<6} {p.command:<10} cpu {p.cpu_pct}%  mem {p.mem_pct}%")

io = parse_iotop_block(IOTOP)
print(f"iotop totals: read {io.total_read_Bps / 1024:.2f} K/s, "
      f"write {io.total_write_Bps / 1024:.2f} K/s")

# The script keeps the watched processes only; the monitor records them all.
(_, tick), = replay_script(TOP, watched_names=["postgres"])
print("kept:", [p.name for p in tick.processes])

# A second iotop block turns cumulative per-process counters into rates.
later = IOTOP.replace("328704.00 K", "430944.00 K")  # +99.8 MiB
script = replay_script(IOTOP + later, watched_names=["postgres"], period_s=1.0)
out = Path(tempfile.mkdtemp(prefix="insitu_demo_")) / "replayed.csv"
samples, report = run_scripted(MonitorConfig(output_path=out), script)
proc = [s for s in samples if s.scope == "PROC"]
print(f"\nreplayed {report.samples_total} samples; postgres read rate on tick 2: "
      f"{proc[-1].read_Bps / 1024 / 1024:.1f} MiB/s")
print(f"samples -> {out}")
