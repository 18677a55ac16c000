"""Tag resource samples with the task that was running.

Drives the monitor against a scripted synthetic source and a scripted
register timeline, then aggregates per-task profiles. The same machinery
runs threaded against procfs for live measurement; the scripted drive is
byte-reproducible.
"""
import tempfile
from pathlib import Path

from insitu import MonitorConfig, aggregate_profiles, run_scripted
from insitu.stat_sources import ProcessReading, SyntheticSource, SystemReading, TickReading

work = Path(tempfile.mkdtemp(prefix="insitu_demo_"))

# Script 20 seconds at 2 Hz: a load-shaped phase (high write, high IO wait)
# followed by a query-shaped phase (high CPU, no writes).
script = []
for k in range(1, 41):
    t = k * 0.5
    loading = t <= 10.0
    system = SystemReading(
        cpu_busy_pct=22.0 if loading else 88.0,
        io_wait_pct=18.0 if loading else 0.5,
        mem_used_pct=35.0 + k,
        read_Bps=120e6 if loading else 2e6,
        write_Bps=80e6 if loading else 0.0,
    )
    engine = ProcessReading(
        name="engine",
        cpu_pct=20.0 if loading else 95.0,
        mem_pct=1.2,
        rss_bytes=200 << 20,
        read_Bps=100e6 if loading else 1e6,
        write_Bps=60e6 if loading else 0.0,
    )
    script.append((t, TickReading(system=system, processes=(engine,))))

config = MonitorConfig(
    frequency_hz=2.0,
    flush_threshold_records=16,
    output_path=work / "samples.csv",
)
timeline = [(0.0, "COPY"), (10.0, "Q0")]
samples, report = run_scripted(config, SyntheticSource(script), timeline)
print(f"{report.samples_total} samples in {report.flush_count} flushes "
      f"(max buffered {report.max_buffered})")
print(f"samples.csv -> {config.output_path}\n")

for task_id, profile in aggregate_profiles(samples).items():
    print(f"task {task_id}:")
    print(f"  mean cpu {profile.mean_cpu_pct:5.1f}%  peak {profile.peak_cpu_pct:5.1f}%")
    print(f"  mean io-wait {profile.mean_io_wait_pct:5.1f}%")
    print(f"  engine read {profile.total_read_bytes / 1e6:8.1f} MB, "
          f"write {profile.total_write_bytes / 1e6:8.1f} MB")
