"""Pluggable stat sources for the resource monitor.

Scripts are data and sources are live readers. Scripts: captured `top` and
`iotop` batch output parsed into a replay script (a list of (time_s,
TickReading) pairs), and a deterministic synthetic script (`ScriptColumns`)
for tests and reproducible runs; `monitor.run_scripted` records either.
Sources: a live procfs reader, and `SyntheticSource`, which plays a list of
pairs live. A source or script alone decides which processes a tick holds:
procfs matches the watched names against `comm` or the command line, replay
against the tool's command column, and a synthetic script holds the names it
was drawn for. All IO figures are normalized to bytes or bytes/second
internally; a "K" in tool output is 1024 bytes.
"""
from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import FormatError, MonitorError

KIB = 1024.0


@dataclass(frozen=True)
class SystemReading:
    """System-total fragment of one tick; absent values stay None."""

    cpu_busy_pct: float | None = None
    io_wait_pct: float | None = None
    mem_used_pct: float | None = None
    read_Bps: float | None = None
    write_Bps: float | None = None


@dataclass(frozen=True)
class ProcessReading:
    """Per-process fragment of one tick."""

    name: str
    cpu_pct: float | None = None
    mem_pct: float | None = None
    rss_bytes: int | None = None
    read_Bps: float | None = None
    write_Bps: float | None = None


@dataclass(frozen=True)
class TickReading:
    system: SystemReading | None
    processes: tuple[ProcessReading, ...] = ()


ZERO_TICK = TickReading(system=SystemReading(0.0, 0.0, 0.0, 0.0, 0.0), processes=())


# ---------------------------------------------------------------------------
# top / iotop text parsing


@dataclass(frozen=True)
class TopProcess:
    pid: int
    command: str
    cpu_pct: float
    mem_pct: float
    rss_kib: float


@dataclass
class TopSnapshot:
    cpu: dict[str, float]
    mem_total_kib: float
    mem_free_kib: float
    mem_used_kib: float
    mem_buff_kib: float
    processes: list[TopProcess] = field(default_factory=list)
    skipped_rows: int = 0

    @property
    def cpu_busy_pct(self) -> float:
        return 100.0 - self.cpu["id"]

    @property
    def io_wait_pct(self) -> float:
        return self.cpu["wa"]

    @property
    def mem_used_pct(self) -> float:
        return self.mem_used_kib / self.mem_total_kib * 100.0


_TOP_CPU_RE = re.compile(r"%cpu\(s\):", re.IGNORECASE)
_TOP_CPU_FIELD_RE = re.compile(r"(-?\d+(?:\.\d+)?)\s*(us|sy|ni|id|wa|hi|si|st)\b")
_TOP_MEM_RE = re.compile(
    r"KiB Mem\s*:\s*(\d+)\s*total,\s*(\d+)\s*free,\s*(\d+)\s*used,\s*(\d+)",
    re.IGNORECASE,
)
_TOP_HEADER_RE = re.compile(r"^\s*PID\s+USER\b")


def parse_top_cpu_line(line: str) -> dict[str, float] | None:
    if not _TOP_CPU_RE.search(line):
        return None
    return {tag: float(v) for v, tag in _TOP_CPU_FIELD_RE.findall(line)}


def parse_top_mem_line(line: str) -> tuple[float, float, float, float] | None:
    m = _TOP_MEM_RE.search(line)
    if not m:
        return None
    return tuple(float(x) for x in m.groups())


def parse_top_process_row(line: str) -> TopProcess | None:
    parts = line.split()
    if len(parts) < 12 or not parts[0].isdigit():
        return None
    try:
        return TopProcess(
            pid=int(parts[0]),
            command=" ".join(parts[11:]),
            cpu_pct=float(parts[8]),
            mem_pct=float(parts[9]),
            rss_kib=float(parts[5]),
        )
    except ValueError:
        return None


def parse_top_block(text: str) -> TopSnapshot:
    """Parse one `top` refresh block (Fig-3a style batch output)."""
    cpu = None
    mem = None
    processes: list[TopProcess] = []
    skipped = 0
    in_table = False
    for line in text.splitlines():
        if cpu is None:
            parsed = parse_top_cpu_line(line)
            if parsed is not None:
                cpu = parsed
                continue
        if mem is None:
            parsed = parse_top_mem_line(line)
            if parsed is not None:
                mem = parsed
                continue
        if _TOP_HEADER_RE.match(line):
            in_table = True
            continue
        if in_table and line.strip():
            row = parse_top_process_row(line)
            if row is None:
                skipped += 1
            else:
                processes.append(row)
    if cpu is None:
        raise FormatError("top block is missing the %cpu(s) summary line")
    if mem is None:
        raise FormatError("top block is missing the KiB Mem summary line")
    return TopSnapshot(
        cpu=cpu,
        mem_total_kib=mem[0],
        mem_free_kib=mem[1],
        mem_used_kib=mem[2],
        mem_buff_kib=mem[3],
        processes=processes,
        skipped_rows=skipped,
    )


@dataclass(frozen=True)
class IotopProcess:
    pid: int
    command: str
    read_value: float  # bytes (cumulative) or bytes/s, see `cumulative`
    write_value: float
    cumulative: bool
    io_pct: float
    swapin_pct: float


@dataclass
class IotopSnapshot:
    total_read_Bps: float
    total_write_Bps: float
    actual_read_Bps: float | None = None
    actual_write_Bps: float | None = None
    processes: list[IotopProcess] = field(default_factory=list)
    skipped_rows: int = 0


_IOTOP_TOTAL_RE = re.compile(
    r"Total DISK READ\s*:\s*([\d.]+)\s*K/s\s*\|\s*Total DISK WRITE\s*:\s*([\d.]+)\s*K/s"
)
_IOTOP_ACTUAL_RE = re.compile(
    r"Actual DISK READ\s*:\s*([\d.]+)\s*K/s\s*\|\s*Actual DISK WRITE\s*:\s*([\d.]+)\s*K/s"
)


def parse_iotop_totals(line: str) -> tuple[float, float] | None:
    m = _IOTOP_TOTAL_RE.search(line)
    if not m:
        return None
    return float(m.group(1)) * KIB, float(m.group(2)) * KIB


def parse_iotop_process_row(line: str) -> IotopProcess | None:
    parts = line.split()
    # TID PRIO USER <read> <unit> <write> <unit> <swapin> % <io> % COMMAND...
    if len(parts) < 12 or not parts[0].isdigit():
        return None
    try:
        read_v = float(parts[3])
        write_v = float(parts[5])
        swapin = float(parts[7])
        io_pct = float(parts[9])
    except ValueError:
        return None
    if min(read_v, write_v, swapin, io_pct) < 0:
        return None
    read_unit = parts[4]
    cumulative = not read_unit.endswith("/s")
    scale = KIB if read_unit.startswith("K") else 1.0
    return IotopProcess(
        pid=int(parts[0]),
        command=" ".join(parts[11:]),
        read_value=read_v * scale,
        write_value=write_v * scale,
        cumulative=cumulative,
        io_pct=io_pct,
        swapin_pct=swapin,
    )


def parse_iotop_block(text: str) -> IotopSnapshot:
    """Parse one `iotop` refresh block (Fig-3b style batch output).

    Bare-"K" per-process columns are cumulative KiB; callers turn them into
    rates by differencing consecutive snapshots.
    """
    totals = None
    actual = None
    processes: list[IotopProcess] = []
    skipped = 0
    for line in text.splitlines():
        if totals is None:
            t = parse_iotop_totals(line)
            if t is not None:
                totals = t
                continue
        m = _IOTOP_ACTUAL_RE.search(line)
        if m:
            actual = (float(m.group(1)) * KIB, float(m.group(2)) * KIB)
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("TID"):
            continue
        row = parse_iotop_process_row(line)
        if row is None:
            if stripped[0].isdigit():
                skipped += 1
            continue
        processes.append(row)
    if totals is None:
        raise FormatError("iotop block is missing the Total DISK READ/WRITE line")
    return IotopSnapshot(
        total_read_Bps=totals[0],
        total_write_Bps=totals[1],
        actual_read_Bps=actual[0] if actual else None,
        actual_write_Bps=actual[1] if actual else None,
        processes=processes,
        skipped_rows=skipped,
    )


# ---------------------------------------------------------------------------
# Synthetic source


class SyntheticSource:
    """Plays (time_s, TickReading) pairs live for `monitor.start_monitor`,
    one reading per `read_tick` in script order; the times are not read.

    An exhausted or empty script yields all-zero fragments so threaded use
    keeps producing samples until stopped.
    """

    def __init__(self, script):
        self.script = list(script)
        self._next = 0

    def read_tick(self) -> TickReading:
        if self._next >= len(self.script):
            return ZERO_TICK
        _, reading = self.script[self._next]
        self._next += 1
        return reading


SYSTEM_FIELDS = tuple(f.name for f in fields(SystemReading))
PROCESS_FIELDS = tuple(f.name for f in fields(ProcessReading))[1:]  # after the name


class ScriptColumns:
    """A synthetic script held as the arrays it was drawn as: tick times, one
    column per `SystemReading` field, and one (ticks, names) matrix per
    `ProcessReading` field. It iterates as (time_s, TickReading) pairs, each
    built when asked for; `monitor.run_scripted` records it from the arrays.
    """

    def __init__(self, times, system: dict, names, procs: dict):
        self.times = times
        self.system = system
        self.names = tuple(names)
        self.procs = procs

    def __len__(self) -> int:
        return len(self.times)

    def _pair(self, k: int):
        system = SystemReading(*(self.system[f][k].item() for f in SYSTEM_FIELDS))
        procs = tuple(
            ProcessReading(name, *(self.procs[f][k, j].item() for f in PROCESS_FIELDS))
            for j, name in enumerate(self.names)
        )
        return self.times[k].item(), TickReading(system=system, processes=procs)

    def __iter__(self):
        return map(self._pair, range(len(self)))


def synthetic_script(seed: int, duration_s: float, frequency_hz: float,
                     process_names=("engine",)) -> ScriptColumns:
    """Deterministic plausible-looking script for reproducible runs: rounded
    percentages, whole-number float IO rates and int RSS, drawn per field."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * frequency_hz))
    period = 1.0 / frequency_hz

    def pct(lo, span, places):
        return np.round(lo + span * rng.random(n), places)

    def rate(hi):
        return rng.integers(0, hi, n).astype(np.float64)

    system = dict(zip(SYSTEM_FIELDS, (
        pct(20.0, 60.0, 2), pct(0.0, 10.0, 2), pct(30.0, 40.0, 2),
        rate(200 * 1024 * 1024), rate(100 * 1024 * 1024),
    )))
    per_name = [
        (pct(0.0, 90.0, 2), pct(0.0, 5.0, 3), rng.integers(10 << 20, 200 << 20, n),
         rate(50 * 1024 * 1024), rate(10 * 1024 * 1024))
        for _ in process_names
    ]
    procs = {
        f: np.stack([draws[i] for draws in per_name], axis=1) if per_name
        else np.empty((n, 0), np.int64 if f == "rss_bytes" else np.float64)
        for i, f in enumerate(PROCESS_FIELDS)
    }
    return ScriptColumns(np.arange(1, n + 1) * period, system, process_names, procs)


# ---------------------------------------------------------------------------
# Replay script (captured tool logs)


_BLOCK_START_RE = re.compile(r"^top - |^Total DISK READ")


def split_tool_blocks(text: str) -> list[str]:
    """Split concatenated tool output into per-refresh blocks."""
    blocks: list[list[str]] = []
    for line in text.splitlines():
        if _BLOCK_START_RE.match(line) or not blocks:
            blocks.append([])
        blocks[-1].append(line)
    return ["\n".join(b) for b in blocks if any(l.strip() for l in b)]


def replay_script(text: str, watched_names=(), period_s: float = 1.0):
    """Captured top/iotop output as a script of (time_s, TickReading) pairs,
    one tick per refresh block, ``period_s`` apart; `monitor.run_scripted`
    records it.

    A process is kept when its command contains a watched name (every
    process when none is given). Cumulative iotop per-process counters
    become rates by differencing consecutive blocks over the period.
    """
    watched = tuple(watched_names)

    def watch(command: str) -> bool:
        return not watched or any(w in command for w in watched)

    script = []
    prev_io: dict[int, tuple[float, float]] = {}
    for k, block in enumerate(split_tool_blocks(text), 1):
        if block.lstrip().startswith("top"):
            snap = parse_top_block(block)
            system = SystemReading(
                cpu_busy_pct=snap.cpu_busy_pct,
                io_wait_pct=snap.io_wait_pct,
                mem_used_pct=snap.mem_used_pct,
            )
            procs = [
                ProcessReading(
                    name=p.command,
                    cpu_pct=p.cpu_pct,
                    mem_pct=p.mem_pct,
                    rss_bytes=int(p.rss_kib * KIB),
                )
                for p in snap.processes
                if watch(p.command)
            ]
        else:
            snap = parse_iotop_block(block)
            system = SystemReading(read_Bps=snap.total_read_Bps, write_Bps=snap.total_write_Bps)
            procs = []
            for p in snap.processes:
                if not watch(p.command):
                    continue
                if p.cumulative:
                    before = prev_io.get(p.pid)
                    prev_io[p.pid] = (p.read_value, p.write_value)
                    if before is None:
                        continue  # first sighting: no rate yet
                    read = max(0.0, p.read_value - before[0]) / period_s
                    write = max(0.0, p.write_value - before[1]) / period_s
                else:
                    read, write = p.read_value, p.write_value
                procs.append(ProcessReading(name=p.command, read_Bps=read, write_Bps=write))
        script.append((k * period_s, TickReading(system=system, processes=tuple(procs))))
    return script


# ---------------------------------------------------------------------------
# procfs live source


class ProcfsSource:
    """Live Linux sampling from /proc.

    CPU comes from aggregate jiffies deltas, memory from meminfo, and
    per-process IO from the rchar/wchar counters (logical IO; stable under
    page caching, unlike the block-IO counters). System-total IO rates are
    not reported.
    """

    def __init__(self, watched_names=(), proc_root="/proc", rediscover_every_s=1.0,
                 pids=None):
        self.watched = tuple(watched_names)
        self.proc_root = Path(proc_root)
        if not (self.proc_root / "stat").exists():
            raise MonitorError(f"procfs not available at {self.proc_root}")
        self.fixed_pids = list(pids) if pids is not None else None
        self.rediscover_every_s = rediscover_every_s
        self._clk = os.sysconf("SC_CLK_TCK")
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._prev_cpu: tuple[float, float, float] | None = None  # busy, iowait, total
        # Per-pid (t, jiffies, rchar, wchar) history. Process rates are taken
        # against a reading at least a few kernel ticks back: at sampling
        # frequencies above CLK_TCK a single-period delta quantizes to 0-or-
        # huge and the range clamp would throw real CPU mass away.
        self._proc_history: dict[int, list[tuple[float, float, float, float]]] = {}
        self._min_rate_window = 4.0 / self._clk
        self._pids: list[tuple[int, str]] = []
        self._last_discover = -1e9
        self.cores = self._count_cores()

    def _count_cores(self) -> int:
        n = 0
        with open(self.proc_root / "stat") as f:
            for line in f:
                if re.match(r"cpu\d+ ", line):
                    n += 1
        return max(1, n)

    def _read_cpu_totals(self) -> tuple[float, float, float]:
        with open(self.proc_root / "stat") as f:
            fields = f.readline().split()[1:]
        vals = [float(x) for x in fields]
        idle = vals[3]
        iowait = vals[4] if len(vals) > 4 else 0.0
        total = sum(vals)
        busy = total - idle - iowait
        return busy, iowait, total

    def _read_meminfo(self) -> tuple[float, float]:
        """Used memory percent and total bytes, from one meminfo read."""
        total = avail = None
        with open(self.proc_root / "meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    total = float(line.split()[1])
                elif line.startswith("MemAvailable:"):
                    avail = float(line.split()[1])
                if total is not None and avail is not None:
                    break
        if not total:
            return 0.0, 0.0
        used = total - (avail if avail is not None else 0.0)
        return used / total * 100.0, total * KIB

    def _discover(self, now: float) -> None:
        if self.fixed_pids is not None:
            if not self._pids:
                self._pids = [
                    (pid, (self.proc_root / str(pid) / "comm").read_text().strip())
                    for pid in self.fixed_pids
                ]
            return
        if now - self._last_discover < self.rediscover_every_s and self._pids:
            return
        self._last_discover = now
        found: list[tuple[int, str]] = []
        for entry in os.listdir(self.proc_root):
            if not entry.isdigit():
                continue
            pid = int(entry)
            try:
                comm = (self.proc_root / entry / "comm").read_text().strip()
            except OSError:
                continue
            if any(w in comm for w in self.watched):
                found.append((pid, comm))
                continue
            try:
                cmdline = (
                    (self.proc_root / entry / "cmdline")
                    .read_bytes()
                    .replace(b"\0", b" ")
                    .decode("utf-8", "replace")
                )
            except OSError:
                continue
            if any(w in cmdline for w in self.watched):
                found.append((pid, comm))
        self._pids = found

    def _read_process(self, pid: int, comm: str, now: float, mem_total_b: float):
        base = self.proc_root / str(pid)
        stat = (base / "stat").read_text()
        after = stat.rsplit(")", 1)[1].split()
        jiffies = float(after[11]) + float(after[12])  # utime + stime
        rss_pages = int((base / "statm").read_text().split()[1])
        rss = rss_pages * self._page
        rchar = wchar = 0.0
        try:
            for line in (base / "io").read_text().splitlines():
                if line.startswith("rchar:"):
                    rchar = float(line.split()[1])
                elif line.startswith("wchar:"):
                    wchar = float(line.split()[1])
        except OSError:
            pass
        history = self._proc_history.setdefault(pid, [])
        baseline = None
        for entry in history:
            if now - entry[0] >= self._min_rate_window:
                baseline = entry
            else:
                break
        if baseline is None and history:
            baseline = history[0]
        history.append((now, jiffies, rchar, wchar))
        while len(history) > 1 and now - history[1][0] >= self._min_rate_window:
            history.pop(0)
        if baseline is None or now <= baseline[0]:
            cpu = 0.0
            read_rate = write_rate = 0.0
        else:
            dt = now - baseline[0]
            cpu = max(0.0, (jiffies - baseline[1]) / self._clk / dt * 100.0)
            cpu = min(cpu, 100.0 * self.cores)
            read_rate = max(0.0, rchar - baseline[2]) / dt
            write_rate = max(0.0, wchar - baseline[3]) / dt
        mem_pct = rss / mem_total_b * 100.0 if mem_total_b else 0.0
        return ProcessReading(
            name=comm,
            cpu_pct=cpu,
            mem_pct=mem_pct,
            rss_bytes=rss,
            read_Bps=read_rate,
            write_Bps=write_rate,
        )

    def read_tick(self) -> TickReading:
        now = time.monotonic()
        busy, iowait, total = self._read_cpu_totals()
        if self._prev_cpu is None:
            cpu_busy = io_wait = 0.0
        else:
            p_busy, p_iowait, p_total = self._prev_cpu
            dtot = total - p_total
            if dtot <= 0:
                cpu_busy = io_wait = 0.0
            else:
                cpu_busy = min(100.0, max(0.0, (busy - p_busy) / dtot * 100.0))
                io_wait = min(100.0, max(0.0, (iowait - p_iowait) / dtot * 100.0))
        self._prev_cpu = (busy, iowait, total)

        mem_pct, mem_total_b = self._read_meminfo()

        processes = []
        if self.watched or self.fixed_pids is not None:
            self._discover(now)
            for pid, comm in self._pids:
                try:
                    processes.append(self._read_process(pid, comm, now, mem_total_b))
                except OSError:
                    continue  # process exited mid-run: omit this tick
        return TickReading(
            system=SystemReading(
                cpu_busy_pct=cpu_busy,
                io_wait_pct=io_wait,
                mem_used_pct=mem_pct,
            ),
            processes=tuple(processes),
        )
