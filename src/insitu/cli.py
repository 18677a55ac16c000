"""Command-line orchestration.

``insitu run`` executes a workload end to end: parse the workload file,
start the monitor, execute each task against the chosen engine while
updating the shared task register, interrupt the monitor, aggregate, and
write ``samples.csv``, ``report.json``, and ``series.csv`` into the output
directory.

Engine modes: ``raw`` (in-situ; COPY/TRUNCATE are zero-duration no-ops),
``db`` (COPY bulk-loads, queries hit the columnar store), and
``plan:<file>`` (a partition plan is materialized up front and each query
routes to the side the plan chose). A TRUNCATE against a table the db
engine has never loaded is recorded as a no-op so workload files can open
with a defensive TRUNCATE.

Stat sources: ``procfs`` samples live on a background thread;
``synthetic`` and ``replay:<file>`` produce deterministic scripted samples
on a virtual timeline (each task occupies one virtual second), which makes
repeat runs byte-identical.

Exit codes: 0 success, 2 configuration, 3 input format/parse, 4 engine,
5 monitor.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import advisor as advisor_mod
from .advisor import (
    ENGINE_DB,
    ENGINE_RAW,
    PartitionPlan,
    materialize_plan,
    route_query,
)
from .analyzer import (
    SystemSpec,
    aggregate_profiles,
    io_amplification,
    profile_from_dict,
    profile_to_dict,
    profiles_from_exec_stats,
    record_dict,
    wet,
    write_report,
    write_series_csv,
)
from .datagen import generate_csv
from .db_engine import DbEngine
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    MonitorError,
    ParseError,
    WorkbenchError,
)
from .monitor import (
    MonitorConfig,
    TaskRegister,
    read_samples_csv,
    run_scripted,
    start_monitor,
)
from .query_model import CopyOp, QueryAst, TruncateOp, classify, parse_query, parse_workload
from .raw_engine import RawEngine
from .stat_sources import ProcfsSource, SyntheticSource, replay_script, synthetic_script

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_ENGINE = 4
EXIT_MONITOR = 5

DATA_DIR_ENV = "INSITU_DATA_DIR"

PLAN_LOAD_TASK = "PLAN_LOAD"


@dataclass
class RunConfig:
    workload_path: Path
    engine: str  # "raw", "db", or "plan"
    out_dir: Path
    plan_path: Path | None = None
    data_dir: Path = field(
        default_factory=lambda: Path(os.environ.get(DATA_DIR_ENV, "."))
    )
    source: str = "synthetic"  # "procfs", "synthetic", "replay"
    replay_path: Path | None = None
    frequency_hz: float = 1.0
    flush_threshold: int = 512
    watched: tuple[str, ...] = ("insitu", "python")
    cache_budget: int = 1 << 30
    journal: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.engine not in (ENGINE_RAW, ENGINE_DB, "plan"):
            raise ConfigError(f"unknown engine {self.engine!r}")
        if self.engine == "plan" and self.plan_path is None:
            raise ConfigError("engine=plan requires a plan file")
        if self.frequency_hz <= 0:
            raise ConfigError("monitor frequency must be positive")
        if self.source == "replay" and self.replay_path is None:
            raise ConfigError("source=replay requires a log file")
        if self.source not in ("procfs", "synthetic", "replay"):
            raise ConfigError(f"unknown stat source {self.source!r}")


def run(config: RunConfig) -> dict:
    """Execute the workload per the run configuration; returns the report."""
    config.validate()
    workload_text = Path(config.workload_path).read_text(encoding="utf-8")
    tasks = parse_workload(workload_text)
    statements = {t.task_id: parse_query(t.statement) for t in tasks}

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples_path = out_dir / "samples.csv"

    monitor_config = MonitorConfig(
        frequency_hz=config.frequency_hz,
        flush_threshold_records=config.flush_threshold,
        output_path=samples_path,
    )

    runner = _WorkloadRunner(config, tasks, statements, out_dir)

    register = TaskRegister()
    if config.source == "procfs":
        handle = start_monitor(monitor_config, ProcfsSource(config.watched), register)
        try:
            runner.execute_all(register)
        finally:
            flush_report = handle.stop()
            samples = handle.samples
    else:
        # Scripted sources sample a virtual timeline (one second per task),
        # decoupled from wall-clock durations for reproducibility.
        timeline = [(float(i), t.task_id) for i, t in enumerate(tasks)]
        if config.source == "synthetic":
            script = synthetic_script(
                config.seed, duration_s=max(1, len(tasks)),
                frequency_hz=config.frequency_hz, process_names=config.watched[:1],
            )
        else:
            script = replay_script(
                Path(config.replay_path).read_text(encoding="utf-8"),
                watched_names=config.watched, period_s=1.0 / config.frequency_hz,
            )
        samples, flush_report = run_scripted(monitor_config, SyntheticSource(script), timeline)
        del script  # not needed while the workload runs
        runner.execute_all(register)

    report = runner.build_report(samples, flush_report)
    write_report(out_dir / "report.json", report)
    write_series_csv(out_dir / "series.csv", samples)
    if runner.error is not None:
        raise runner.error
    return report


class _WorkloadRunner:
    """Task loop: set the register, execute, record time and result count."""

    def __init__(self, config: RunConfig, tasks, statements, out_dir: Path):
        self.config = config
        self.tasks = tasks
        self.statements = statements
        self.out_dir = out_dir
        self.records: list[dict] = []
        self.exec_stats: dict[str, object] = {}
        self.load_stats: dict[str, object] = {}
        self.error: WorkbenchError | OSError | None = None
        self.failed_task: str | None = None
        self._table_files: dict[str, Path] = {}

        self.raw_engine = RawEngine(cache_budget_bytes=config.cache_budget)
        self.db_engine = DbEngine(
            out_dir / "db_store", cache_budget_bytes=config.cache_budget
        )
        self.plan: PartitionPlan | None = None
        if config.engine == "plan":
            self.plan = PartitionPlan.load(config.plan_path)

    # -- table file resolution -----------------------------------------

    def _resolve(self, path_text: str) -> Path:
        p = Path(path_text)
        return p if p.is_absolute() else Path(self.config.data_dir) / p

    def _table_file(self, table: str) -> Path:
        if table not in self._table_files:
            self._table_files[table] = Path(self.config.data_dir) / f"{table}.csv"
        return self._table_files[table]

    # -- plan materialization --------------------------------------------

    def _materialize_plan(self) -> None:
        """Write the raw slices and load the db side, recorded as one
        PLAN_LOAD task before the first query."""
        start = time.perf_counter()
        tables = {
            a.split(".", 1)[0]
            for a in (self.plan.raw_attrs | self.plan.db_attrs)
            if "." in a
        }
        for task in self.tasks:
            stmt = self.statements[task.task_id]
            if isinstance(stmt, CopyOp):
                self._table_files[stmt.table] = self._resolve(stmt.path)
            elif isinstance(stmt, QueryAst):
                tables.update(stmt.tables)
        sources = {t: self._table_file(t) for t in sorted(tables)}

        begun = time.perf_counter()
        raw_paths, stats, slice_ms = materialize_plan(
            self.plan, sources, self.out_dir / "partition", self.db_engine,
            journal=self.config.journal)
        end = time.perf_counter()
        for table, path in raw_paths.items():
            self.raw_engine.register(table, path)
        self.records.append(
            {
                "task_id": PLAN_LOAD_TASK,
                "kind": "load",
                "duration_ms": (end - start) * 1000.0,
                "result_rows": sum(s.rows_loaded for s in stats.values()),
                # One pass per source: the time spent slicing, and the rest.
                "phases_ms": {"raw_slices": slice_ms,
                              "db_side": (end - begun) * 1000.0 - slice_ms},
                # The bench's advisor.slice_bytes; io's totals leave them out.
                "slice_bytes": sum(os.path.getsize(p) for p in raw_paths.values()),
            }
        )
        self.load_stats.update({f"{PLAN_LOAD_TASK}:{t}": s for t, s in stats.items()})

    # -- execution --------------------------------------------------------

    def execute_all(self, register: TaskRegister) -> None:
        try:
            if self.plan is not None:
                self._materialize_plan()
            for task in self.tasks:
                register.set(task.task_id)
                self._execute_task(task)
        except (WorkbenchError, OSError) as exc:
            self.error = exc

    def _execute_task(self, task) -> None:
        stmt = self.statements[task.task_id]
        try:
            if isinstance(stmt, TruncateOp):
                record = self._run_truncate(stmt)
            elif isinstance(stmt, CopyOp):
                record = self._run_copy(stmt)
            else:
                record = self._run_query(task.task_id, stmt)
        except (WorkbenchError, OSError) as exc:
            self.failed_task = task.task_id
            self.records.append(
                {"task_id": task.task_id, "kind": "failed", "duration_ms": 0.0,
                 "result_rows": 0, "error": str(exc)}
            )
            raise
        record["task_id"] = task.task_id
        self.records.append(record)

    def _run_truncate(self, stmt: TruncateOp) -> dict:
        if self.config.engine == ENGINE_DB and self.db_engine.has_table(stmt.table):
            ms = self.db_engine.truncate_table(stmt.table)
        elif self.config.engine == ENGINE_RAW:
            ms = self.raw_engine.truncate_table(stmt.table)
        else:
            ms = 0.0  # nothing to empty yet: defensive TRUNCATE is a no-op
        return {"kind": "load", "duration_ms": ms, "result_rows": 0}

    def _run_copy(self, stmt: CopyOp) -> dict:
        path = self._resolve(stmt.path)
        self._table_files[stmt.table] = path
        if self.config.engine == ENGINE_DB:
            stats = self.db_engine.load_table(path, stmt.table, journal=self.config.journal)
            self.load_stats[stmt.table] = stats
            return {
                "kind": "load",
                "duration_ms": stats.duration_ms,
                "result_rows": stats.rows_loaded,
            }
        if self.config.engine == ENGINE_RAW:
            ms = self.raw_engine.copy_table(stmt.table, path)
            return {"kind": "load", "duration_ms": ms, "result_rows": 0}
        return {"kind": "load", "duration_ms": 0.0, "result_rows": 0}

    def _run_query(self, task_id: str, ast: QueryAst) -> dict:
        engine_name = self.config.engine
        if self.plan is not None:
            engine_name = route_query(classify(ast), self.plan, query_id=task_id)
        if engine_name == ENGINE_RAW:
            if self.plan is not None:
                result, stats = self.raw_engine.execute(ast)  # registered slices
            else:
                files = {t: self._table_file(t) for t in ast.tables}
                result, stats = self.raw_engine.execute(ast, files=files)
        else:
            result, stats = self.db_engine.execute(ast)
        self.exec_stats[task_id] = stats
        return {
            "kind": "query",
            "engine": engine_name,
            "duration_ms": stats.duration_ms,
            "result_rows": len(result),
            # The task record carries duration_ms already.
            "exec": {k: v for k, v in record_dict(stats).items() if k != "duration_ms"},
        }

    # -- reporting ---------------------------------------------------------

    def build_report(self, samples, flush_report) -> dict:
        durations = {r["task_id"]: r["duration_ms"] for r in self.records}
        load_ids = {r["task_id"] for r in self.records if r["kind"] in ("load", "failed")}
        breakdown = wet(durations, load_ids)

        total_read = sum(s.bytes_read_from_disk for s in self.exec_stats.values())
        total_read += sum(s.input_bytes for s in self.load_stats.values())
        total_written = sum(s.total_written for s in self.load_stats.values())
        dataset_bytes = 0
        for path in {str(p) for p in self._table_files.values()}:
            if os.path.exists(path):
                dataset_bytes += os.path.getsize(path)
        amp = io_amplification(total_read, total_written, dataset_bytes) if dataset_bytes else None

        profiles = aggregate_profiles(samples, self.tasks)
        spec = SystemSpec()
        exec_profiles = profiles_from_exec_stats(self.exec_stats, spec)

        report = {
            "status": "error" if self.error is not None else "ok",
            "failed_task": self.failed_task,
            "engine": self.config.engine,
            "source": self.config.source,
            "seed": self.config.seed,
            "workload": str(self.config.workload_path),
            "outputs": {"samples": "samples.csv", "series": "series.csv"},
            "spec": record_dict(spec),
            "tasks": self.records,
            "wet": record_dict(breakdown),
            "io": {
                "total_read_bytes": total_read,
                "total_written_bytes": total_written,
                "dataset_bytes": dataset_bytes,
                "read_x": amp.read_x if amp else None,
                "write_x": amp.write_x if amp else None,
            },
            "profiles": {t: profile_to_dict(p) for t, p in profiles.items()},
            "exec_profiles": {t: profile_to_dict(p) for t, p in exec_profiles.items()},
            # Synthetic and replayed samples are scripted ahead of the run.
            "monitor": {**record_dict(flush_report),
                        "measured": self.config.source == "procfs"},
        }
        return report


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_run(args) -> int:
    engine = args.engine
    plan_path = None
    if engine.startswith("plan:"):
        plan_path = Path(engine.split(":", 1)[1])
        engine = "plan"
    source = args.source
    replay_path = None
    if source.startswith("replay:"):
        replay_path = Path(source.split(":", 1)[1])
        source = "replay"
    config = RunConfig(
        workload_path=Path(args.workload),
        engine=engine,
        plan_path=plan_path,
        out_dir=Path(args.out),
        source=source,
        replay_path=replay_path,
        frequency_hz=args.freq,
        flush_threshold=args.flush_threshold,
        watched=tuple(args.watched.split(",")) if args.watched else ("insitu", "python"),
        cache_budget=args.cache_budget,
        journal=args.journal == "on",
        seed=args.seed,
    )
    if args.data_dir:
        config.data_dir = Path(args.data_dir)
    report = run(config)
    print(f"run complete: {report['status']}; outputs in {args.out}")
    return EXIT_OK if report["status"] == "ok" else EXIT_ENGINE


def _cmd_gen_data(args) -> int:
    stats = generate_csv(args.out, rows=args.rows, columns=args.columns,
                         seed=args.seed, skew=args.skew)
    print(f"wrote {stats.rows} rows x {stats.columns} columns "
          f"({stats.file_bytes} bytes) to {stats.path}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    out = {
        tid: {"kind": "load"} if c is None else {
            "join_count": c.join_count,
            "is_sampling": c.is_sampling,
            "kind": c.kind,
            "attrs": sorted(c.attrs),
        }
        for tid, c in _classes_from_workload(args.workload).items()
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return EXIT_OK


def _schema_from_csvs(paths) -> list[str]:
    from .tabular import read_header

    schema: list[str] = []
    for p in paths:
        table = Path(p).stem
        schema.extend(f"{table}.{a}" for a in read_header(p))
    return schema


def _classes_from_workload(path) -> dict:
    """Query class per task id in workload order; None for a load task."""
    stmts = [(t.task_id, parse_query(t.statement))
             for t in parse_workload(Path(path).read_text(encoding="utf-8"))]
    return {tid: classify(s) if isinstance(s, QueryAst) else None for tid, s in stmts}


def _profiles_from_report(report_path) -> dict:
    """Non-empty profiles by task id, engine-side ones first."""
    with open(report_path, encoding="utf-8") as f:
        try:
            report = json.load(f)
        except ValueError as exc:
            raise FormatError(f"{report_path}: not a JSON report: {exc}") from exc
    if not isinstance(report, dict):
        raise FormatError(f"{report_path}: a report is a JSON object")
    out = {}
    for section in ("exec_profiles", "profiles"):
        profiles = report.get(section, {})
        if not isinstance(profiles, dict):
            raise FormatError(f"{report_path}: {section} is not an object")
        for tid, d in profiles.items():
            if not isinstance(d, dict):
                raise FormatError(f"{report_path}: profile {tid!r} is not an object")
            if tid not in out and not d.get("empty"):
                out[tid] = profile_from_dict(d)
    return out


def _cmd_advise(args) -> int:
    schema = _schema_from_csvs(args.schema_csv)
    classes = {t: c for t, c in _classes_from_workload(args.workload).items() if c is not None}
    if args.technique == "qca":
        plan = advisor_mod.qca_partition(classes, schema)
    else:
        if not args.report:
            raise ConfigError("advise rua requires --report from a measured run")
        profiles = _profiles_from_report(args.report)
        plan = advisor_mod.rua_partition(
            classes, profiles, schema,
            read_threshold_bytes=args.read_threshold,
            mem_threshold_pct=args.mem_threshold,
        )
    plan.save(args.out)
    m = plan.metrics
    print(f"{plan.technique} plan: db {m.db_pct:.1f}%, raw-only {m.raw_only_pct:.1f}%, "
          f"replicated {m.repl_pct:.1f}% -> {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    samples = read_samples_csv(args.samples)
    tasks = []
    if args.workload:
        tasks = parse_workload(Path(args.workload).read_text(encoding="utf-8"))
    profiles = aggregate_profiles(samples, tasks)
    report = {"profiles": {t: profile_to_dict(p) for t, p in profiles.items()}}
    write_report(args.out, report)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_replay(args) -> int:
    script = replay_script(Path(args.file).read_text(encoding="utf-8"),
                           watched_names=args.watched.split(","), period_s=1.0 / args.freq)
    config = MonitorConfig(frequency_hz=args.freq, output_path=args.out)
    _, report = run_scripted(config, SyntheticSource(script))
    print(f"replayed {report.samples_total} samples to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insitu",
        description="Raw-data query processing workbench with per-task resource monitoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a workload with monitoring")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--engine", required=True,
                       help="raw | db | plan:<plan.json>")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--data-dir", default=None,
                       help=f"table CSV directory (default ${DATA_DIR_ENV} or .)")
    p_run.add_argument("--source", default="synthetic",
                       help="procfs | synthetic | replay:<file>")
    p_run.add_argument("--freq", type=float, default=1.0)
    p_run.add_argument("--flush-threshold", type=int, default=512)
    p_run.add_argument("--cache-budget", type=int, default=1 << 30,
                       help="bytes of parsed columns an engine caches; the raw "
                            "engine's positional maps are not counted")
    p_run.add_argument("--journal", choices=["on", "off"], default="off")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--watched", default=None,
                       help="comma-separated substrings the stat source watches for "
                            "(procfs: comm or command line)")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-data", help="generate a deterministic dataset")
    p_gen.add_argument("--rows", type=int, required=True)
    p_gen.add_argument("--columns", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--skew", type=float, default=0.0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_data)

    p_cls = sub.add_parser("classify", help="classify workload queries")
    p_cls.add_argument("--workload", required=True)
    p_cls.set_defaults(func=_cmd_classify)

    p_adv = sub.add_parser("advise", help="compute a partition plan")
    p_adv.add_argument("technique", choices=["qca", "rua"])
    p_adv.add_argument("--workload", required=True)
    p_adv.add_argument("--schema-csv", required=True, nargs="+",
                       help="table CSV(s) whose headers define the schema")
    p_adv.add_argument("--report", default=None,
                       help="report.json from a measured run (required for rua)")
    p_adv.add_argument("--read-threshold", type=float,
                       default=advisor_mod.DEFAULT_READ_THRESHOLD_BYTES)
    p_adv.add_argument("--mem-threshold", type=float,
                       default=advisor_mod.DEFAULT_MEM_THRESHOLD_PCT)
    p_adv.add_argument("--out", required=True)
    p_adv.set_defaults(func=_cmd_advise)

    p_rep = sub.add_parser("report", help="aggregate an existing samples.csv")
    p_rep.add_argument("--samples", required=True)
    p_rep.add_argument("--workload", default=None)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=_cmd_report)

    p_replay = sub.add_parser("replay", help="convert captured tool logs to samples")
    p_replay.add_argument("--file", required=True)
    p_replay.add_argument("--watched", default="postgres,java")
    p_replay.add_argument("--freq", type=float, default=1.0)
    p_replay.add_argument("--out", required=True)
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, ParseError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MonitorError as exc:
        print(f"monitor error: {exc}", file=sys.stderr)
        return EXIT_MONITOR
    except WorkbenchError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
