"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The large fixtures are
generated once per session into a shared temporary directory; total
runtime is a few minutes on a laptop-class machine.
"""
import json
import math
import os
import random
import shutil
import statistics
import time

import pytest

from insitu.advisor import (
    load_db_side,
    materialize_plan,
    qca_partition,
    raw_capacity_check,
    route_query,
    rua_partition,
    write_raw_slices,
)
from insitu.analyzer import SystemSpec, profiles_from_exec_stats, wet
from insitu.cli import main
from insitu.datagen import generate_csv
from insitu.db_engine import DbEngine
from insitu.monitor import MonitorConfig, run_scripted
from insitu.query_model import classify, parse_query
from insitu.raw_engine import RawEngine
from insitu.stat_sources import (
    ProcfsSource,
    SyntheticSource,
    parse_iotop_block,
    parse_top_block,
)
from util import TableInfo, random_select, write_csv

pytestmark = pytest.mark.acceptance

CORPUS_GUARD = 10_000_000_000  # the corpus includes joins past the default guard


def announce(n, detail):
    print(f"\n[criterion {n:>2}] PASS - {detail}")


# ---------------------------------------------------------------------------
# Session fixtures


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def corpus_tables(workdir):
    """Seeded ~100k-row dataset for the equivalence corpus."""
    d = workdir / "corpus"
    d.mkdir()
    paths = {
        "main": d / "main.csv",
        "d1": d / "d1.csv",
        "d2": d / "d2.csv",
    }
    generate_csv(paths["main"], rows=90_000, columns=6, seed=101)
    generate_csv(paths["d1"], rows=5_000, columns=4, seed=102)
    generate_csv(paths["d2"], rows=5_000, columns=3, seed=103)
    return paths


@pytest.fixture(scope="session")
def big_fixture(workdir):
    """~100 MB main table plus two 40k-row dimension tables."""
    d = workdir / "big"
    d.mkdir()
    main_csv = d / "photoprimary.csv"
    d1_csv = d / "d1.csv"
    d2_csv = d / "d2.csv"
    generate_csv(main_csv, rows=560_000, columns=12, seed=201)
    generate_csv(d1_csv, rows=40_000, columns=4, seed=202)
    generate_csv(d2_csv, rows=40_000, columns=4, seed=203)
    return {"photoprimary": main_csv, "d1": d1_csv, "d2": d2_csv}


MIXED_WORKLOAD = [
    ("Q0", "SELECT count(objid) FROM photoprimary"),
    ("Q1", "SELECT objid, ra FROM photoprimary WHERE ra < 350 LIMIT 10"),
    ("Q2", "SELECT objid, ra, dec, v03 FROM photoprimary WHERE ra > 120 AND ra < 124"),
    ("Q3", "SELECT objid, dec FROM photoprimary WHERE dec > 89"),
    ("Q4", "SELECT ra, v03 FROM photoprimary WHERE v03 <= 8"),
    ("Q5", "SELECT objid FROM photoprimary WHERE ra >= 300 AND dec < -88"),
    ("Q6", "SELECT dec, v03 FROM photoprimary WHERE v03 > 992 AND dec <= 0"),
    ("Q7", "SELECT objid, v03 FROM photoprimary WHERE v03 = 500"),
    ("Q8", "SELECT objid FROM photoprimary WHERE ra > 999"),
    ("Q9", "SELECT dec FROM photoprimary WHERE dec < -90.5"),
    ("Q10", "SELECT d1.objid, d2.ra FROM d1 JOIN d2 ON d1.objid = d2.objid "
            "WHERE d2.ra < 20"),
    ("Q11", "SELECT d1.ra, d2.dec FROM d1 JOIN d2 ON d1.objid = d2.objid "
            "WHERE d1.ra > 350 AND d2.dec > 80"),
]


# ---------------------------------------------------------------------------
# Criterion 1: engine oracle equivalence over a generated corpus


def test_criterion_01_engine_equivalence(corpus_tables, workdir):
    start = time.perf_counter()
    raw = RawEngine(join_guard_pairs=CORPUS_GUARD)
    db = DbEngine(workdir / "corpus_db")
    for name, path in corpus_tables.items():
        raw.register(name, path)
        db.load_table(path, name)

    infos = [
        TableInfo("main", None, ["objid", "ra", "dec", "v03", "v04", "v05"],
                  {"ra": (0, 360), "dec": (-90, 90), "v03": (0, 1000), "v04": (0, 1000)}),
        TableInfo("d1", None, ["objid", "ra", "dec", "v03"],
                  {"ra": (0, 360), "v03": (0, 1000)}),
        TableInfo("d2", None, ["objid", "ra", "dec"], {"ra": (0, 360), "dec": (-90, 90)}),
    ]
    rng = random.Random(20260401)
    n_queries = 210
    joins_seen = 0
    for i in range(n_queries):
        stmt = random_select(rng, infos)
        ast = parse_query(stmt)
        joins_seen += 1 if ast.joins else 0
        r_raw, _ = raw.execute(ast)
        r_db, _ = db.execute(ast)
        assert r_raw.multiset() == r_db.multiset(), stmt
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"corpus took {elapsed:.1f}s, budget is 120s"
    announce(1, f"{n_queries} queries ({joins_seen} with joins) identical "
                f"across engines in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: zero-load vs load structure and hot query-time ratio


@pytest.fixture(scope="session")
def mixed_runs(big_fixture, workdir):
    """Cold+hot execution of the 12-query mixed workload on both engines."""
    asts = {qid: parse_query(stmt) for qid, stmt in MIXED_WORKLOAD}

    raw = RawEngine(join_guard_pairs=CORPUS_GUARD)
    for t, p in big_fixture.items():
        raw.register(t, p)
    raw_durations = {"TRUN": raw.truncate_table("photoprimary"),
                     "COPY": raw.copy_table("photoprimary", big_fixture["photoprimary"])}
    raw_stats_cold = {}
    for qid, ast in asts.items():
        _, stats = raw.execute(ast)
        raw_durations[qid] = stats.duration_ms
        raw_stats_cold[qid] = stats
    raw_hot = {}
    raw_results_hot = {}
    for qid, ast in asts.items():
        result, stats = raw.execute(ast)
        raw_hot[qid] = stats
        raw_results_hot[qid] = result

    db = DbEngine(workdir / "mixed_db")
    db_durations = {}
    load_stats = {}
    for t, p in big_fixture.items():
        ls = db.load_table(p, t, journal=True)
        load_stats[t] = ls
        db_durations[f"COPY_{t}"] = ls.duration_ms
    db_stats_cold = {}
    for qid, ast in asts.items():
        _, stats = db.execute(ast)
        db_durations[qid] = stats.duration_ms
        db_stats_cold[qid] = stats
    db_hot = {}
    db_results_hot = {}
    for qid, ast in asts.items():
        result, stats = db.execute(ast)
        db_hot[qid] = stats
        db_results_hot[qid] = result

    return {
        "asts": asts,
        "raw_engine": raw,
        "db_engine": db,
        "raw_durations": raw_durations,
        "db_durations": db_durations,
        "raw_cold": raw_stats_cold,
        "db_cold": db_stats_cold,
        "raw_hot": raw_hot,
        "db_hot": db_hot,
        "raw_results_hot": raw_results_hot,
        "db_results_hot": db_results_hot,
        "load_stats": load_stats,
    }


def test_criterion_02_zero_load_vs_load(mixed_runs):
    query_ids = [qid for qid, _ in MIXED_WORKLOAD]

    raw_wet = wet(mixed_runs["raw_durations"], load_task_ids={"TRUN", "COPY"})
    assert raw_wet.load_ms == 0.0

    db_load_ids = {k for k in mixed_runs["db_durations"] if k.startswith("COPY_")}
    db_wet = wet(mixed_runs["db_durations"], load_task_ids=db_load_ids)
    assert db_wet.load_ms > 0.0

    for qid in query_ids:
        assert (mixed_runs["raw_results_hot"][qid].multiset()
                == mixed_runs["db_results_hot"][qid].multiset()), qid

    raw_hot_ms = sum(mixed_runs["raw_hot"][q].duration_ms for q in query_ids)
    db_hot_ms = sum(mixed_runs["db_hot"][q].duration_ms for q in query_ids)
    ratio = db_hot_ms / raw_hot_ms
    assert ratio < 0.25, f"db hot/raw hot = {ratio:.3f}, bound 0.25"

    # Cold/hot structure on the ~100 MB fixture: a hot full scan beats its
    # cold run, the byte delta is the whole file, and the in-situ engine's
    # cold/hot gap exceeds the loaded engine's.
    def gap(engine, q, field):
        return (getattr(mixed_runs[f"{engine}_cold"][q], field)
                - getattr(mixed_runs[f"{engine}_hot"][q], field))

    assert gap("raw", "Q2", "duration_ms") > 0
    assert (gap("raw", "Q2", "bytes_read_from_disk")
            == mixed_runs["raw_cold"]["Q2"].bytes_read_from_disk)
    raw_gap = sum(gap("raw", q, "duration_ms") for q in query_ids)
    db_gap = sum(gap("db", q, "duration_ms") for q in query_ids)
    assert raw_gap > db_gap

    announce(2, f"raw load 0 ms, db load {db_wet.load_ms:.0f} ms; "
                f"hot ratio db/raw = {ratio:.3f} (< 0.25); "
                f"cold-hot gap raw {raw_gap:.0f} ms > db {db_gap:.0f} ms")


# ---------------------------------------------------------------------------
# Criterion 3: join crossover and non-inverted scans


def test_criterion_03_join_crossover(workdir):
    d = workdir / "crossover"
    d.mkdir()
    a_csv = d / "a.csv"
    b_csv = d / "b.csv"
    generate_csv(a_csv, rows=50_000, columns=3, seed=301)
    generate_csv(b_csv, rows=50_000, columns=3, seed=302)

    join_ast = parse_query(
        "SELECT a.ra, b.dec FROM a JOIN b ON a.objid = b.objid WHERE a.ra < 30"
    )
    scan_ast = parse_query("SELECT objid, ra FROM a WHERE ra > 90 AND ra < 270")

    raw = RawEngine(join_guard_pairs=CORPUS_GUARD)
    raw.register("a", a_csv)
    raw.register("b", b_csv)
    db = DbEngine(d / "db")
    db.load_table(a_csv, "a")
    db.load_table(b_csv, "b")

    # Warm both engines, then time hot runs.
    raw.execute(join_ast)
    db.execute(join_ast)
    raw_join = min(raw.execute(join_ast)[1].duration_ms for _ in range(3))
    db_join = min(db.execute(join_ast)[1].duration_ms for _ in range(3))
    join_speedup = raw_join / db_join
    assert join_speedup >= 5.0, f"db only {join_speedup:.1f}x faster on the join"

    raw.execute(scan_ast)
    db.execute(scan_ast)
    raw_scan = statistics.median(raw.execute(scan_ast)[1].duration_ms for _ in range(9))
    db_scan = statistics.median(db.execute(scan_ast)[1].duration_ms for _ in range(9))
    assert raw_scan <= 2.0 * db_scan, (
        f"hot raw scan {raw_scan:.2f} ms vs db {db_scan:.2f} ms exceeds 2x"
    )
    announce(3, f"50kx50k join: db {join_speedup:.0f}x faster; "
                f"hot scans raw/db = {raw_scan / db_scan:.2f} (<= 2)")


# ---------------------------------------------------------------------------
# Criterion 4: sampling early termination


def test_criterion_04_sampling_early_termination(big_fixture, workdir):
    main_csv = big_fixture["photoprimary"]
    file_bytes = os.path.getsize(main_csv)
    ast = parse_query("SELECT objid, ra FROM photoprimary WHERE ra < 350 LIMIT 10")

    raw = RawEngine()  # fresh: cold cache
    raw.register("photoprimary", main_csv)
    result, stats = raw.execute(ast)
    assert len(result) == 10
    assert stats.early_stop
    assert stats.rows_scanned <= 0.01 * 560_000, "matches were not in the first 1%"
    assert stats.bytes_read_from_disk <= 0.02 * file_bytes

    db = DbEngine(workdir / "sampling_db")
    t0 = time.perf_counter()
    db.load_table(main_csv, "photoprimary")
    db_result, db_stats = db.execute(ast)
    db_cold_ms = (time.perf_counter() - t0) * 1000.0
    assert db_result.multiset() == result.multiset()

    speedup = db_cold_ms / stats.duration_ms
    assert speedup >= 100.0, f"raw sampling only {speedup:.0f}x faster than load+query"
    announce(4, f"LIMIT-10 read {stats.bytes_read_from_disk} of {file_bytes} bytes "
                f"({100 * stats.bytes_read_from_disk / file_bytes:.3f}%), "
                f"{speedup:.0f}x faster than db cold path")


# ---------------------------------------------------------------------------
# Criterion 5: monitor correlation soundness


def test_criterion_05_monitor_correlation(workdir):
    from test_monitor import make_script

    freq = 10.0
    period_ms = 100
    duration_s = 30
    threshold = 64
    config = MonitorConfig(
        frequency_hz=freq,
        flush_threshold_records=threshold,
        output_path=workdir / "correlation.csv",
    )
    source = SyntheticSource(make_script(int(duration_s * freq), period=1.0 / freq))
    boundary_ms = 15_000
    samples, report = run_scripted(
        config, source, timeline=[(0.0, "A"), (boundary_ms / 1000.0, "B")]
    )
    assert report.max_buffered <= threshold
    checked = 0
    for s in samples:
        if abs(s.ts_ms - boundary_ms) <= period_ms:
            continue
        expected = "A" if s.ts_ms < boundary_ms else "B"
        assert s.task_id == expected, s
        checked += 1
    assert checked > 0.9 * len(samples)
    announce(5, f"{checked}/{len(samples)} samples outside +/-1 tick correctly "
                f"attributed; max buffered {report.max_buffered} <= {threshold}")


# ---------------------------------------------------------------------------
# Criterion 6: monitor overhead


def test_criterion_06_monitor_overhead(workdir):
    if not os.path.exists("/proc/stat"):
        pytest.skip("procfs unavailable")
    from insitu.monitor import TaskRegister, start_monitor

    def self_cpu(freq, window_s):
        config = MonitorConfig(
            frequency_hz=freq,
            output_path=workdir / f"overhead_{int(freq)}.csv",
        )
        source = ProcfsSource(pids=[os.getpid()])
        handle = start_monitor(config, source, TaskRegister())
        time.sleep(window_s)
        handle.stop()
        vals = [s.cpu_pct for s in handle.samples
                if s.scope == "PROC" and s.cpu_pct is not None]
        return statistics.fmean(vals[1:]) if len(vals) > 1 else 0.0

    results = [
        (1, self_cpu(1, 5.0)),
        (10, self_cpu(10, 2.5)),
        (100, self_cpu(100, 2.0)),
        (1000, self_cpu(1000, 2.0)),
    ]
    cpus = [c for _, c in results]
    assert cpus == sorted(cpus), f"overhead not monotone: {results}"
    assert all(c <= 100.0 for c in cpus)
    assert cpus[0] < 2.0, f"1 Hz overhead {cpus[0]:.2f}% >= 2%"
    announce(6, "self-CPU " + ", ".join(f"{f} Hz: {c:.2f}%" for f, c in results))


# ---------------------------------------------------------------------------
# Criterion 7: tool-output parser golden values


def test_criterion_07_parser_goldens():
    from test_stat_sources import IOTOP_BLOCK, TOP_BLOCK

    top = parse_top_block(TOP_BLOCK)
    assert top.cpu["us"] == 21.8
    assert top.cpu["sy"] == 2.9
    assert top.cpu["id"] == 59.6
    assert top.cpu["wa"] == 13.7
    assert top.mem_total_kib == 16257856
    pg = next(p for p in top.processes if p.command == "postgres")
    assert (pg.cpu_pct, pg.mem_pct) == (82.4, 0.3)

    io = parse_iotop_block(IOTOP_BLOCK)
    assert io.total_read_Bps == 40501.48 * 1024
    assert io.total_write_Bps == 22058.46 * 1024
    pg_io = next(p for p in io.processes if "om pl" in p.command)
    assert pg_io.io_pct == 16.04
    assert pg_io.read_value == 328704.00 * 1024
    announce(7, "every numeric field of the tool-output fixtures reproduced exactly")


# ---------------------------------------------------------------------------
# Criterion 8: write amplification


def test_criterion_08_write_amplification(mixed_runs, big_fixture):
    stats = mixed_runs["load_stats"]["photoprimary"]
    ratio = stats.total_written / stats.input_bytes
    assert 1.2 <= ratio <= 1.8, f"write amplification {ratio:.2f} outside [1.2, 1.8]"
    assert stats.binary_bytes < stats.input_bytes
    assert mixed_runs["raw_engine"].total_bytes_written == 0
    announce(8, f"journal-on load wrote {ratio:.2f}x input "
                f"(binary {stats.binary_bytes / stats.input_bytes:.2f}x); raw wrote 0 bytes")


# ---------------------------------------------------------------------------
# Criterion 9: partition-metric oracle and result preservation


def test_criterion_09_partition_metrics(workdir):
    from insitu.query_model import QueryClass
    from insitu.analyzer import ResourceProfile

    rng = random.Random(909)
    mb = 1024 * 1024
    for _ in range(100):
        n = rng.randint(3, 24)
        schema = [f"t.c{i}" for i in range(n)]
        classes = {}
        for q in range(rng.randint(1, 9)):
            joins = rng.choice([0, 0, 0, 1, 2])
            sampling = joins == 0 and rng.random() < 0.3
            kind = "complex" if joins else ("sampling" if sampling else "simple")
            attrs = frozenset(rng.sample(schema, rng.randint(1, min(5, n))))
            classes[f"q{q}"] = QueryClass(joins, sampling, attrs, kind)
        profiles = {
            qid: ResourceProfile(task_id=qid, sample_count=1,
                                 total_read_bytes=rng.choice([0.2 * mb, 64 * mb]),
                                 peak_mem_pct=rng.choice([0.01, 3.0]))
            for qid in classes
        }
        for plan in (qca_partition(classes, schema),
                     rua_partition(classes, profiles, schema)):
            raw_bf, db_bf = set(), set()
            for qid, c in classes.items():
                (raw_bf if plan.routing[qid] == "raw" else db_bf).update(c.attrs)
            assert plan.raw_attrs == raw_bf and plan.db_attrs == db_bf
            m = plan.metrics
            assert m.db_pct == len(db_bf) / n * 100.0
            assert m.raw_only_pct == len(raw_bf - db_bf) / n * 100.0
            assert m.repl_pct == len(raw_bf & db_bf) / n * 100.0
            assert len(db_bf) + len(raw_bf - db_bf) == len(raw_bf | db_bf)

    # Result preservation through materialization on 20 sampled instances.
    rng = random.Random(910)
    for trial in range(20):
        case = workdir / f"preserve{trial}"
        case.mkdir()
        n_rows = rng.randint(80, 300)
        rows_t = [[i, rng.uniform(0, 100), rng.uniform(0, 10), rng.uniform(0, 1)]
                  for i in range(1, n_rows + 1)]
        rows_u = [[i, rng.uniform(0, 100)] for i in range(1, rng.randint(20, 80))]
        t_csv = write_csv(case / "t.csv", ["objid", "p", "q", "r"], rows_t)
        u_csv = write_csv(case / "u.csv", ["objid", "s"], rows_u)
        stmts = [
            f"SELECT p, q FROM t WHERE p > {rng.uniform(0, 90):.3f}",
            f"SELECT objid, r FROM t WHERE r <= {rng.uniform(0.2, 1):.3f} LIMIT "
            f"{rng.randint(1, 20)}",
            "SELECT t.p, u.s FROM t JOIN u ON t.objid = u.objid WHERE u.s < "
            f"{rng.uniform(10, 90):.3f}",
        ]
        asts = {f"q{i}": parse_query(s) for i, s in enumerate(stmts)}
        classes = {k: classify(a) for k, a in asts.items()}
        schema = ["t.objid", "t.p", "t.q", "t.r", "u.objid", "u.s"]
        plan = qca_partition(classes, schema)
        db = DbEngine(case / "db")
        sources = {"t": t_csv, "u": u_csv}
        raw_paths = write_raw_slices(plan, sources, case / "out")
        load_db_side(plan, sources, db)
        baseline = RawEngine()
        baseline.register("t", t_csv)
        baseline.register("u", u_csv)
        raw_part = RawEngine()
        for table, p in raw_paths.items():
            raw_part.register(table, p)
        for qid, ast in asts.items():
            want, _ = baseline.execute(ast)
            side = route_query(classes[qid], plan, query_id=qid)
            got, _ = (raw_part if side == "raw" else db).execute(ast)
            assert got.multiset() == want.multiset(), (trial, qid)
    announce(9, "100 metric instances match brute force exactly; "
                "result preservation held on 20 materialized instances")


# ---------------------------------------------------------------------------
# Criterion 10: QCA and RUA WET reductions


def test_criterion_10_partition_wet_reduction(workdir):
    d = workdir / "wetred"
    d.mkdir()
    wide_csv = d / "wide.csv"
    u_csv = d / "u.csv"
    generate_csv(wide_csv, rows=60_000, columns=30, seed=401)
    generate_csv(u_csv, rows=10_000, columns=3, seed=402)

    simple = [
        ("S0", "SELECT objid, ra FROM wide WHERE ra > 40"),
        ("S1", "SELECT dec FROM wide WHERE dec < 0"),
        ("S2", "SELECT objid, v03 FROM wide WHERE v03 <= 600"),
        ("S3", "SELECT ra, dec FROM wide WHERE ra < 300"),
        ("S4", "SELECT v03 FROM wide WHERE v03 > 100"),
        ("S5", "SELECT objid FROM wide WHERE ra >= 10 AND dec <= 80"),
        ("S6", "SELECT ra FROM wide WHERE ra = 180"),
        ("S7", "SELECT dec, v03 FROM wide WHERE dec > -45"),
        ("S8", "SELECT objid, ra, dec FROM wide WHERE ra < 90"),
        ("S9", "SELECT v03, ra FROM wide WHERE v03 < 950"),
    ]
    complex_q = [
        ("C0", "SELECT wide.v10, u.ra FROM wide JOIN u ON wide.objid = u.objid "
               "WHERE u.ra < 100"),
        ("C1", "SELECT wide.v11, u.dec FROM wide JOIN u ON wide.objid = u.objid "
               "WHERE wide.v11 > 500"),
    ]
    workload = simple + complex_q
    asts = {qid: parse_query(s) for qid, s in workload}
    classes = {qid: classify(a) for qid, a in asts.items()}
    simple_union = set().union(*(classes[q].attrs for q, _ in simple))
    assert len(simple_union) == 4  # the simple queries touch 4 columns

    from insitu.tabular import read_header

    schema = [f"wide.{a}" for a in read_header(wide_csv)]
    schema += [f"u.{a}" for a in read_header(u_csv)]

    sources = {"wide": wide_csv, "u": u_csv}

    def best_of_5(*arms):
        """Each arm's minimum WET total (ms) over five rounds. A round runs
        every arm once, in turn, each in a new directory, so with fresh
        engines and stores. The host's speed swings in spells shorter than
        a round, so one arm's single run can land in a fast spell that the
        other arm's runs all miss; the more rounds, the likelier every arm
        meets one."""
        best = [math.inf] * len(arms)
        for rep in range(5):
            for i, arm in enumerate(arms):
                run_dir = d / f"arm{i}-{rep}"
                best[i] = min(best[i], arm(run_dir))
                shutil.rmtree(run_dir, ignore_errors=True)
        return best

    def base_arm(run_dir):
        """Load-everything baseline: bulk-load both tables, run all queries on db."""
        db = DbEngine(run_dir)
        durations = {f"LOAD_{t}": db.load_table(p, t).duration_ms for t, p in sources.items()}
        for qid, ast in asts.items():
            durations[qid] = db.execute(ast)[1].duration_ms
        return wet(durations, {"LOAD_wide", "LOAD_u"}).total_ms

    def plan_arm(plan, queries, query_classes):
        """A plan's WET: materialized as `insitu run` does (one pass per
        source), then each query on the side it routes to."""
        def run(run_dir):
            db = DbEngine(run_dir / "db")
            raw_paths, load_stats, _ = materialize_plan(plan, sources, run_dir / "out", db)
            raw = RawEngine()
            for table, p in raw_paths.items():
                raw.register(table, p)
            durations = {f"LOAD_{t}": s.duration_ms for t, s in load_stats.items()}
            for qid, ast in queries.items():
                side = route_query(query_classes[qid], plan, query_id=qid)
                durations[qid] = (raw if side == "raw" else db).execute(ast)[1].duration_ms
            return wet(durations, {k for k in durations if k.startswith("LOAD_")}).total_ms
        return run

    # QCA: simple-query attrs stay raw; complex attrs load.
    plan = qca_partition(classes, schema)
    qca_ms, base_ms = best_of_5(plan_arm(plan, asts, classes), base_arm)
    qca_ratio = qca_ms / base_ms
    assert qca_ratio <= 0.5, f"QCA WET ratio {qca_ratio:.2f} exceeds 0.5"

    # RUA on a sampling-dominated workload vs raw-on-original.
    sampling = [
        (f"P{i}", f"SELECT objid, ra FROM wide WHERE ra < 350 LIMIT {5 + i}")
        for i in range(8)
    ]
    rua_workload = sampling + complex_q
    rua_asts = {qid: parse_query(s) for qid, s in rua_workload}
    rua_classes = {qid: classify(a) for qid, a in rua_asts.items()}

    raw_exec = {}  # the last run's stats, for the RUA plan

    def raw_arm(run_dir):
        raw = RawEngine(join_guard_pairs=CORPUS_GUARD)
        for table, p in sources.items():
            raw.register(table, p)
        for qid, ast in rua_asts.items():
            raw_exec[qid] = raw.execute(ast)[1]
        return wet({q: s.duration_ms for q, s in raw_exec.items()}, set()).total_ms

    # The advisor's profiles come from a first raw run, as `insitu run`'s
    # would from the workload's; `raw_exec` keeps the last run's stats.
    raw_arm(d / "profile")
    profiles = profiles_from_exec_stats(raw_exec, SystemSpec())
    rua_plan = rua_partition(rua_classes, profiles, schema)
    assert all(rua_plan.routing[qid] == "raw" for qid, _ in sampling)
    assert all(rua_plan.routing[qid] == "db" for qid, _ in complex_q)

    rua_ms, raw_ms = best_of_5(plan_arm(rua_plan, rua_asts, rua_classes), raw_arm)
    rua_ratio = rua_ms / raw_ms
    assert rua_ratio <= 0.5, f"RUA WET ratio {rua_ratio:.2f} exceeds 0.5"
    announce(10, f"QCA WET {qca_ratio:.2f}x of load-everything; "
                 f"RUA WET {rua_ratio:.2f}x of raw-on-original (both <= 0.5)")


# ---------------------------------------------------------------------------
# Criterion 11: capacity check constants


def test_criterion_11_capacity_constants():
    spec = SystemSpec(ram_bytes=16e9, ram_expansion_factor=2.24)

    small = raw_capacity_check(4.6e9, spec)
    assert small.fits
    assert abs(small.required_bytes - 10.3e9) <= 0.1e9

    large = raw_capacity_check(7.1e9, spec)
    assert not large.fits

    assert raw_capacity_check(0.4 * 16e9, spec).fits
    assert not raw_capacity_check(0.5 * 16e9, spec).fits
    announce(11, f"4.6 GB -> {small.required_bytes / 1e9:.2f} GB required (fits); "
                 "7.1 GB and the 50%-of-RAM boundary do not fit")


# ---------------------------------------------------------------------------
# Criterion 12: end-to-end determinism


def test_criterion_12_run_determinism(workdir):
    d = workdir / "determinism"
    d.mkdir()
    data = d / "photoprimary.csv"
    generate_csv(data, rows=2_000, columns=5, seed=77)
    wl = d / "workload.csv"
    wl.write_text(
        "T_ID,Statement\n"
        'TRUN,"TRUNCATE TABLE PhotoPrimary;"\n'
        f"COPY,\"COPY PhotoPrimary FROM '{data}';\"\n"
        'Q0,"Select count(objid) from PhotoPrimary;"\n'
        'Q1,"SELECT objid, ra FROM PhotoPrimary WHERE ra > 10 LIMIT 25;"\n'
        'Q2,"SELECT dec FROM PhotoPrimary WHERE dec < 45;"\n'
    )

    def strip_ms(obj):
        if isinstance(obj, dict):
            return {k: strip_ms(v) for k, v in obj.items() if not k.endswith("_ms")}
        if isinstance(obj, list):
            return [strip_ms(v) for v in obj]
        return obj

    reports = []
    sample_bytes = []
    for name in ("one", "two"):
        out = d / name
        rc = main(["run", "--workload", str(wl), "--engine", "db",
                   "--source", "synthetic", "--seed", "4242", "--journal", "on",
                   "--out", str(out)])
        assert rc == 0
        sample_bytes.append((out / "samples.csv").read_bytes())
        reports.append(strip_ms(json.loads((out / "report.json").read_text())))
    assert sample_bytes[0] == sample_bytes[1]
    assert reports[0] == reports[1]
    announce(12, "samples.csv byte-identical; report.json identical modulo durations")
