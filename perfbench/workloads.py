"""Seeded inputs for the three benchmark workloads.

Each workload is a set of table CSVs, a workload file and the `insitu run`
flags that execute it. The seed picks the data values, the predicate
literals and which physical column plays each popularity rank. The shape of
a workload (how many queries of each kind, in which order, at which rank and
selectivity) comes from a fixed structure seed, so the cost of a run hardly
depends on the seed while its inputs and answers do.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from insitu import advisor, datagen, query_model, tabular

STRUCTURE_SEED = 20221221

PP_ROWS = 25_000
SPEC_ROWS = 12_000
D1_ROWS = 1_000
WIDE_ROWS = 100_000
U_ROWS = 3_000

# About 5.6 of photoprimary's 12 parsed columns (8 bytes a row each) fit.
RAW_CACHE_BUDGET = 45 * PP_ROWS

CLASSES = (("GALAXY", 0.6), ("STAR", 0.3), ("QSO", 0.1))
SUBCLASSES = {
    "GALAXY": ("STARFORMING", "STARBURST", "AGN", "BROADLINE"),
    "STAR": ("A0", "F5", "G2", "K1", "M3"),
    "QSO": ("BROADLINE", "AGN"),
}

# Numeric column value ranges as written by insitu.datagen.
RANGES = {"ra": (0.0, 360.0), "dec": (-90.0, 90.0)}
V_RANGE = (0.0, 1000.0)


@dataclass
class Setup:
    """One workload's generated inputs, ready for `insitu run`."""

    data_dir: Path
    workload_path: Path
    tables: dict[str, Path]
    flags: list[str]
    # The engine of every query, or None when a plan routes them.
    engine: str | None
    timings_ms: dict[str, float] = field(default_factory=dict)
    tasks: list = field(default_factory=list)  # insitu.query_model.WorkloadTask
    # Which engine executes each query task under test ("raw" or "db").
    engine_of: dict[str, str] = field(default_factory=dict)

    def index(self) -> None:
        """Fill in `tasks` and `engine_of` for the checks. This is the
        benchmark's bookkeeping, not set-up, so it runs after `setup_s` is
        taken; a plan's routing is kept as the plan computed it."""
        if not self.tasks:
            self.tasks = query_model.parse_workload(
                self.workload_path.read_text(encoding="utf-8"))
        if self.engine is not None:
            self.engine_of = {
                t.task_id: self.engine for t in self.tasks
                if isinstance(query_model.parse_query(t.statement), query_model.QueryAst)
            }

    def run_argv(self, out_dir: Path) -> list[str]:
        return [
            "run", "--workload", str(self.workload_path), "--data-dir",
            str(self.data_dir), "--out", str(out_dir), *self.flags,
        ]

    @property
    def query_ids(self) -> list[str]:
        return [t.task_id for t in self.tasks if t.task_id in self.engine_of]


def _lit(name: str, frac: float) -> str:
    """The literal below which `frac` of column `name`'s values fall."""
    lo, hi = RANGES.get(name, V_RANGE)
    return f"{lo + frac * (hi - lo):.3f}"


def _zipf_ranks(rng: random.Random, n: int, count: int, s: float = 1.1) -> list[int]:
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    return rng.choices(range(n), weights=weights, k=count)


def write_specobj(path: Path, rows: int, key_space: int, seed: int) -> None:
    """The benchmark's text table: objid (a subset of 1..key_space), two
    low-cardinality text columns and a redshift."""
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(1, key_space + 1), rows))
    names = [c for c, _ in CLASSES]
    weights = [w for _, w in CLASSES]
    lines = ["objid,class,subclass,z"]
    for objid in ids:
        cls = rng.choices(names, weights=weights)[0]
        sub = rng.choice(SUBCLASSES[cls])
        lines.append(f"{objid},{cls},{sub},{rng.uniform(0.0, 5.0):.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_workload(path: Path, statements: list[tuple[str, str]]) -> None:
    lines = ["T_ID,Statement"]
    lines += [f'{tid},"{stmt.replace(chr(34), chr(34) * 2)}"' for tid, stmt in statements]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _generate(timings: dict, path: Path, rows: int, columns: int, seed: int) -> None:
    t0 = time.perf_counter()
    datagen.generate_csv(path, rows=rows, columns=columns, seed=seed)
    timings["datagen.generate_ms"] = (
        timings.get("datagen.generate_ms", 0.0) + (time.perf_counter() - t0) * 1000.0
    )


def _three_tables(data_dir: Path, seed: int, timings: dict) -> dict[str, Path]:
    tables = {t: data_dir / f"{t}.csv" for t in ("photoprimary", "specobj", "d1")}
    _generate(timings, tables["photoprimary"], PP_ROWS, 12, seed)
    write_specobj(tables["specobj"], SPEC_ROWS, PP_ROWS, seed + 1)
    _generate(timings, tables["d1"], D1_ROWS, 4, seed + 2)
    return tables


def _column_map(seed: int, columns: list[str]) -> list[str]:
    """Seeded assignment of physical columns to popularity ranks."""
    cols = list(columns)
    random.Random(seed).shuffle(cols)
    return cols


def _pick(s: random.Random, v: random.Random, cols: list[str], lo=0.005, hi=0.03):
    """Two distinct Zipf-ranked columns and a selectivity in [lo, hi]."""
    a, b = _zipf_ranks(s, len(cols), 2)
    if a == b:
        b = (b + 1) % len(cols)
    return cols[a], cols[b], s.uniform(lo, hi) + v.uniform(0.0, 0.002)


def _scan(ca: str, cb: str, frac: float) -> str:
    return (f"SELECT photoprimary.objid, photoprimary.{ca} FROM photoprimary "
            f"WHERE photoprimary.{cb} < {_lit(cb, frac)}")


def _count(ca: str, cb: str, frac: float) -> str:
    return (f"SELECT COUNT(photoprimary.{ca}) FROM photoprimary "
            f"WHERE photoprimary.{cb} > {_lit(cb, 1.0 - frac)}")


def _text_pred(s: random.Random) -> str:
    """A specobj text predicate on class, or on subclass and class."""
    cls = CLASSES[s.randrange(len(CLASSES))][0]
    if s.random() < 0.5:
        return f"specobj.subclass = '{s.choice(SUBCLASSES[cls])}' AND specobj.class = '{cls}'"
    return f"specobj.class = '{cls}'"


def raw_explore(data_dir: Path, seed: int) -> Setup:
    """The in-situ engine with its working set over its cache budget."""
    timings: dict[str, float] = {}
    tables = _three_tables(data_dir, seed, timings)
    s = random.Random(STRUCTURE_SEED)
    v = random.Random(seed)
    scan_cols = _column_map(seed, ["ra", "dec"] + [f"v{i:02d}" for i in range(3, 10)])
    kinds = ["scan"] * 112 + ["limit"] * 40 + ["count"] * 24 + ["text"] * 16 + ["join"] * 8
    s.shuffle(kinds)
    stmts = []
    for i, kind in enumerate(kinds):
        ca, cb, frac = _pick(s, v, scan_cols)
        if kind == "scan":
            q = _scan(ca, cb, frac)
        elif kind == "count":
            q = _count(ca, cb, 20 * frac)
        elif kind == "limit":
            # v10/v11 are touched by no scan, so LIMIT stays on the streaming path.
            sel = s.choice((0.05, 0.2, 0.5))
            q = (f"SELECT photoprimary.objid, photoprimary.v10 FROM photoprimary "
                 f"WHERE photoprimary.v11 < {_lit('v11', sel + v.uniform(0.0, 0.01))} "
                 f"LIMIT {s.choice((20, 50, 100))}")
        elif kind == "text":
            q = (f"SELECT specobj.objid, specobj.z FROM specobj "
                 f"WHERE {_text_pred(s)}")
        else:
            cls = CLASSES[s.randrange(3)][0]
            q = (f"SELECT d1.ra, specobj.z FROM d1 JOIN specobj "
                 f"ON d1.objid = specobj.objid WHERE specobj.class = '{cls}'")
        stmts.append((f"Q{i + 1:03d}", q))
    flags = ["--engine", "raw", "--cache-budget", str(RAW_CACHE_BUDGET),
             "--source", "procfs", "--freq", "20"]
    return _finish(data_dir, tables, stmts, flags, "raw", timings)


def db_load_query(data_dir: Path, seed: int) -> Setup:
    """Load-then-query with a journal, reloads of the text table, pruning."""
    timings: dict[str, float] = {}
    tables = _three_tables(data_dir, seed, timings)
    s = random.Random(STRUCTURE_SEED + 1)
    v = random.Random(seed)
    cols = _column_map(seed, ["ra", "dec"] + [f"v{i:02d}" for i in range(3, 12)])
    kinds = (["scan"] * 160 + ["count"] * 80 + ["pruned"] * 40 + ["text"] * 80
             + ["join"] * 40)
    s.shuffle(kinds)
    stmts = [(f"L{i}", f"COPY {t} FROM '{t}.csv'") for i, t in enumerate(tables, 1)]
    reload_at = {len(kinds) // 3, 2 * len(kinds) // 3}
    for i, kind in enumerate(kinds):
        if i in reload_at:
            stmts.append((f"T{i}", "TRUNCATE TABLE specobj"))
            stmts.append((f"R{i}", "COPY specobj FROM 'specobj.csv'"))
        ca, cb, frac = _pick(s, v, cols, 0.01, 0.25)
        if kind == "scan":
            q = _scan(ca, cb, frac)
        elif kind == "count":
            q = _count(ca, cb, 2 * frac)
        elif kind == "pruned":
            # Disjoint from the column's [min, max]: answered from metadata.
            q = (f"SELECT photoprimary.objid, photoprimary.{ca} FROM photoprimary "
                 f"WHERE photoprimary.{cb} > {_lit(cb, 1.5 + v.random())}")
        elif kind == "text":
            q = (f"SELECT specobj.objid, specobj.subclass FROM specobj "
                 f"WHERE {_text_pred(s)}")
        else:
            cls = CLASSES[s.randrange(3)][0]
            q = (f"SELECT photoprimary.{ca}, specobj.z FROM photoprimary JOIN specobj "
                 f"ON photoprimary.objid = specobj.objid WHERE specobj.class = '{cls}' "
                 f"AND photoprimary.{cb} < {_lit(cb, frac)}")
        stmts.append((f"Q{i + 1:03d}", q))
    flags = ["--engine", "db", "--journal", "on", "--source", "synthetic",
             "--freq", "50", "--seed", str(seed)]
    return _finish(data_dir, tables, stmts, flags, "db", timings)


def plan_qca(data_dir: Path, seed: int) -> Setup:
    """The advisor path: a QCA plan routes scans raw and joins to the db."""
    timings: dict[str, float] = {}
    tables = {"wide": data_dir / "wide.csv", "u": data_dir / "u.csv"}
    _generate(timings, tables["wide"], WIDE_ROWS, 30, seed)
    _generate(timings, tables["u"], U_ROWS, 3, seed + 1)
    s = random.Random(STRUCTURE_SEED + 2)
    v = random.Random(seed)
    cols = _column_map(seed, [f"v{i:02d}" for i in range(3, 30)])
    hot, tail = cols[:4], cols[4:9]
    kinds = ["scan"] * 170 + ["join"] * 30
    s.shuffle(kinds)
    stmts = []
    for i, kind in enumerate(kinds):
        frac = s.uniform(0.01, 0.25) + v.uniform(0.0, 0.002)
        if kind == "scan":
            a, b = s.sample(range(4), 2)
            q = (f"SELECT wide.{hot[a]}, wide.{hot[b]} FROM wide "
                 f"WHERE wide.{hot[b]} < {_lit(hot[b], frac)}")
        else:
            a, b = s.sample(range(len(tail)), 2)
            q = (f"SELECT wide.{tail[a]}, u.ra FROM wide JOIN u ON wide.objid = u.objid "
                 f"WHERE wide.{tail[b]} < {_lit(tail[b], frac)}")
        stmts.append((f"Q{i + 1:03d}", q))
    plan_path = data_dir / "plan.json"
    flags = ["--engine", f"plan:{plan_path}", "--source", "synthetic",
             "--freq", "1", "--seed", str(seed)]
    setup = _finish(data_dir, tables, stmts, flags, None, timings)
    t0 = time.perf_counter()
    setup.tasks = query_model.parse_workload(
        setup.workload_path.read_text(encoding="utf-8"))
    classes = {}
    for task in setup.tasks:
        classes[task.task_id] = query_model.classify(query_model.parse_query(task.statement))
    schema = [f"{t}.{a}" for t, p in tables.items() for a in tabular.read_header(p)]
    plan = advisor.qca_partition(classes, schema)
    plan.save(plan_path)
    timings["advisor.plan_ms"] = (time.perf_counter() - t0) * 1000.0
    setup.engine_of = dict(plan.routing)
    return setup


def _finish(data_dir, tables, stmts, flags, engine, timings) -> Setup:
    workload_path = data_dir / "workload.csv"
    write_workload(workload_path, stmts)
    return Setup(data_dir, workload_path, tables, flags, engine, timings)


WORKLOADS = {
    "raw-explore": raw_explore,
    "db-load-query": db_load_query,
    "plan-qca": plan_qca,
}
