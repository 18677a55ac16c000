"""Measure a workload, derive partition plans, and compare layouts.

Classifies queries, builds the complexity-aware and utilization-aware
plans, materializes the vertical partitions, and compares workload
execution time against single-layout baselines. Also runs the in-situ
capacity check that decides whether a dataset can be cached at all.
"""
import tempfile
from pathlib import Path

from insitu import (
    DbEngine,
    RawEngine,
    SystemSpec,
    classify,
    generate_csv,
    parse_query,
    profiles_from_exec_stats,
    qca_partition,
    raw_capacity_check,
    route_query,
    rua_partition,
)
from insitu.advisor import materialize_plan
from insitu.tabular import read_header

work = Path(tempfile.mkdtemp(prefix="insitu_demo_"))
wide_csv = work / "wide.csv"
dim_csv = work / "dim.csv"
generate_csv(wide_csv, rows=40_000, columns=20, seed=7)
generate_csv(dim_csv, rows=5_000, columns=3, seed=8)
sources = {"wide": wide_csv, "dim": dim_csv}

statements = {
    "S0": "SELECT objid, ra FROM wide WHERE ra > 120 AND ra < 140",
    "S1": "SELECT dec FROM wide WHERE dec < -60",
    "S2": "SELECT objid, ra FROM wide WHERE ra < 350 LIMIT 10",
    "C0": "SELECT wide.v10, dim.ra FROM wide JOIN dim ON wide.objid = dim.objid "
          "WHERE dim.ra < 40",
}
asts = {k: parse_query(v) for k, v in statements.items()}
classes = {k: classify(a) for k, a in asts.items()}
for k, c in classes.items():
    print(f"{k}: {c.kind} (joins={c.join_count}, attrs={sorted(c.attrs)})")

schema = [f"wide.{a}" for a in read_header(wide_csv)]
schema += [f"dim.{a}" for a in read_header(dim_csv)]

# Measure once in-situ to get per-query footprints for the RUA thresholds.
probe = RawEngine()
probe.register("wide", wide_csv)
probe.register("dim", dim_csv)
footprints = {}
for k, ast in asts.items():
    probe.clear_cache()
    _, stats = probe.execute(ast)
    footprints[k] = stats
profiles = profiles_from_exec_stats(footprints, SystemSpec())

for plan in (
    qca_partition(classes, schema),
    rua_partition(classes, profiles, schema),
):
    m = plan.metrics
    print(f"\n{plan.technique}: db {m.db_pct:.1f}% / raw-only {m.raw_only_pct:.1f}% "
          f"/ replicated {m.repl_pct:.1f}%")
    print(f"  routing: {plan.routing}")

    out = work / plan.technique.lower()
    db = DbEngine(work / f"{plan.technique.lower()}_db")
    raw_paths, loads, _ = materialize_plan(plan, sources, out, db)
    load_ms = sum(s.duration_ms for s in loads.values())
    raw = RawEngine()
    for table, path in raw_paths.items():
        raw.register(table, path)
    total = load_ms
    for k, ast in asts.items():
        side = route_query(classes[k], plan, query_id=k)
        engine = raw if side == "raw" else db
        _, stats = engine.execute(ast)
        total += stats.duration_ms
    print(f"  WET on the partitioned layout: {total:.0f} ms "
          f"(db-side load {load_ms:.0f} ms)")

spec = SystemSpec(ram_bytes=16e9)
for gb in (4.6, 7.1):
    check = raw_capacity_check(gb * 1e9, spec)
    verdict = "fits" if check.fits else "does NOT fit"
    print(f"\n{gb} GB raw on a 16 GB machine: needs "
          f"{check.required_bytes / 1e9:.1f} GB cached -> {verdict}")
