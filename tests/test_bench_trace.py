"""Smoke test of the benchmark's tracer (perfbench/layers.py): it wraps
`insitu` functions by name, so a rename or a changed return value breaks it
without failing any engine test. Each run is in a subprocess so the wrappers
do not leak into this session."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, os, sys
from pathlib import Path

import layers
from spans import SpanRecorder
from insitu import cli
from insitu.datagen import generate_csv

work = Path(sys.argv[1])
engine, source = sys.argv[2], sys.argv[3]
# The live run is long enough for several ticks at 1 kHz.
generate_csv(work / "t.csv", rows=4000 if source == "procfs" else 400, columns=5, seed=2)
generate_csv(work / "u.csv", rows=50, columns=3, seed=3)
statements = "T_ID,Statement\n"
if engine == "db":
    # Three loads, each journalled: a COPY of each table, then a reload of t.
    statements += (
        f"L0,\"COPY t FROM '{work / 't.csv'}';\"\n"
        f"L1,\"COPY u FROM '{work / 'u.csv'}';\"\n"
        'L2,"TRUNCATE TABLE t;"\n'
        f"L3,\"COPY t FROM '{work / 't.csv'}';\"\n"
    )
statements += (
    'Q0,"SELECT ra, dec FROM t WHERE ra < 100;"\n'
    'Q1,"SELECT t.v03, u.ra FROM t JOIN u ON t.objid = u.objid;"\n'
)
if engine == "raw":
    # A LIMIT on a column no earlier query cached: the raw engine streams it.
    statements += 'Q2,"SELECT v04 FROM t WHERE v04 < 500 LIMIT 5;"\n'
wl = work / "wl.csv"
wl.write_text(statements)
if engine == "plan":
    plan = work / "plan.json"
    assert cli.main(["advise", "qca", "--workload", str(wl), "--schema-csv",
                     str(work / "t.csv"), str(work / "u.csv"), "--out", str(plan)]) == 0
    engine = f"plan:{plan}"
argv = ["run", "--workload", str(wl), "--engine", engine, "--source", source,
        "--data-dir", str(work), "--out", str(work / "out")]
if engine == "db":
    argv += ["--journal", "on"]
if source == "procfs":
    # This process's command line holds the work directory, as the benchmark's
    # holds its job file.
    argv += ["--freq", "1000", "--watched", str(work)]

rec = SpanRecorder()
traced_main = layers.install(rec)
out = work / "out"
code = traced_main(argv)


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


report = json.loads((out / "report.json").read_text())
store = {"db": dir_bytes(out / "db_store"), "partition": dir_bytes(out / "partition")}
print(json.dumps({"code": code, "metrics": layers.layer_metrics(rec.spans, report, store)}))
"""


def trace(tmp_path, engine, source):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), engine, source], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_layers_trace_a_plan_run(tmp_path):
    result = trace(tmp_path, "plan", "synthetic")
    assert result["code"] == 0
    assert result["metrics"]["db_engine.load_calls"] >= 1


def test_layers_trace_a_live_procfs_run(tmp_path):
    if not os.path.exists("/proc/stat"):
        pytest.skip("no procfs")
    result = trace(tmp_path, "raw", "procfs")
    assert result["code"] == 0
    assert result["metrics"]["monitor.tick_ratio"] > 0
    # The live hooks saw the PROC samples of this process, found by command line.
    assert result["metrics"]["monitor.samples_held"] > result["metrics"]["stat_sources.ticks"]
    # The LIMIT query read a prefix of its file without a full scan beneath it.
    assert 0 < result["metrics"]["raw_engine.limit_bytes_frac"] < 1


def test_layers_trace_a_journalled_db_run(tmp_path):
    """Loads and their journal fsyncs go through the names the tracer
    wraps (`DbEngine.load_table`, `os.fsync`)."""
    result = trace(tmp_path, "db", "synthetic")
    assert result["code"] == 0
    assert result["metrics"]["db_engine.load_calls"] >= 3
    assert result["metrics"]["db_engine.fsyncs"] >= 1
