"""Benchmark of `insitu run` on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload raw-explore --seed 1 --seconds 10 --trace 0

One invocation sets the workload up, computes reference answers, makes one
untimed run whose query rows are digested and compared with them, and then
repeats timed runs of `insitu run`, each in a fresh process with a fresh
output directory and followed by one more timed set-up (the median of all
set-ups is `setup_s`), until `--seconds` have passed. It prints every
metric by name with its unit; the last line is one JSON object with the
metrics BENCHMARK.json lists: end-to-end lower quartiles over the untraced
runs with `--trace 0`, per-layer lower quartiles over traced runs
(alternating with untraced ones) with `--trace 1`.

See README.md for the workloads and for the definition of every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from child import import_insitu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

MIN_RUNS = 3
MAX_RUNS = 40
CHILD_TIMEOUT_S = 150

WORKLOADS = ("raw-explore", "db-load-query", "plan-qca")
END_TO_END = (
    "setup_s", "run_s", "load_s", "query_s", "first_answer_s", "query_p50_ms",
    "query_p95_ms", "peak_rss_mb", "run_rss_mb", "read_x", "write_x", "store_x",
    "failed_frac",
)


class BenchError(Exception):
    pass


def unit_of(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_mb", "MiB"),
                         ("_per_col", "B/col"), ("_x", "ratio"), ("_frac", "ratio"),
                         ("_rate", "ratio"), ("_ratio", "ratio")):
        if tail.endswith(suffix):
            return unit
    return "B" if "bytes" in tail else "count"


# -- files -------------------------------------------------------------------


def dir_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _fsync_path(path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def flush_tree(path: Path) -> None:
    """Write back everything under `path`, so no timed region pays for
    this data's write-back."""
    for d, _, files in os.walk(path):
        for f in files:
            _fsync_path(os.path.join(d, f))
        _fsync_path(d)


def remove_tree(path: Path) -> None:
    """Delete `path` and commit the deletion before returning.

    Data the run left in the page cache goes with its files instead of being
    written back, so nothing of one run is still being written during the
    next; fsyncing the parent directory waits for the deletion (and the
    discard of blocks already written, such as fsynced journals) to finish.
    """
    if not path.exists():
        return
    shutil.rmtree(path)
    _fsync_path(path.parent)


def environment(path: Path) -> dict:
    import numpy

    mount = "unknown"
    real = os.path.realpath(path)
    best = ""
    try:
        with open("/proc/mounts", encoding="utf-8") as f:
            for line in f:
                dev, mnt, fstype, opts = line.split()[:4]
                inside = real == mnt or real.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, mount = mnt, f"{dev} on {mnt} type {fstype} ({opts})"
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "mount": mount,
    }


# -- runs --------------------------------------------------------------------


def run_child(mode: str, argv: list[str], job: Path) -> dict:
    """Run `insitu run` once in a fresh process whose command line names
    `job`; returns its measurements."""
    result = job.parent / "result.json"
    job.write_text(json.dumps({
        "root": str(ROOT), "argv": argv, "mode": mode, "result": str(result),
    }), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(job)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{mode} run exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        from workloads import WORKLOADS

        self.make, self.seed, self.work = WORKLOADS[name], seed, work
        self.runs = 0

    def _make(self):
        """One timed set-up into a fresh directory; returns it."""
        data_dir = self.work / f"setup-{len(self.setup_times)}"
        data_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        setup = self.make(data_dir, self.seed)
        self.setup_times.append(time.perf_counter() - t0)
        self.setup_timings.append(setup.timings_ms)
        return setup

    def set_up(self):
        """The set-up every run uses."""
        self.setup_times, self.setup_timings = [], []
        self.setup = setup = self._make()
        flush_tree(setup.data_dir)
        setup.index()
        self.task_ids = [t.task_id for t in setup.tasks]
        n = len(setup.query_ids)
        if (metrics.highest_percentile(n) or 0) < 95:
            raise BenchError(f"{n} queries give p95 fewer than "
                             f"{metrics.MIN_BEYOND} samples beyond it")

    def time_setup(self):
        """One more set-up, timed and deleted. Made between timed runs, the
        set-ups spread over the whole invocation, so a burst of host slowness
        (about a second) reaches only a few of the set-ups `setup_s` is the
        median of."""
        remove_tree(self._make().data_dir)

    def check_answers(self) -> None:
        """Reference answers, then one untimed run whose rows are digested."""
        from reference import reference_answers

        scratch = self.work / "reference"
        scratch.mkdir()
        self.reference = reference_answers(self.setup, scratch)
        remove_tree(scratch)
        self.expected_rows = {t: a[0] for t, a in self.reference.items()}
        res, _report, _store = self._run("digest")
        got = res["digests"]
        self.wrong = {t for t, a in self.reference.items() if tuple(got.get(t, ())) != a}

    def _run(self, mode: str):
        run_dir = self.work / f"run-{self.runs}"
        self.runs += 1
        run_dir.mkdir(parents=True)
        job = run_dir / "job.json"
        argv = self.setup.run_argv(run_dir / "out")
        if "procfs" in argv:
            # The live monitor matches --watched against each process's
            # command line; only the run's own process has this job file in it.
            argv += ["--watched", str(job)]
        try:
            res = run_child(mode, argv, job)
            out = run_dir / "out"
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            store = {"db": dir_bytes(out / "db_store"), "partition": dir_bytes(out / "partition")}
        finally:
            remove_tree(run_dir)
        return res, report, store

    def timed_run(self, mode: str) -> dict:
        res, report, store = self._run(mode)
        records = report["tasks"]
        failed = metrics.count_failed(self.task_ids, records, self.expected_rows, self.wrong)
        if report["status"] != "ok" or res["exit_code"] != 0:
            failed = max(failed, 1)
        q = [r["duration_ms"] for r in records if r["kind"] == "query"]
        io = report["io"]
        first = res["first_answer_s"]
        m = {
            "run_s": res["run_s"],
            "load_s": report["wet"]["load_ms"] / 1000.0,
            "query_s": report["wet"]["query_ms"] / 1000.0,
            # With no answer at all, the first answer is no earlier than the end.
            "first_answer_s": first if first is not None else res["run_s"],
            "query_p50_ms": metrics.percentile(q, 50) if q else 0.0,
            "query_p95_ms": metrics.percentile(q, 95) if q else 0.0,
            "peak_rss_mb": res["peak_rss_mb"],
            "run_rss_mb": res["run_rss_mb"],
            "read_x": io["read_x"] or 0.0,
            "write_x": io["write_x"] or 0.0,
            "store_x": (store["db"] + store["partition"]) / io["dataset_bytes"],
        }
        if mode == "trace":
            import layers
            from spans import Span

            spans = [Span(**d) for d in res["spans"]]
            m.update(layers.layer_metrics(spans, report, store))
        return {"metrics": m, "failed": failed}


def over_runs(runs, key):
    return metrics.lower_quartile([r["metrics"][key] for r in runs])


def bench(args) -> tuple[list[str], dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = environment(work)
    try:
        b = Bench(args.workload, args.seed, work)
        b.set_up()
        b.check_answers()
        plain, traced = [], []
        deadline = time.monotonic() + args.seconds
        while len(plain) < MAX_RUNS:
            plain.append(b.timed_run("plain"))
            if args.trace:
                traced.append(b.timed_run("trace"))
            b.time_setup()
            if len(plain) >= MIN_RUNS and time.monotonic() >= deadline:
                break
    finally:
        remove_tree(work)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation is still using it

    timed = plain + traced
    failed = sum(r["failed"] for r in timed)
    attempted = len(timed) * len(b.task_ids)
    nq = len(b.setup.query_ids)
    e2e = {k: over_runs(plain, k) for k in END_TO_END
           if k not in ("setup_s", "failed_frac")}
    e2e["setup_s"] = statistics.median(b.setup_times)
    e2e["failed_frac"] = failed / attempted
    setup_timings = {
        k: statistics.median(t.get(k, 0.0) for t in b.setup_timings)
        for k in ("datagen.generate_ms", "advisor.plan_ms")
    }
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(plain)} untraced + {len(traced)} traced runs of {len(b.task_ids)} tasks "
        f"({nq} queries) in {args.seconds} s",
        "env " + json.dumps(env),
        f"check: {nq - len(b.wrong)}/{nq} query digests match the reference; "
        f"{failed} of {attempted} timed tasks failed, wrong or never run",
        f"end-to-end (lower quartile over {len(plain)} untraced runs; setup_s: "
        f"median of {len(b.setup_times)} set-ups; failed_frac: over all timed runs; "
        f"percentiles over {nq} queries per run, p95 has "
        f"{metrics.samples_beyond(nq, 95)} beyond it)",
    ]
    lines += [f"  {k:<34} {e2e[k]:>14.6g} {unit_of(k)}" for k in END_TO_END]
    lines.append("  set-ups (s): " + " ".join(f"{t:.4f}" for t in b.setup_times))
    lines.append("  untraced runs (run_s): "
                 + " ".join(f"{r['metrics']['run_s']:.4f}" for r in plain))
    out_metrics = {}
    if args.trace:
        layer = {k: over_runs(traced, k) for k in traced[0]["metrics"] if k not in e2e}
        layer.update(setup_timings)
        layer["trace.overhead_s"] = over_runs(traced, "run_s") - e2e["run_s"]
        lines.append(f"per layer (lower quartile over {len(traced)} traced runs)")
        lines += [f"  {k:<34} {layer[k]:>14.6g} {unit_of(k)}" for k in sorted(layer)]
        chosen, values = spec["per_layer"], layer
    else:
        chosen, values = spec["end_to_end"], e2e
    for m in chosen:
        if unit_of(m["name"]) != m["unit"]:
            raise BenchError(f"{m['name']}: unit {m['unit']!r} in BENCHMARK.json, "
                             f"{unit_of(m['name'])!r} here")
        out_metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": failed == 0 and not b.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_insitu(ROOT)
        lines, result = bench(args)
    except (BenchError, ImportError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
