"""One `insitu run` in a fresh process, measured from inside that process.

Usage: python3 child.py <job.json>

The job names the checkout root, the `insitu run` arguments, a mode and the
file to write the measurements to. Modes:

* ``plain``: the timed run. The only hook is one timestamp on the first
  return of `RawEngine.execute` or `DbEngine.execute` (first answer).
* ``trace``: every layer function is wrapped in a span (see layers.py).
* ``digest``: each query's rows are digested for the correctness check.

`run_s` is the wall clock of the `insitu.cli.main` call; interpreter start
and imports come before it. Peak RSS is this process's high-water mark
(`VmHWM`, not `ru_maxrss`: after a vfork-based spawn `ru_maxrss` also holds
the parent's peak); run RSS is that minus the resident set just before the
call (interpreter, imports and hooks), the memory the run itself adds.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path


def import_insitu(root: Path):
    """Import `insitu` from the checkout's `src/`, and from nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import insitu

    if src not in Path(insitu.__file__).resolve().parents:
        raise ImportError(f"insitu was imported from {insitu.__file__}, not {src}")
    return insitu


def status_mb(field: str) -> float:
    """A memory field of this process's /proc status (VmRSS, VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no {field} in /proc/self/status")


def _after_execute(callback) -> None:
    """Call `callback(result_set)` after every `execute` of either engine."""
    from insitu.db_engine import DbEngine
    from insitu.raw_engine import RawEngine

    def hooked(orig):
        def execute(*args, **kwargs):
            ret = orig(*args, **kwargs)
            callback(ret[0])
            return ret
        return execute

    for engine in (RawEngine, DbEngine):
        engine.execute = hooked(engine.execute)


def _hook_digests(digests: dict) -> None:
    from insitu.monitor import TaskRegister
    from reference import answer

    current = [None]
    register_set = TaskRegister.set

    def set_task(self, task_id):
        current[0] = task_id
        register_set(self, task_id)

    def record(result):
        digests[current[0]] = answer(result.rows)

    TaskRegister.set = set_task
    _after_execute(record)


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    import_insitu(Path(job["root"]))
    from insitu import cli

    out: dict = {}
    main_fn = cli.main
    first: list = []
    if job["mode"] == "trace":
        import layers
        from spans import SpanRecorder

        rec = SpanRecorder()
        main_fn = layers.install(rec)
    elif job["mode"] == "digest":
        out["digests"] = {}
        _hook_digests(out["digests"])
    else:
        def first_answer(_result):
            if not first:
                first.append(time.perf_counter())

        _after_execute(first_answer)

    base_rss_mb = status_mb("VmRSS")
    t0 = time.perf_counter()
    code = main_fn(job["argv"])
    t1 = time.perf_counter()
    peak_rss_mb = status_mb("VmHWM")
    out.update(
        exit_code=code,
        run_s=t1 - t0,
        first_answer_s=(first[0] - t0) if first else None,
        peak_rss_mb=peak_rss_mb,
        run_rss_mb=peak_rss_mb - base_rss_mb,
    )
    if job["mode"] == "trace":
        out["spans"] = [dataclasses.asdict(s) for s in rec.spans]
    Path(job["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
