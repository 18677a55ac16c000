"""Steadiness check: run the benchmark once per seed and report, for each
end-to-end metric, the median and the spread (quartile distance over the
median) next to the metric's bound from BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/steady.py --workload raw-explore --seeds 1-10

A metric is steady when its spread stays below a third of its bound
(`setup_s` excepted: only its median is compared between two sets of runs).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import spread

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({wall:.0f} s): " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        s = spread(vals) if len(vals) > 1 else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if s < bound / 3 else "WIDE")
        print(f"{name:<30} median {statistics.median(vals):12.6g}  spread {s:8.4f}  "
              f"bound {bound}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
