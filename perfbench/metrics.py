"""The benchmark's own arithmetic: percentiles, failure counting, spreads."""
from __future__ import annotations

import math
import statistics

PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p % of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_percentile(n: int, ladder=PERCENTILE_LADDER, beyond: int = MIN_BEYOND):
    """Highest percentile of the ladder with at least `beyond` of n samples
    above it, or None when not even the median has."""
    ok = [p for p in ladder if samples_beyond(n, p) >= beyond]
    return max(ok) if ok else None


def count_failed(task_ids, records, expected_rows, wrong=()) -> int:
    """Tasks of the workload that failed, answered wrongly, or never ran.

    `records` are the report's task records; `insitu run` stops at the first
    failing task, so every task after it has no record and counts as failed.
    `expected_rows` maps query task IDs to their reference row counts, and
    `wrong` holds the tasks whose rows failed the digest comparison.
    """
    by_id = {r["task_id"]: r for r in records}
    failed = 0
    for tid in task_ids:
        rec = by_id.get(tid)
        if rec is None or rec["kind"] == "failed" or tid in wrong:
            failed += 1
        elif tid in expected_rows and rec["result_rows"] != expected_rows[tid]:
            failed += 1
    return failed


def lower_quartile(values) -> float:
    """First quartile (as `statistics.quantiles` gives it) of a metric over
    the runs of one invocation. Slowness of a shared host only ever adds
    time, and on a 2-core VM it reaches more than half the runs of some
    invocations; the lower quartile is the typical value of the runs it
    reached least, and it moves with a change of the program, which every
    run pays. With three runs it is the smallest."""
    return statistics.quantiles(values, n=4)[0]


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (the steadiness measure the bounds are checked against)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf
