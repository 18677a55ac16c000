"""Tests of the benchmark's own arithmetic.

Run from the repository root: python3 -m pytest perfbench
"""
import sys
import threading
from pathlib import Path

from metrics import (count_failed, highest_percentile, lower_quartile, percentile,
                     samples_beyond)
from spans import Span, SpanRecorder, self_ms


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_children_only():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    leaf = rec.wrap("leaf", lambda: clock.advance(1.0))

    def middle_body():
        clock.advance(2.0)
        leaf()
        leaf()

    middle = rec.wrap("middle", middle_body)

    def outer_body():
        clock.advance(0.5)
        middle()

    rec.wrap("outer", outer_body)()
    own = self_ms(rec.spans)
    by_name = {s.name: s for s in rec.spans}
    assert own[by_name["outer"].id] == 500.0  # grandchildren are not subtracted twice
    assert own[by_name["middle"].id] == 2000.0
    assert by_name["outer"].ms == 4500.0


def test_span_on_another_thread_is_never_a_child():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    tick = rec.wrap("read_tick", lambda: clock.advance(5.0))

    def outer_body():
        clock.advance(1.0)
        sampler = threading.Thread(target=tick, name="sampler")
        sampler.start()
        sampler.join(timeout=10)
        assert not sampler.is_alive()
        clock.advance(1.0)

    rec.wrap("scan", outer_body)()
    spans = {s.name: s for s in rec.spans}
    assert spans["read_tick"].parent is None
    assert spans["read_tick"].thread == "sampler"
    # The sampler's span overlaps the scan in time but is not subtracted.
    assert self_ms(rec.spans)[spans["scan"].id] == 7000.0


def test_self_time_ignores_parent_links_across_threads():
    main = Span(1, "execute", 0.0, 10.0, "MainThread", None, "Q1")
    child = Span(2, "scan_csv", 1.0, 4.0, "MainThread", 1, "Q1")
    foreign = Span(3, "read_tick", 2.0, 9.0, "sampler", 1, "Q1")
    own = self_ms([main, child, foreign])
    assert own[1] == 7000.0
    assert own[3] == 7000.0


def test_highest_percentile_keeps_ten_samples_beyond():
    assert highest_percentile(200) == 95.0
    assert samples_beyond(200, 95.0) == 10
    assert highest_percentile(199) == 90.0
    assert highest_percentile(400) == 95.0
    assert highest_percentile(1000) == 99.0
    assert highest_percentile(20) == 50.0
    assert highest_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert percentile(values, 95) == 190
    assert percentile(values, 50) == 100
    assert percentile([3.0], 95) == 3.0


def test_failed_counts_tasks_never_run_after_a_stop():
    tasks = ["L1", "Q1", "Q2", "Q3", "Q4"]
    records = [
        {"task_id": "L1", "kind": "load", "result_rows": 100},
        {"task_id": "Q1", "kind": "query", "result_rows": 5},
        {"task_id": "Q2", "kind": "failed", "result_rows": 0},
    ]
    expected = {"Q1": 5, "Q2": 1, "Q3": 7, "Q4": 0}
    # Q2 failed, and the run stopped there: Q3 and Q4 were never attempted.
    assert count_failed(tasks, records, expected) == 3
    assert count_failed(tasks, records, {**expected, "Q1": 6}) == 4
    assert count_failed(tasks, records, expected, wrong={"Q1"}) == 4


def test_failed_is_zero_for_a_clean_run():
    tasks = ["Q1", "Q2"]
    records = [
        {"task_id": "Q1", "kind": "query", "result_rows": 2},
        {"task_id": "Q2", "kind": "query", "result_rows": 0},
    ]
    assert count_failed(tasks, records, {"Q1": 2, "Q2": 0}) == 0


def test_digest_ignores_row_order_and_object_identity():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from reference import digest_rows

    shared = "GALAXY"
    rows = [(1.0, shared), (2.0, shared)]
    rebuilt = [(2.0, "".join(["GAL", "AXY"])), (1.0, "GAL" + "AXY")]
    assert digest_rows(rows) == digest_rows(rebuilt)
    assert digest_rows(rows) != digest_rows([(1.0, shared), (2.5, shared)])
    assert digest_rows([(1,)]) != digest_rows([(1.0,)])


def test_lower_quartile_ignores_slow_runs():
    assert lower_quartile([3.0, 1.0, 2.0]) == 1.0
    fast = [1.0, 1.1, 1.2, 1.3]
    # Slowing the slower half of the runs leaves the lower quartile alone.
    assert lower_quartile(fast + [1.4, 1.5, 1.6, 1.7]) == lower_quartile(fast + [9.0] * 4)
