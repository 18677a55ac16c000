import itertools
import os

import pytest

from insitu.datagen import generate_csv
from insitu.errors import (
    BudgetExceededError,
    FormatError,
    JoinGuardError,
    SchemaError,
)
from insitu.query_model import parse_query
from insitu.raw_engine import RawEngine, build_positional_map
from util import write_csv


@pytest.fixture
def small_table(tmp_path):
    path = tmp_path / "t.csv"
    generate_csv(path, rows=10_000, columns=4, seed=11)
    return path


def oracle_offsets(path):
    """Independent byte-scan: cumulative encoded line lengths."""
    offsets = []
    pos = 0
    with open(path, "rb") as f:
        for i, line in enumerate(f):
            if i > 0 and line.strip():
                offsets.append(pos)
            pos += len(line)
    return offsets


def oracle_rows(path):
    """Independent reader applying the float-or-text column rule."""
    import csv

    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        raw_rows = list(reader)
    cols = list(zip(*raw_rows)) if raw_rows else [() for _ in header]
    typed = []
    for col in cols:
        try:
            typed.append([float(v) for v in col])
        except ValueError:
            typed.append(list(col))
    return header, [tuple(t[i] for t in typed) for i in range(len(raw_rows))]


class TestPositionalMap:
    def test_offsets_match_byte_scan_oracle(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "bb"], [[1, 22], [333, 4], [5, 6]])
        pmap = build_positional_map(p)
        assert list(pmap.row_offsets) == oracle_offsets(p)
        assert pmap.row_count == 3

    def test_offsets_on_generated_file(self, small_table):
        pmap = build_positional_map(small_table)
        assert list(pmap.row_offsets) == oracle_offsets(small_table)

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b"], [])
        pmap = build_positional_map(p)
        assert pmap.row_offsets == () and pmap.row_count == 0

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n1,2,3\n")
        with pytest.raises(FormatError, match="row 2"):
            build_positional_map(p)

    def test_strictly_increasing(self, small_table):
        offs = build_positional_map(small_table).row_offsets
        assert all(b > a for a, b in zip(offs, offs[1:]))


class TestEarlyTermination:
    def test_limit_stops_at_completing_row(self, small_table):
        engine = RawEngine()
        engine.register("t", small_table)
        ast = parse_query("SELECT objid, ra FROM t WHERE ra < 300 LIMIT 10")

        # Oracle: full scan recording the byte offset where match 10 lands.
        header, rows = oracle_rows(small_table)
        offsets = oracle_offsets(small_table)
        ra = header.index("ra")
        matches = [i for i, r in enumerate(rows) if r[ra] < 300]
        stop_row = matches[9]
        end_of_stop_row = (
            offsets[stop_row + 1] if stop_row + 1 < len(offsets) else None
        )

        result, stats = engine.execute(ast)
        assert len(result) == 10
        assert stats.early_stop
        assert stats.rows_scanned == stop_row + 1
        assert stats.bytes_read_from_disk <= end_of_stop_row
        expected = [(r[0], r[ra]) for r in rows[: stop_row + 1] if r[ra] < 300]
        assert result.rows == expected

    def test_bytes_monotone_in_limit(self, small_table):
        seen = []
        for limit in (1, 5, 50, 500):
            engine = RawEngine()
            engine.register("t", small_table)
            _, stats = engine.execute(
                parse_query(f"SELECT objid FROM t WHERE ra < 300 LIMIT {limit}")
            )
            seen.append(stats.bytes_read_from_disk)
        assert seen == sorted(seen)

    def test_limit_larger_than_matches_scans_all(self, small_table):
        engine = RawEngine()
        engine.register("t", small_table)
        result, stats = engine.execute(
            parse_query("SELECT objid FROM t WHERE ra < 0 LIMIT 5")
        )
        assert result.rows == []
        assert not stats.early_stop
        assert stats.bytes_read_from_disk == os.path.getsize(small_table)

    def test_hot_limit_query_reads_nothing(self, small_table):
        engine = RawEngine()
        engine.register("t", small_table)
        warm = parse_query("SELECT objid, ra FROM t WHERE ra < 300")
        engine.execute(warm)
        q = parse_query("SELECT objid, ra FROM t WHERE ra < 300 LIMIT 10")
        result, stats = engine.execute(q)
        assert stats.bytes_read_from_disk == 0
        assert stats.cache_hit_columns == 2
        assert stats.early_stop
        assert len(result) == 10


class TestScansAndCache:
    def test_count_all_rows(self, small_table):
        engine = RawEngine()
        engine.register("t", small_table)
        result, stats = engine.execute(parse_query("SELECT count(objid) FROM t"))
        assert result.rows == [(10_000,)]
        assert not stats.early_stop

    def test_count_without_where_scans_structure_only(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["objid", "s"], [[1, "a"], [2, "b"], [3, "c"]])
        engine = RawEngine()
        engine.register("t", p)
        q = parse_query("SELECT COUNT(t.s) FROM t")
        result, cold = engine.execute(q)
        assert result.rows == [(3,)]
        assert cold.bytes_read_from_disk == os.path.getsize(p)
        assert len(engine.cache) == 0  # no column was parsed
        result, hot = engine.execute(q)
        assert result.rows == [(3,)]
        assert hot.bytes_read_from_disk == 0

    def test_hot_rerun_identical_and_free(self, small_table):
        engine = RawEngine()
        engine.register("t", small_table)
        q = parse_query("SELECT objid, dec FROM t WHERE dec > 0")
        cold_result, cold_stats = engine.execute(q)
        hot_result, hot_stats = engine.execute(q)
        assert hot_result.rows == cold_result.rows
        assert cold_stats.bytes_read_from_disk == os.path.getsize(small_table)
        assert hot_stats.bytes_read_from_disk == 0
        assert hot_stats.cache_hit_columns >= 1

    def test_clear_cache_makes_next_run_cold(self, small_table):
        engine = RawEngine()
        engine.register("t", small_table)
        q = parse_query("SELECT objid FROM t")
        _, cold = engine.execute(q)
        engine.clear_cache()
        _, again = engine.execute(q)
        assert again.bytes_read_from_disk == cold.bytes_read_from_disk > 0

    def test_clear_cache_on_empty_is_noop(self):
        engine = RawEngine()
        engine.clear_cache()
        assert len(engine.cache) == 0

    def test_determinism_of_cold_runs(self, small_table):
        q = parse_query("SELECT objid, ra FROM t WHERE ra >= 100 LIMIT 77")
        outcomes = []
        for _ in range(3):
            engine = RawEngine()
            engine.register("t", small_table)
            result, stats = engine.execute(q)
            outcomes.append(
                (
                    result.rows,
                    stats.rows_scanned,
                    stats.bytes_read_from_disk,
                    stats.early_stop,
                )
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_results_match_brute_force(self, small_table):
        engine = RawEngine()
        engine.register("t", small_table)
        header, rows = oracle_rows(small_table)
        dec = header.index("dec")
        v03 = header.index("v03")
        q = parse_query("SELECT objid, v03 FROM t WHERE dec > 10 AND v03 <= 800")
        result, _ = engine.execute(q)
        expected = [(r[0], r[v03]) for r in rows if r[dec] > 10 and r[v03] <= 800]
        assert sorted(result.rows) == sorted(expected)

    def test_budget_error_names_sizes(self, small_table):
        engine = RawEngine(cache_budget_bytes=10_000)  # 10k rows x 8B won't fit
        engine.register("t", small_table)
        with pytest.raises(BudgetExceededError) as exc:
            engine.execute(parse_query("SELECT objid, ra FROM t"))
        assert exc.value.required_bytes > exc.value.available_bytes

    def test_missing_attribute(self, small_table):
        engine = RawEngine()
        engine.register("t", small_table)
        with pytest.raises(SchemaError, match="nope"):
            engine.execute(parse_query("SELECT nope FROM t"))

    def test_unregistered_table(self):
        engine = RawEngine()
        with pytest.raises(SchemaError, match="u"):
            engine.execute(parse_query("SELECT a FROM u"))

    def test_missing_file(self, tmp_path):
        engine = RawEngine()
        engine.register("t", tmp_path / "gone.csv")
        with pytest.raises(SchemaError, match="does not exist"):
            engine.execute(parse_query("SELECT a FROM t"))

    def test_engine_never_writes(self, small_table, tmp_path):
        before = set(os.listdir(tmp_path))
        engine = RawEngine()
        engine.register("t", small_table)
        engine.execute(parse_query("SELECT objid FROM t WHERE ra > 50"))
        engine.execute(parse_query("SELECT ra FROM t LIMIT 3"))
        assert engine.total_bytes_written == 0
        assert set(os.listdir(tmp_path)) == before


class TestJoins:
    @pytest.fixture
    def join_files(self, tmp_path):
        a = write_csv(
            tmp_path / "a.csv",
            ["objid", "x"],
            [[1, 10.0], [2, 20.0], [2, 21.0], [3, 30.0]],
        )
        b = write_csv(
            tmp_path / "b.csv",
            ["objid", "y"],
            [[2, 200.0], [3, 300.0], [3, 301.0], [4, 400.0]],
        )
        return {"a": a, "b": b}

    def test_nested_loop_matches_itertools_oracle(self, join_files):
        engine = RawEngine()
        result, stats = engine.execute(
            parse_query("SELECT a.x, b.y FROM a JOIN b ON a.objid = b.objid"),
            files=join_files,
        )
        header_a, rows_a = oracle_rows(join_files["a"])
        header_b, rows_b = oracle_rows(join_files["b"])
        expected = [
            (ra[1], rb[1])
            for ra, rb in itertools.product(rows_a, rows_b)
            if ra[0] == rb[0]
        ]
        assert sorted(result.rows) == sorted(expected)
        assert stats.rows_scanned == 8

    def test_join_predicate_applies(self, join_files):
        engine = RawEngine()
        result, _ = engine.execute(
            parse_query(
                "SELECT a.x, b.y FROM a JOIN b ON a.objid = b.objid WHERE b.y >= 300"
            ),
            files=join_files,
        )
        assert sorted(result.rows) == [(30.0, 300.0), (30.0, 301.0)]

    def test_join_count(self, join_files):
        engine = RawEngine()
        result, _ = engine.execute(
            parse_query("SELECT count(a.x) FROM a JOIN b ON a.objid = b.objid"),
            files=join_files,
        )
        assert result.rows == [(4,)]

    def test_degenerate_condition_on_unreferenced_table(self, join_files):
        # No attribute of b is referenced, so b is only scanned for its rows.
        engine = RawEngine()
        result, _ = engine.execute(
            parse_query("SELECT count(a.x) FROM a JOIN b ON a.objid = a.objid"),
            files=join_files,
        )
        assert result.rows == [(16,)]

    def test_join_limit_truncates_in_order(self, join_files):
        engine = RawEngine()
        result, stats = engine.execute(
            parse_query("SELECT a.x, b.y FROM a JOIN b ON a.objid = b.objid LIMIT 2"),
            files=join_files,
        )
        assert result.rows == [(20.0, 200.0), (21.0, 200.0)]
        assert stats.early_stop

    def test_join_guard_trips(self, join_files):
        engine = RawEngine(join_guard_pairs=10)
        with pytest.raises(JoinGuardError) as exc:
            engine.execute(
                parse_query("SELECT a.x FROM a JOIN b ON a.objid = b.objid"),
                files=join_files,
            )
        assert exc.value.estimated_pairs > exc.value.guard

    def test_tight_budget_join_errors_instead_of_thrashing(self, tmp_path):
        a = write_csv(tmp_path / "wa.csv", ["objid", "x"],
                      [[i, i * 1.5] for i in range(200)])
        b = write_csv(tmp_path / "wb.csv", ["objid", "y"],
                      [[i, i * 2.5] for i in range(200)])
        # Budget fits one table's columns but not both working sets.
        engine = RawEngine(cache_budget_bytes=5000)
        with pytest.raises(BudgetExceededError):
            engine.execute(
                parse_query("SELECT a.x, b.y FROM a JOIN b ON a.objid = b.objid"),
                files={"a": a, "b": b},
            )

    def test_two_stage_join(self, tmp_path, join_files):
        c = write_csv(tmp_path / "c.csv", ["objid", "z"], [[3, 3000.0], [9, 9000.0]])
        files = dict(join_files, c=c)
        engine = RawEngine()
        result, _ = engine.execute(
            parse_query(
                "SELECT a.x, b.y, c.z FROM a JOIN b ON a.objid = b.objid "
                "JOIN c ON b.objid = c.objid"
            ),
            files=files,
        )
        assert sorted(result.rows) == [(30.0, 300.0, 3000.0), (30.0, 301.0, 3000.0)]
