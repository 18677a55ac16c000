import itertools
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insitu import raw_engine, tabular
from insitu.datagen import generate_csv
from insitu.errors import (
    BudgetExceededError,
    FormatError,
    JoinGuardError,
    SchemaError,
)
from insitu.query_model import parse_query
from insitu.raw_engine import RawEngine
from insitu.tabular import scan_csv
from util import CONTRACT_INPUTS, write_csv


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


def limit_stats(path, stmt):
    _, stats = RawEngine().execute(parse_query(stmt), files={"t": path})
    return stats


class TestRowBoundaries:
    """A LIMIT scan with no predicate reads up to the end of row LIMIT."""

    def test_limit_bytes_match_byte_scan_oracle(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "bb"], [[1, 22], [333, 4], [5, 6]])
        ends = oracle_offsets(p)[1:] + [os.path.getsize(p)]
        for k, end in enumerate(ends, start=1):
            stats = limit_stats(p, f"SELECT a FROM t LIMIT {k}")
            assert (stats.rows_scanned, stats.bytes_read_from_disk) == (k, end)
        assert scan_csv(p).row_count == 3

    def test_limit_bytes_on_generated_file(self, small_table):
        offsets = oracle_offsets(small_table)
        for k in (1, 7, 3000, 9999):  # the larger ones span several chunks
            stats = limit_stats(small_table, f"SELECT objid FROM t LIMIT {k}")
            assert stats.bytes_read_from_disk == offsets[k]

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b"], [])
        assert scan_csv(p).row_count == 0
        result, stats = RawEngine().execute(
            parse_query("SELECT a FROM t LIMIT 3"), files={"t": p}
        )
        assert result.rows == [] and stats.rows_scanned == 0
        assert stats.bytes_read_from_disk == os.path.getsize(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n1,2,3\n")
        with pytest.raises(FormatError, match="row 2"):
            limit_stats(p, "SELECT a FROM t LIMIT 5")

    def test_limit_bytes_strictly_increasing(self, small_table):
        seen = [
            limit_stats(small_table, f"SELECT objid FROM t LIMIT {k}").bytes_read_from_disk
            for k in range(1, 60)
        ]
        assert all(b > a for a, b in zip(seen, seen[1:]))

    @pytest.mark.parametrize("bad", [b"00004095,1.2345,7\n", b"0004095,1.2345\n\n"],
                             ids=["ragged-row-across", "blank-line-ending-chunk"])
    def test_bad_line_on_chunk_boundary(self, tmp_path, bad):
        # 16-byte rows after an 8-byte header: the first 64 KiB chunk ends
        # exactly where row 4096 starts.
        rows = [b"%08d,1.2345\n" % i for i in range(6000)]
        p = tmp_path / "t.csv"
        p.write_bytes(b"objid,x\n" + b"".join(rows[:4095]) + bad + b"".join(rows[4096:]))
        with pytest.raises(FormatError) as expected:
            scan_csv(p)
        assert "data row 409" in str(expected.value)
        with pytest.raises(FormatError) as limited:
            limit_stats(p, "SELECT x FROM t WHERE x < 0 LIMIT 5")
        assert str(limited.value) == str(expected.value)

    @pytest.mark.parametrize("chunk", [4, 16])
    @pytest.mark.parametrize("name", ["ragged", "blank-inside"])
    def test_bad_row_numbered_across_rounds(self, tmp_path, name, chunk):
        # Eight good rows ahead of the case put its bad row past the first
        # chunk, so the row number must count the rows of earlier rounds.
        p = tmp_path / "t.csv"
        p.write_bytes(CONTRACT_INPUTS[name].replace(b"\n", b"\n" + b"0,0\n" * 8, 1))
        with pytest.raises(FormatError) as expected:
            scan_csv(p)
        assert "data row 10 " in str(expected.value)
        with mock.patch.object(raw_engine, "_SCAN_CHUNK", chunk):
            with pytest.raises(FormatError) as limited:
                limit_stats(p, "SELECT a FROM t WHERE a < 0 LIMIT 1")
        assert str(limited.value) == str(expected.value)


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

    def test_text_value_past_first_chunk_types_the_prefix(self, tmp_path):
        # The first text value lies past the first 64 KiB chunk but before
        # the row completing the LIMIT, so the column is text, as on a full scan.
        p = write_csv(tmp_path / "t.csv", ["objid", "v"],
                      [[i, "x" if i == 8000 else i] for i in range(30_000)])
        assert os.path.getsize(p) > 2 * (1 << 16)
        engine = RawEngine()
        engine.register("t", p)
        full, _ = engine.execute(parse_query("SELECT v FROM t"))
        result, stats = RawEngine().execute(
            parse_query("SELECT v FROM t LIMIT 9000"), files={"t": p}
        )
        assert stats.early_stop
        assert result.rows == full.rows[:9000]
        assert result.rows[8000] == ("x",) and result.rows[0] == ("0",)

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


NUMBERS = st.integers(-50, 50).map(str) | st.floats(-50, 50).map("{:.2f}".format)
# Field values also take forms outside the array cut's plain decimals, so
# that a LIMIT prefix meets both its kernel and its rule; predicate
# literals stay NUMBERS, since "+3" is no literal of the query language.
FIELD_NUMBERS = NUMBERS | st.floats(-50, 50).map(repr) | st.sampled_from(
    ["1e1", "-0.0", ".5", "5.", "+3", "0012.50", "12.345678901234567"])
WORDS = st.text(alphabet="abcxyz", min_size=1, max_size=3)  # never parse as numbers


@st.composite
def limit_cases(draw):
    """A small type-consistent CSV, a single-table SELECT and a LIMIT."""
    numeric = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    names = [f"c{j}" for j in range(len(numeric))]
    rows = draw(st.lists(st.tuples(*(FIELD_NUMBERS if n else WORDS for n in numeric)),
                         max_size=12))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(",".join(r) for r in [names, *rows]) + draw(st.sampled_from([eol, ""]))
    stmt = "SELECT " + ", ".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)))
    preds = []
    for j in draw(st.lists(st.integers(0, len(names) - 1), max_size=2)):
        literal = draw(NUMBERS) if numeric[j] else "'" + draw(WORDS) + "'"
        preds.append(f"{names[j]} {draw(st.sampled_from(['<', '>', '<=', '>=', '=']))} {literal}")
    stmt += " FROM t" + (" WHERE " + " AND ".join(preds) if preds else "")
    return text.encode(), stmt, draw(st.integers(1, 15)), draw(st.sampled_from([4, 16, 1 << 16]))


class TestLimitProperty:
    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(limit_cases())
    def test_limit_answer_is_prefix_of_full_answer(self, case):
        data, stmt, limit, chunk = case
        limited = parse_query(f"{stmt} LIMIT {limit}")
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            with open(path, "wb") as f:
                f.write(data)
            engine = RawEngine()
            engine.register("t", path)
            full, _ = engine.execute(parse_query(stmt))
            hot, hot_stats = engine.execute(limited)
            # Small first chunks make every file span several chunks.
            with mock.patch.object(raw_engine, "_SCAN_CHUNK", chunk):
                cold, _ = RawEngine().execute(limited, files={"t": path})
        assert hot_stats.bytes_read_from_disk == 0
        assert cold.rows == full.rows[:limit] == hot.rows


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

    def test_text_column_is_charged_its_codes_and_words(self, tmp_path):
        """A coded text column is charged 4 bytes a row plus its distinct
        words, not each row's text: beside a numeric column it fits a budget
        that a per-row charge of the text would overflow, and stays cached."""
        p = write_csv(tmp_path / "t.csv", ["s", "x"], [["ab"[i % 2], i] for i in range(1000)])
        engine = RawEngine(cache_budget_bytes=12_100)  # codes 4,000 B, words 18 B, x 8,000 B
        engine.register("t", p)
        for q in ("SELECT s FROM t", "SELECT x FROM t"):
            engine.execute(parse_query(q))
        _, stats = engine.execute(parse_query("SELECT s FROM t"))
        assert stats.cache_hit_columns == 1 and stats.bytes_read_from_disk == 0

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


class TestPositionalMap:
    def test_limit_splits_each_byte_once(self, small_table, monkeypatch):
        """Each round of a LIMIT scan splits only the lines its chunk
        completed: the windows split follow on from one another and cover
        the complete lines of the prefix read, each byte once."""
        windows, rounds = [], []
        window, rowmap = tabular.LineSplit._window, tabular.LineSplit.rowmap
        monkeypatch.setattr(tabular.LineSplit, "_window", lambda self, arr, lo, hi: (
            windows.append((lo, hi)) or window(self, arr, lo, hi)))
        monkeypatch.setattr(tabular.LineSplit, "rowmap",
                            lambda self: rounds.append(1) or rowmap(self))
        monkeypatch.setattr(raw_engine, "_SCAN_CHUNK", 16)
        _, stats = RawEngine().execute(
            parse_query("SELECT objid FROM t WHERE ra < 300 LIMIT 40"), files={"t": small_table}
        )
        data = small_table.read_bytes()
        header = data.find(b"\n") + 1
        prefix = data[: header + 16 * (2 ** len(rounds) - 1)]
        assert stats.early_stop and len(rounds) > 3
        assert windows[0][0] == header
        assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
        assert sum(hi - lo for lo, hi in windows) == prefix.rfind(b"\n") + 1 - header

    """Misses on a file tokenized once are cut from its positional map."""

    @pytest.fixture
    def six_columns(self, tmp_path):
        rows = [[i, f"s{i % 7}", i * 0.5, (i * 37) % 200, -i, i % 3] for i in range(200)]
        return write_csv(tmp_path / "t.csv", ["objid", "s", "a", "b", "c", "d"], rows)

    def test_remisses_match_a_fresh_engine(self, six_columns):
        # Two text columns fit (200 x 10 B each), so every pair of the
        # sequence fits pinned and each query evicts the previous pair.
        engine = RawEngine(cache_budget_bytes=4000)
        engine.register("t", six_columns)
        size = os.path.getsize(six_columns)
        sequence = [
            ("SELECT objid, a FROM t WHERE a < 40", 1),
            ("SELECT s FROM t WHERE b >= 100", 0),
            ("SELECT c, d FROM t WHERE d = 1", 0),
            ("SELECT objid, a FROM t WHERE a < 40", 0),
            ("SELECT count(objid) FROM t WHERE s = 's3'", 0),
            ("SELECT b FROM t WHERE b < 50 LIMIT 4", 0),
            ("SELECT count(objid) FROM t", 0),
            ("SELECT s FROM t WHERE c > -20", 0),
        ]
        for stmt, structure_scans in sequence:
            q = parse_query(stmt)
            result, stats = engine.execute(q)
            fresh, _ = RawEngine().execute(q, files={"t": six_columns})
            assert result.rows == fresh.rows, stmt
            assert stats.structure_scans == structure_scans, stmt
            # A miss reads the whole file, map or not; LIMIT reads a prefix.
            assert stats.bytes_read_from_disk in (0, size) or stats.early_stop, stmt
            assert stats.rowmap_bytes == 200 * (2 + 6), stmt  # uint16 starts, uint8 ends
        assert engine.cache.total_bytes <= 4000

    def test_cold_miss_builds_the_map_and_remiss_uses_it(self, six_columns):
        engine = RawEngine(cache_budget_bytes=1600)  # one numeric column
        engine.register("t", six_columns)
        q = parse_query("SELECT a FROM t WHERE a > 90")
        cold, cold_stats = engine.execute(q)
        engine.execute(parse_query("SELECT c FROM t"))  # evicts a
        again, again_stats = engine.execute(q)
        assert (cold_stats.structure_scans, again_stats.structure_scans) == (1, 0)
        assert again_stats.cache_hit_columns == 0
        assert again.rows == cold.rows
        assert again_stats.bytes_read_from_disk == cold_stats.bytes_read_from_disk

    def test_limit_stream_builds_no_map(self, six_columns):
        engine = RawEngine()
        engine.register("t", six_columns)
        _, stats = engine.execute(parse_query("SELECT a FROM t LIMIT 3"))
        assert (stats.structure_scans, stats.rowmap_bytes) == (0, 0)
        assert stats.early_stop

    def test_truncate_drops_the_map(self, six_columns):
        engine = RawEngine()
        engine.register("t", six_columns)
        q = parse_query("SELECT count(a) FROM t")
        assert engine.execute(q)[1].structure_scans == 1
        engine.truncate_table("t")
        assert engine.execute(q)[1].structure_scans == 1
        engine.clear_cache()
        assert engine.execute(q)[1].structure_scans == 1
        assert engine.execute(q)[1].structure_scans == 0


class TestFreshness:
    """A data file that changed after the engine saw it is read anew."""

    QUERIES = ["SELECT t.v FROM t", "SELECT t.objid, t.v FROM t", "SELECT count(t.v) FROM t"]

    def answers(self, engine, path):
        out = []
        for stmt in self.QUERIES:
            q = parse_query(stmt)
            assert engine.execute(q)[0].rows == RawEngine().execute(q, files={"t": path})[0].rows
            out.append(engine.execute(q)[0].rows)
        return out

    def test_rewritten_file_is_read_again(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("objid,v\n1,10\n2,20\n")
        engine = RawEngine()
        engine.register("t", p)
        assert engine.execute(parse_query("SELECT t.v FROM t"))[0].rows == [(10.0,), (20.0,)]
        p.write_text("objid,v\n1,10\n2,20\n3,30\n")
        assert self.answers(engine, p)[1] == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]

    def test_same_size_rewrite_is_read_again(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("objid,v\n1,10\n2,20\n")
        engine = RawEngine()
        engine.register("t", p)
        assert self.answers(engine, p)[1] == [(1.0, 10.0), (2.0, 20.0)]
        before = os.stat(p)
        p.write_text("objid,v\n100,2\n3,4\n")  # same size, other field offsets
        # A later write, whatever the file system's timestamp granularity.
        os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000_000))
        assert os.path.getsize(p) == before.st_size
        assert self.answers(engine, p)[1] == [(100.0, 2.0), (3.0, 4.0)]

    def test_deleted_file_is_schema_error(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["objid", "v"], [[1, 10]])
        engine = RawEngine()
        engine.register("t", p)
        engine.execute(parse_query("SELECT t.v FROM t"))
        os.remove(p)
        with pytest.raises(SchemaError, match="does not exist"):
            engine.execute(parse_query("SELECT t.v FROM t"))


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
