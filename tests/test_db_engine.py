import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from insitu.datagen import generate_csv
from insitu.db_engine import DbEngine, _hash_match, _read_column, _write_column
from insitu.errors import FormatError, LoadError, NotLoadedError, SchemaError
from insitu.query_model import parse_query
from insitu.raw_engine import RawEngine, _nested_loop_match
from insitu.tabular import Column, read_header
from util import TableInfo, counting_opens, random_select, write_csv


@pytest.fixture
def numeric_csv(tmp_path):
    path = tmp_path / "t.csv"
    generate_csv(path, rows=10_000, columns=6, seed=5)
    return path


@pytest.fixture
def engine(tmp_path):
    return DbEngine(tmp_path / "db")


class TestLoad:
    def test_journal_tracks_input_bytes(self, engine, numeric_csv):
        stats = engine.load_table(numeric_csv, "t", journal=True)
        assert stats.rows_loaded == 10_000
        assert abs(stats.journal_bytes - stats.input_bytes) / stats.input_bytes < 0.05

    def test_journalled_copy_opens_its_source_once(self, engine, numeric_csv, monkeypatch):
        """The journal is written from the windows the columns are cut
        from; it used to be a second read of the source."""
        opens = counting_opens(monkeypatch, [numeric_csv])
        stats = engine.load_table(numeric_csv, "t", journal=True)
        assert opens == {str(numeric_csv): 1}
        body = numeric_csv.read_bytes().split(b"\n", 1)[1]
        assert engine.stores["t"].journal_path.read_bytes() == body
        assert stats.journal_bytes == len(body)

    def test_journal_off_writes_none(self, engine, numeric_csv):
        stats = engine.load_table(numeric_csv, "t", journal=False)
        assert stats.journal_bytes == 0
        assert stats.total_written == stats.binary_bytes

    def test_binary_smaller_than_wide_text(self, engine, numeric_csv):
        stats = engine.load_table(numeric_csv, "t")
        # Oracle: fixed-width encoding is 8 bytes per value plus tiny headers.
        floor = 8 * 10_000 * 6
        assert floor <= stats.binary_bytes < floor + 6 * 64
        assert stats.binary_bytes < stats.input_bytes

    def test_write_amplification_window(self, engine, numeric_csv):
        stats = engine.load_table(numeric_csv, "t", journal=True)
        ratio = stats.total_written / stats.input_bytes
        assert 1.2 <= ratio <= 1.8

    def test_reload_requires_truncate(self, engine, numeric_csv):
        engine.load_table(numeric_csv, "t")
        with pytest.raises(LoadError, match="truncate"):
            engine.load_table(numeric_csv, "t")
        engine.truncate_table("t")
        stats = engine.load_table(numeric_csv, "t")
        assert stats.rows_loaded == 10_000

    def test_type_conflict_mid_file_aborts(self, engine, tmp_path):
        rows = [[i, i * 1.5] for i in range(2000)]
        rows.append([2000, "oops"])
        p = write_csv(tmp_path / "bad.csv", ["a", "b"], rows)
        with pytest.raises(LoadError, match="type conflict"):
            engine.load_table(p, "bad")
        assert not engine.has_table("bad")
        assert not (engine.data_dir / "bad").exists()

    def test_type_conflict_names_the_first_non_number(self, engine, tmp_path):
        """The row and value named are those of the first non-number in row
        order, past the rows that type a column, not the first word."""
        rows = [[i, i % 7] for i in range(1500)]
        rows += [[1500, "oops"], [1501, "3"], [1502, "nope"], [1503, "oops"], [1504, "a"]]
        p = write_csv(tmp_path / "bad.csv", ["a", "b"], rows)
        with pytest.raises(LoadError) as exc:
            engine.load_table(p, "bad")
        assert str(exc.value) == "type conflict in column 'b': row 1501 value 'oops' is not numeric"

    def test_text_from_prefix_is_fine(self, engine, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["a", "name"], [[1, "x"], [2, "77"]])
        stats = engine.load_table(p, "s")
        assert stats.rows_loaded == 2
        result, _ = engine.execute(parse_query("SELECT name FROM s WHERE a = 2"))
        assert result.rows == [("77",)]

    def test_non_ascii_digits_read_as_in_situ(self, engine, tmp_path):
        # Python's float() reads all three as numbers, numpy's parse of the
        # field bytes (the engines' one rule) none: both engines hold text.
        values = ["\u0661\u0662", "\u0663", "\xa04"]
        p = write_csv(tmp_path / "n.csv", ["a", "v"], [[i, v] for i, v in enumerate(values)])
        engine.load_table(p, "n")
        raw = RawEngine()
        raw.register("n", p)
        for stmt in ("SELECT a, v FROM n", "SELECT a, v FROM n WHERE v < 5",
                     "SELECT v FROM n LIMIT 2"):
            ast = parse_query(stmt)
            assert engine.execute(ast)[0].multiset() == raw.execute(ast)[0].multiset(), stmt
        result, _ = engine.execute(parse_query("SELECT v FROM n"))
        assert result.rows == [(v,) for v in values]


class TestTruncate:
    def test_truncate_then_count_zero(self, engine, numeric_csv):
        engine.load_table(numeric_csv, "t")
        engine.truncate_table("t")
        result, _ = engine.execute(parse_query("SELECT count(objid) FROM t"))
        assert result.rows == [(0,)]

    def test_truncate_missing_table(self, engine):
        with pytest.raises(SchemaError):
            engine.truncate_table("ghost")

    def test_truncate_returns_duration(self, engine, numeric_csv):
        engine.load_table(numeric_csv, "t")
        assert engine.truncate_table("t") >= 0.0


class TestExecute:
    def test_unloaded_table(self, engine):
        with pytest.raises(NotLoadedError):
            engine.execute(parse_query("SELECT a FROM nothere"))

    def test_minmax_pruning_skips_scan(self, engine, numeric_csv):
        engine.load_table(numeric_csv, "t")
        result, stats = engine.execute(parse_query("SELECT objid FROM t WHERE ra > 999"))
        assert result.rows == []
        assert stats.rows_scanned == 0
        assert stats.bytes_read_from_disk == 0

    def test_hot_queries_read_nothing(self, engine, numeric_csv):
        engine.load_table(numeric_csv, "t")
        q = parse_query("SELECT objid, dec FROM t WHERE dec > 0")
        _, cold = engine.execute(q)
        _, hot = engine.execute(q)
        assert cold.bytes_read_from_disk > 0
        assert hot.bytes_read_from_disk == 0
        assert hot.cache_hit_columns == 2

    def test_missing_attribute(self, engine, numeric_csv):
        engine.load_table(numeric_csv, "t")
        with pytest.raises(SchemaError, match="nope"):
            engine.execute(parse_query("SELECT nope FROM t"))

    def test_fresh_engine_attaches_from_disk(self, tmp_path, numeric_csv):
        first = DbEngine(tmp_path / "db")
        first.load_table(numeric_csv, "t")
        second = DbEngine(tmp_path / "db")
        result, _ = second.execute(parse_query("SELECT count(objid) FROM t"))
        assert result.rows == [(10_000,)]

    def test_hash_join_matches_itertools_oracle(self, engine, tmp_path):
        write_csv(tmp_path / "a.csv", ["objid", "x", "k", "s", "t"],
                  [[1, 10.0, 1, "1", "1"], [2, 20.0, 5, "x", "y"], [2, 21.0, 2, "1", "z"]])
        write_csv(tmp_path / "b.csv", ["objid", "y"], [[2, 200.0], [2, 201.0], [3, 300.0]])
        engine.load_table(tmp_path / "a.csv", "a")
        engine.load_table(tmp_path / "b.csv", "b")
        raw = RawEngine()
        raw.register("a", tmp_path / "a.csv")
        raw.register("b", tmp_path / "b.csv")
        rows_a = [(1, 10.0, 1, "1", "1"), (2, 20.0, 5, "x", "y"), (2, 21.0, 2, "1", "z")]
        rows_b = [(2, 200.0), (2, 201.0), (3, 300.0)]
        conditions = {
            "a.objid = b.objid": lambda ra, rb: ra[0] == rb[0],
            "b.objid = a.objid": lambda ra, rb: ra[0] == rb[0],
            # Degenerate: references only the table already joined.
            "a.objid = a.k": lambda ra, rb: ra[0] == ra[2],
            # Degenerate on two text columns with different dictionaries.
            "a.s = a.t": lambda ra, rb: ra[3] == ra[4],
            # Degenerate, a number against text: matches nothing.
            "a.objid = a.s": lambda ra, rb: ra[0] == ra[3],
        }
        for on, cond in conditions.items():
            expected = [
                (ra[1], rb[1])
                for ra, rb in itertools.product(rows_a, rows_b)
                if cond(ra, rb)
            ]
            assert expected or on == "a.objid = a.s", on
            ast = parse_query(f"SELECT a.x, b.y FROM a JOIN b ON {on}")
            for eng in (engine, raw):
                result, _ = eng.execute(ast)
                assert sorted(result.rows) == sorted(expected), (on, eng)

    def test_text_columns_round_trip_from_disk(self, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["objid", "name"],
                      [[1, "x"], [2, ""], [3, "héllo wörld"], [4, ""]])
        write_csv(tmp_path / "e.csv", ["objid", "name"], [[1, ""]])
        first = DbEngine(tmp_path / "db")
        first.load_table(p, "s")
        first.load_table(tmp_path / "e.csv", "e")
        q = "SELECT objid, name FROM {}"
        second = DbEngine(tmp_path / "db")
        result, _ = second.execute(parse_query(q.format("s")))
        assert result.rows == [(1.0, "x"), (2.0, ""), (3.0, "héllo wörld"), (4.0, "")]
        result, _ = second.execute(parse_query(q.format("e")))
        assert result.rows == [(1.0, "")]

        first.truncate_table("s")
        result, _ = DbEngine(tmp_path / "db").execute(parse_query(q.format("s")))
        assert result.rows == []

        col = first.stores["e"].col_path("name")
        col.write_bytes(col.read_bytes().replace(b"txt 1 1\n", b"txt 2 1\n", 1))
        with pytest.raises(LoadError, match="2 values"):
            DbEngine(tmp_path / "db").execute(parse_query(q.format("e")))

    def test_text_store_bytes_are_codes_and_words(self, tmp_path):
        """The column files and `meta` of a table with text columns, byte
        for byte: empty values, NUL (trailing too), "\\r" inside a field and
        non-ASCII text. A text file is its header, the rows' little-endian
        int32 codes, then the sorted words joined by newlines."""
        src = tmp_path / "s.csv"
        src.write_bytes("objid,name,kind\n1,x,b\n2,,a\n3,héllo wörld,b\n4,,\n"
                        "5,a\rb,a\n6,n\0ul,b\n7,z\0,a\n".encode("utf-8"))
        engine = DbEngine(tmp_path / "db")
        engine.load_table(src, "s")
        table = tmp_path / "db" / "s"
        assert sorted(p.name for p in table.iterdir()) == ["0.col", "1.col", "2.col", "meta"]
        assert (table / "meta").read_bytes() == (
            b"7\nobjid,f64,1.0,7.0\nname,txt,,z\x00\nkind,txt,,b\n")
        assert (table / "1.col").read_bytes() == (
            b"txt 7 6\n"  # codes 4 0 2 0 1 3 5
            b"\x04\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x01\0\0\0\x03\0\0\0\x05\0\0\0"
            b"\na\rb\nh\xc3\xa9llo w\xc3\xb6rld\nn\x00ul\nx\nz\x00")
        assert (table / "2.col").read_bytes() == (
            b"txt 7 3\n"  # codes 2 1 2 0 1 2 1
            b"\x02\0\0\0\x01\0\0\0\x02\0\0\0\0\0\0\0\x01\0\0\0\x02\0\0\0\x01\0\0\0"
            b"\na\nb")
        result, _ = DbEngine(tmp_path / "db").execute(parse_query("SELECT name, kind FROM s"))
        assert result.rows == [("x", "b"), ("", "a"), ("héllo wörld", "b"), ("", ""),
                               ("a\rb", "a"), ("n\0ul", "b"), ("z\0", "a")]

    @pytest.mark.parametrize("data", [
        b"a,b\r\r\n1,2\r\n",
        b"a,b\x0c\n1,2\n",
        "a,b\u2028\n1,2\n".encode("utf-8"),
    ], ids=["cr", "form-feed", "line-separator"])
    def test_reopened_engine_reads_line_break_in_name(self, tmp_path, data):
        src = tmp_path / "t.csv"
        src.write_bytes(data)
        DbEngine(tmp_path / "db").load_table(src, "t")
        result, _ = DbEngine(tmp_path / "db").execute(parse_query("SELECT a FROM t"))
        assert result.rows == [(1.0,)]

    def test_column_files_stay_in_table_directory(self, tmp_path):
        src = write_csv(tmp_path / "t.csv", ["a", "../../escaped"], [[1, 2]])
        before = set(tmp_path.rglob("*"))
        DbEngine(tmp_path / "db" / "store").load_table(src, "t")
        table_dir = tmp_path / "db" / "store" / "t"
        written = set(tmp_path.rglob("*")) - before
        assert written == {tmp_path / "db", tmp_path / "db" / "store", table_dir,
                           *table_dir.iterdir()}
        result, _ = DbEngine(tmp_path / "db" / "store").execute(parse_query("SELECT a FROM t"))
        assert result.rows == [(1.0,)]


def dict_match(old: Column, new: Column):
    """The engine's earlier join kernel, the oracle of the array kernel: a
    dict built on the new values in row order, probed with each old value
    in order. Every probe is a fresh Python object, so a NaN, equal only to
    itself, finds nothing."""
    buckets: dict = {}
    for pos, v in enumerate(new.tolist()):
        buckets.setdefault(v, []).append(pos)
    counts = np.zeros(len(old), dtype=np.int64)
    hits: list[int] = []
    for k, v in enumerate(old.tolist()):
        hit = buckets.get(v)
        if hit:
            counts[k] = len(hit)
            hits.extend(hit)
    return counts, np.asarray(hits, dtype=np.int64)


# Few distinct values, so both sides hold duplicates and share keys.
JOIN_NUMBERS = st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, 2.5, -3.0])
JOIN_TEXTS = st.sampled_from(["", "a", "b", "\0", "a\0", "é", "日本", "\r", "x\r", "1.0"])


def columns():
    numbers = st.lists(JOIN_NUMBERS, max_size=25).map(lambda v: Column(np.array(v, np.float64)))
    texts = st.lists(JOIN_TEXTS, max_size=25).map(Column)
    return st.one_of(numbers, texts)


def join_sides():
    return st.tuples(columns(), columns())


class TestJoinKernel:
    """Both engines' join kernels against the dict kernel `_hash_match`
    replaced: the same counts and the same new positions, in the same
    order."""

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(sides=join_sides())
    @example(sides=(Column(np.array([math.nan, 0.0])), Column(np.array([-0.0, math.nan, 0.0]))))
    @example(sides=(Column(np.array([math.inf, -math.inf])), Column(np.array([-math.inf] * 2))))
    @example(sides=(Column(np.empty(0)), Column(np.array([1.0]))))
    @example(sides=(Column(np.array([1.0])), Column(np.empty(0))))
    @example(sides=(Column([]), Column([])))
    @example(sides=(Column(["1.0", "a"]), Column(np.array([1.0]))))
    @example(sides=(Column(np.array([1.0, 1.0])), Column(["1.0"])))
    @example(sides=(Column(["\0", "é", "\r", "é"]), Column(["é", "\r", "", "é", "\0"])))
    @pytest.mark.parametrize("kernel", [_hash_match, _nested_loop_match],
                             ids=["hash", "nested-loop"])
    def test_matches_the_dict_kernel(self, kernel, sides):
        old, new = sides
        counts, positions = kernel(old, new)
        want_counts, want_positions = dict_match(old, new)
        assert counts.tolist() == want_counts.tolist()
        assert positions.tolist() == want_positions.tolist()


class TestColumnFile:
    """A column file holds a column as it is held in memory: text as its
    codes and words, numbers bit for bit. A file that disagrees with its
    header is a LoadError naming it."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(col=columns())
    @example(col=Column([]))
    @example(col=Column([""]))
    @example(col=Column(["", "\0", "\r", "日本", ""]))
    @example(col=Column(np.empty(0)))
    @example(col=Column(np.array([math.nan, -0.0, 0.0, math.inf, -math.inf])))
    def test_round_trip(self, tmp_path_factory, col):
        path = tmp_path_factory.mktemp("col") / "0.col"
        written = _write_column(path, col)
        back, nbytes = _read_column(path)
        assert written == nbytes == path.stat().st_size
        assert back.type == col.type and back.values.dtype == col.values.dtype
        assert back.values.tobytes() == col.values.tobytes()
        assert back.words == col.words

    @pytest.mark.parametrize("name,old,new,message", [
        ("1.col", b"", b"", "1.col: unreadable header"),
        ("1.col", b"txt 3 2\n", b"txt 3 2", "1.col: unreadable header"),
        ("1.col", b"txt 3 2\n", b"txt 3\n", "1.col: unreadable header"),
        ("1.col", b"txt 3 2\n", b"txt -3 2\n", "1.col: unreadable header"),
        ("1.col", b"txt 3 2\n", b"f64 3 2\n", "1.col: unreadable header"),
        ("1.col", b"txt 3 2\n", b"txt 9 2\n", "1.col: header says 9 values"),
        ("0.col", b"f64 3\n", b"f64 4\n", "0.col: header says 4 values"),
        ("0.col", b"f64 3\n", b"f64 2\n", "0.col: header says 2 values"),
        ("1.col", b"txt 3 2\n", b"txt 3 3\n", "1.col: header says 3 words"),
        ("1.col", b"txt 3 2\n", b"txt 3 0\n", "1.col: header says 0 words"),
        ("1.col", b"\0a\nb", b"\0a\nb\n", "1.col: header says 2 words"),
        ("1.col", b"\0a\nb", b"\0a\xff\nb", "1.col: words are not UTF-8"),
        ("1.col", b"\n\x01\0\0\0", b"\n\x02\0\0\0", r"1.col: a code lies outside \[0, 2\)"),
        ("1.col", b"\n\x01\0\0\0", b"\n\xff\xff\xff\xff", r"1.col: a code lies outside"),
        ("meta", b"3\n", b"three\n", "meta: unreadable"),
        ("meta", b"name,txt,a,b\n", b"name,txt\n", "meta: unreadable"),
        ("meta", b"1.0,3.0", b"1.0,high", "meta: unreadable"),
        ("meta", b"3\n", b"\xff\n", "meta: unreadable"),
    ], ids=["empty", "no-newline", "no-word-count", "negative-rows", "wrong-kind", "codes-short",
            "numbers-short", "numbers-long", "more-words", "no-words", "extra-word",
            "not-utf8", "code-past-words", "negative-code", "meta-rows", "meta-short-line",
            "meta-bound", "meta-not-utf8"])
    def test_damaged_store_is_a_load_error(self, tmp_path, name, old, new, message):
        src = write_csv(tmp_path / "t.csv", ["objid", "name"], [[1, "b"], [2, "a"], [3, "b"]])
        DbEngine(tmp_path / "db").load_table(src, "t")
        path = tmp_path / "db" / "t" / name
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1) if old else b"")  # b"" empties the file
        with pytest.raises(LoadError, match=message):
            DbEngine(tmp_path / "db").execute(parse_query("SELECT objid, name FROM t"))


class TestBothEngines:
    """Input handling that must not depend on the engine or the raw path."""

    @staticmethod
    def answers(tmp_path, csv_bytes, stmt):
        """Rows of one query on raw cold, raw hot, the raw LIMIT stream and
        the db engine, in that order."""
        path = tmp_path / "t.csv"
        path.write_bytes(csv_bytes)
        ast = parse_query(stmt)
        raw = RawEngine()
        raw.register("t", path)
        cold, _ = raw.execute(ast)
        hot, _ = raw.execute(ast)
        streamed, stats = RawEngine().execute(
            parse_query(stmt + " LIMIT 1000"), files={"t": path}
        )
        assert stats.cache_hit_columns == 0 and not stats.early_stop
        db = DbEngine(tmp_path / "db")
        db.load_table(path, "t")
        loaded, _ = db.execute(ast)
        return [cold.rows, hot.rows, streamed.rows, loaded.rows]

    @pytest.mark.parametrize("which", ["raw", "db"])
    @pytest.mark.parametrize("where", ["", " WHERE t.objid > 1"])
    def test_count_argument_is_checked(self, tmp_path, which, where):
        path = write_csv(tmp_path / "t.csv", ["objid", "s"], [[1, "a"], [2, "b"], [3, "c"]])
        if which == "raw":
            engine = RawEngine()
            engine.register("t", path)
        else:
            engine = DbEngine(tmp_path / "db")
            engine.load_table(path, "t")
        with pytest.raises(SchemaError, match="bogus"):
            engine.execute(parse_query("SELECT COUNT(t.bogus) FROM t" + where))

    @pytest.mark.parametrize("stmt, expected", [
        ("SELECT t.objid, t.b FROM t WHERE t.b = 'y'", [(1.0, "y"), (3.0, "y")]),
        ("SELECT t.b, t.x FROM t", [("y", 1.5), ("n", 2.5), ("y", 3.5)]),
    ], ids=["where", "project"])
    def test_crlf_rows_agree_on_every_path(self, tmp_path, stmt, expected):
        data = b"objid,x,b\r\n1,1.5,y\r\n2,2.5,n\r\n3,3.5,y\r\n"
        assert self.answers(tmp_path, data, stmt) == [expected] * 4

    @pytest.mark.parametrize("data", [
        b"objid,x\n1,1.5\n2,2.5\n\n\n",
        b"objid,x\r\n1,1.5\r\n2,2.5\r\n\r\n",
        b"objid,x\n1,1.5\n2,2.5",
    ], ids=["lf", "crlf", "no-final-newline"])
    def test_trailing_blank_lines_accepted(self, tmp_path, data):
        rows = [(1.0, 1.5), (2.0, 2.5)]
        assert self.answers(tmp_path, data, "SELECT t.objid, t.x FROM t") == [rows] * 4

    def test_mixed_type_column_is_text_on_every_path(self, tmp_path):
        data = b"objid,v\n1,1\n2,x\n"
        stmt = "SELECT t.v FROM t WHERE t.v > 0"
        assert self.answers(tmp_path, data, stmt) == [[("1",), ("x",)]] * 4

    def test_blank_line_inside_data_rejected_on_every_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"objid,x\n1,1.5\n\n2,2.5\n")
        error = "data row 2 has 1 fields, expected 2"
        for stmt in ("SELECT t.x FROM t LIMIT 5", "SELECT t.x FROM t"):
            with pytest.raises(FormatError, match=error):
                RawEngine().execute(parse_query(stmt), files={"t": path})
        with pytest.raises(FormatError, match=error):
            DbEngine(tmp_path / "db").load_table(path, "t")

    def test_header_drops_exactly_one_cr_on_every_path(self, tmp_path):
        # The last header name is "b\r": only one "\r" goes with the newline.
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\r\r\n1,2\r\n")
        for stmt in ("SELECT b FROM t", "SELECT b FROM t LIMIT 1"):
            with pytest.raises(SchemaError, match="'b'"):
                RawEngine().execute(parse_query(stmt), files={"t": path})
        db = DbEngine(tmp_path / "db")
        db.load_table(path, "t")
        with pytest.raises(SchemaError, match="'b'"):
            db.execute(parse_query("SELECT b FROM t"))
        assert read_header(path) == ["a", "b\r"]


class TestEngineEquivalence:
    """Both engines must agree row for row on a generated corpus."""

    @pytest.fixture
    def dataset(self, tmp_path):
        main = tmp_path / "main.csv"
        d1 = tmp_path / "d1.csv"
        d2 = tmp_path / "d2.csv"
        generate_csv(main, rows=3000, columns=5, seed=1)
        generate_csv(d1, rows=400, columns=4, seed=2)
        generate_csv(d2, rows=300, columns=3, seed=3)
        return {"main": main, "d1": d1, "d2": d2}

    def test_corpus_equivalence(self, tmp_path, dataset):
        raw = RawEngine()
        db = DbEngine(tmp_path / "db")
        for name, path in dataset.items():
            raw.register(name, path)
            db.load_table(path, name)

        infos = [
            TableInfo("main", None, ["objid", "ra", "dec", "v03", "v04"],
                      {"ra": (0, 360), "dec": (-90, 90), "v03": (0, 1000)}),
            TableInfo("d1", None, ["objid", "ra", "v03"], {"ra": (0, 360)}),
            TableInfo("d2", None, ["objid", "ra"], {"ra": (0, 360)}),
        ]
        rng = random.Random(99)
        for i in range(60):
            stmt = random_select(rng, infos)
            ast = parse_query(stmt)
            r_raw, _ = raw.execute(ast)
            r_db, _ = db.execute(ast)
            assert r_raw.rows == r_db.rows, stmt
