import itertools
import random

import pytest

from insitu.datagen import generate_csv
from insitu.db_engine import DbEngine
from insitu.errors import FormatError, LoadError, NotLoadedError, SchemaError
from insitu.query_model import parse_query
from insitu.raw_engine import RawEngine
from util import TableInfo, random_select, write_csv


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

    def test_text_from_prefix_is_fine(self, engine, tmp_path):
        p = write_csv(tmp_path / "s.csv", ["a", "name"], [[1, "x"], [2, "77"]])
        stats = engine.load_table(p, "s")
        assert stats.rows_loaded == 2
        result, _ = engine.execute(parse_query("SELECT name FROM s WHERE a = 2"))
        assert result.rows == [("77",)]


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
        write_csv(tmp_path / "a.csv", ["objid", "x", "k"],
                  [[1, 10.0, 1], [2, 20.0, 5], [2, 21.0, 2]])
        write_csv(tmp_path / "b.csv", ["objid", "y"], [[2, 200.0], [2, 201.0], [3, 300.0]])
        engine.load_table(tmp_path / "a.csv", "a")
        engine.load_table(tmp_path / "b.csv", "b")
        raw = RawEngine()
        raw.register("a", tmp_path / "a.csv")
        raw.register("b", tmp_path / "b.csv")
        rows_a = [(1, 10.0, 1), (2, 20.0, 5), (2, 21.0, 2)]
        rows_b = [(2, 200.0), (2, 201.0), (3, 300.0)]
        conditions = {
            "a.objid = b.objid": lambda ra, rb: ra[0] == rb[0],
            "b.objid = a.objid": lambda ra, rb: ra[0] == rb[0],
            # Degenerate: references only the table already joined.
            "a.objid = a.k": lambda ra, rb: ra[0] == ra[2],
        }
        for on, cond in conditions.items():
            expected = [
                (ra[1], rb[1])
                for ra, rb in itertools.product(rows_a, rows_b)
                if cond(ra, rb)
            ]
            assert expected, on
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

        col = tmp_path / "db" / "e" / "name.col"
        col.write_bytes(col.read_bytes().replace(b"txt 1\n", b"txt 2\n", 1))
        with pytest.raises(LoadError, match="2 values"):
            DbEngine(tmp_path / "db").execute(parse_query(q.format("e")))


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

    def test_blank_line_inside_data_rejected_on_every_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"objid,x\n1,1.5\n\n2,2.5\n")
        error = "data row 2 has 1 fields, expected 2"
        for stmt in ("SELECT t.x FROM t LIMIT 5", "SELECT t.x FROM t"):
            with pytest.raises(FormatError, match=error):
                RawEngine().execute(parse_query(stmt), files={"t": path})
        with pytest.raises(FormatError, match=error):
            DbEngine(tmp_path / "db").load_table(path, "t")


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
