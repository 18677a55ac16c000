import os
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from insitu import advisor, cli, tabular
from insitu.advisor import (
    PartitionPlan,
    load_db_side,
    qca_partition,
    raw_capacity_check,
    route_query,
    rua_partition,
    write_raw_slices,
)
from insitu.analyzer import ResourceProfile, SystemSpec
from insitu.datagen import generate_csv
from insitu.db_engine import DbEngine
from insitu.errors import (
    ConfigError,
    FormatError,
    SchemaError,
    UncoveredQueryError,
    WorkbenchError,
)
from insitu.query_model import QueryClass, classify, parse_query
from insitu.raw_engine import RawEngine
from insitu.tabular import ResultSet, cut_rows, read_csv, read_header, scan_csv
from util import CONTRACT_INPUTS, counting_opens, cut_fields, write_csv

MB = 1024 * 1024


def outcome(fn, answer):
    """`answer(fn())`, or the class of the workbench error it raises."""
    try:
        return answer(fn())
    except WorkbenchError as exc:
        return type(exc)


def qc(join_count=0, sampling=False, attrs=()):
    kind = "complex" if join_count else ("sampling" if sampling else "simple")
    return QueryClass(join_count=join_count, is_sampling=sampling,
                      attrs=frozenset(attrs), kind=kind)


def prof(task, read=0.0, mem=0.0, empty=False):
    if empty:
        return ResourceProfile(task_id=task)
    return ResourceProfile(task_id=task, sample_count=1,
                           total_read_bytes=read, peak_mem_pct=mem)


class TestQcaPartition:
    SCHEMA = [f"t.c{i}" for i in range(10)]

    def test_spec_set_arithmetic(self):
        classes = {
            "q1": qc(attrs=["t.c0", "t.c1"]),
            "q2": qc(sampling=True, attrs=["t.c2"]),
            "q3": qc(join_count=1, attrs=["t.c2", "t.c3"]),
        }
        plan = qca_partition(classes, self.SCHEMA)
        assert plan.raw_attrs == {"t.c0", "t.c1", "t.c2"}
        assert plan.db_attrs == {"t.c2", "t.c3"}
        assert plan.replicated_attrs == {"t.c2"}
        m = plan.metrics
        assert (m.db_pct, m.raw_only_pct, m.repl_pct) == (20.0, 20.0, 10.0)
        assert plan.routing == {"q1": "raw", "q2": "raw", "q3": "db"}

    def test_no_complex_queries(self):
        plan = qca_partition({"q": qc(attrs=["t.c1"])}, self.SCHEMA)
        assert plan.db_attrs == frozenset()
        assert plan.metrics.db_pct == 0.0
        assert set(plan.routing.values()) == {"raw"}

    def test_no_simple_queries(self):
        plan = qca_partition({"q": qc(join_count=2, attrs=["t.c1"])}, self.SCHEMA)
        assert plan.raw_attrs == frozenset()
        assert set(plan.routing.values()) == {"db"}

    def test_unknown_attr_rejected(self):
        with pytest.raises(SchemaError, match="zz"):
            qca_partition({"q": qc(join_count=1, attrs=["t.zz"])}, self.SCHEMA)


class TestRuaPartition:
    SCHEMA = ["t.x", "t.y", "t.z"]

    def test_minimal_footprint_sampler_stays_raw(self):
        classes = {
            "s": qc(sampling=True, attrs=["t.x"]),
            "c": qc(join_count=1, attrs=["t.y", "t.z"]),
        }
        profiles = {"s": prof("s", read=1 * MB, mem=0.05), "c": prof("c", read=100 * MB)}
        plan = rua_partition(classes, profiles, self.SCHEMA)
        assert plan.raw_attrs == {"t.x"}
        assert plan.db_attrs == {"t.y", "t.z"}
        assert plan.replicated_attrs == frozenset()
        assert plan.routing == {"s": "raw", "c": "db"}

    def test_heavy_sampler_goes_to_db(self):
        classes = {"s": qc(sampling=True, attrs=["t.x"])}
        profiles = {"s": prof("s", read=500 * MB, mem=0.05)}
        plan = rua_partition(classes, profiles, self.SCHEMA)
        assert plan.raw_attrs == frozenset()
        assert plan.routing["s"] == "db"

    def test_shared_attr_is_replicated(self):
        classes = {
            "s": qc(sampling=True, attrs=["t.x", "t.y"]),
            "c": qc(join_count=1, attrs=["t.y"]),
        }
        profiles = {"s": prof("s", read=0.5 * MB, mem=0.01), "c": prof("c", read=9 * MB)}
        plan = rua_partition(classes, profiles, self.SCHEMA)
        assert plan.replicated_attrs == {"t.y"}

    def test_empty_profile_never_qualifies(self):
        classes = {"s": qc(sampling=True, attrs=["t.x"])}
        plan = rua_partition(classes, {"s": prof("s", empty=True)}, self.SCHEMA)
        assert plan.routing["s"] == "db"

    def test_missing_profile_is_config_error(self):
        with pytest.raises(ConfigError):
            rua_partition({"s": qc(sampling=True, attrs=["t.x"])}, {}, self.SCHEMA)

    def test_nonpositive_thresholds_rejected(self):
        classes = {"s": qc(sampling=True, attrs=["t.x"])}
        profiles = {"s": prof("s")}
        with pytest.raises(ConfigError):
            rua_partition(classes, profiles, self.SCHEMA, read_threshold_bytes=0)
        with pytest.raises(ConfigError):
            rua_partition(classes, profiles, self.SCHEMA, mem_threshold_pct=-1)


class TestCapacityCheck:
    def test_catalog_machine_fits(self):
        spec = SystemSpec(ram_bytes=16e9, ram_expansion_factor=2.24)
        check = raw_capacity_check(4.6e9, spec)
        assert check.fits
        assert check.required_bytes == pytest.approx(10.3e9, abs=0.1e9)

    def test_large_dataset_does_not_fit(self):
        spec = SystemSpec(ram_bytes=16e9, ram_expansion_factor=2.24)
        check = raw_capacity_check(7.1e9, spec)
        assert not check.fits
        assert check.required_bytes > 16e9 * 0.9

    def test_half_ram_boundary(self):
        spec = SystemSpec(ram_bytes=16e9, ram_expansion_factor=2.24)
        assert raw_capacity_check(0.4 * 16e9, spec).fits
        assert not raw_capacity_check(0.5 * 16e9, spec).fits


class TestRouting:
    def make_plan(self):
        classes = {
            "q1": qc(attrs=["t.a", "t.b"]),
            "q2": qc(join_count=1, attrs=["t.c", "t.d"]),
        }
        return qca_partition(classes, ["t.a", "t.b", "t.c", "t.d", "t.e"])

    def test_recorded_routing_wins(self):
        plan = self.make_plan()
        assert route_query(qc(attrs=["t.a"]), plan, query_id="q2") == "db"

    def test_new_simple_query_covered_by_raw(self):
        plan = self.make_plan()
        assert route_query(qc(attrs=["t.a"]), plan) == "raw"

    def test_new_join_query_goes_to_db(self):
        plan = self.make_plan()
        assert route_query(qc(join_count=1, attrs=["t.c"]), plan) == "db"

    def test_fallback_to_other_side(self):
        plan = self.make_plan()
        # 0-join query over a db-only attribute: raw cannot serve it.
        assert route_query(qc(attrs=["t.d"]), plan) == "db"

    def test_uncovered_query_errors(self):
        plan = self.make_plan()
        with pytest.raises(UncoveredQueryError):
            route_query(qc(attrs=["t.e"]), plan)

    @pytest.mark.parametrize("technique", ["QCA", "RUA"])
    @pytest.mark.parametrize("join_count,sampling", [(0, False), (0, True), (1, False), (1, True)])
    def test_fallback_follows_the_partition_rule(self, technique, join_count, sampling):
        # Both sides cover every attribute, so only the class rule decides.
        schema = ["t.a", "t.b"]
        cls = qc(join_count=join_count, sampling=sampling, attrs=schema)
        if technique == "QCA":
            partitioned = qca_partition({"q": cls}, schema)
        else:
            partitioned = rua_partition({"q": cls}, {"q": prof("q")}, schema)
        plan = PartitionPlan(technique, tuple(schema), frozenset(schema), frozenset(schema))
        assert route_query(cls, plan) == partitioned.routing["q"]

    def test_routing_invariant_under_renaming(self):
        schema = ["t.a", "t.b", "t.c"]
        classes = {
            "q1": qc(attrs=["t.a"]),
            "q2": qc(join_count=1, attrs=["t.b", "t.c"]),
            "q3": qc(sampling=True, attrs=["t.c"]),
        }
        plan = qca_partition(classes, schema)
        rename = {"t.a": "t.zz", "t.b": "t.qq", "t.c": "t.mm"}
        classes2 = {
            qid: QueryClass(c.join_count, c.is_sampling,
                            frozenset(rename[a] for a in c.attrs), c.kind)
            for qid, c in classes.items()
        }
        plan2 = qca_partition(classes2, [rename[a] for a in schema])
        assert plan.routing == plan2.routing
        assert plan2.raw_attrs == {rename[a] for a in plan.raw_attrs}
        m1, m2 = plan.metrics, plan2.metrics
        assert (m1.db_pct, m1.raw_only_pct, m1.repl_pct) == (
            m2.db_pct, m2.raw_only_pct, m2.repl_pct)


class TestMetricsOracle:
    def test_random_instances_match_brute_force(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(3, 20)
            schema = [f"t.c{i}" for i in range(n)]
            classes = {}
            for q in range(rng.randint(1, 8)):
                joins = rng.choice([0, 0, 0, 1, 2])
                sampling = joins == 0 and rng.random() < 0.3
                attrs = rng.sample(schema, rng.randint(1, min(4, n)))
                classes[f"q{q}"] = qc(join_count=joins, sampling=sampling, attrs=attrs)
            profiles = {
                qid: prof(qid, read=rng.choice([0.5 * MB, 50 * MB]),
                          mem=rng.choice([0.01, 5.0]))
                for qid in classes
            }
            for plan in (qca_partition(classes, schema),
                         rua_partition(classes, profiles, schema)):
                # Brute-force recomputation from the routing decision.
                raw_bf, db_bf = set(), set()
                for qid, c in classes.items():
                    (raw_bf if plan.routing[qid] == "raw" else db_bf).update(c.attrs)
                assert plan.raw_attrs == raw_bf
                assert plan.db_attrs == db_bf
                m = plan.metrics
                assert m.db_pct == len(db_bf) / n * 100.0
                assert m.raw_only_pct == len(raw_bf - db_bf) / n * 100.0
                assert m.repl_pct == len(raw_bf & db_bf) / n * 100.0
                # Inclusion-exclusion, exact in integer arithmetic.
                assert len(db_bf) + len(raw_bf - db_bf) == len(raw_bf | db_bf)
                for qid, c in classes.items():
                    side = plan.raw_attrs if plan.routing[qid] == "raw" else plan.db_attrs
                    assert c.attrs <= side


class TestMaterialize:
    def test_slice_projection(self, tmp_path):
        src = write_csv(tmp_path / "t.csv", ["a", "b", "c"],
                        [[1, 2, 3], [4, 5, 6]])
        plan = PartitionPlan(
            technique="QCA", schema=("t.a", "t.b", "t.c"),
            raw_attrs=frozenset({"t.a", "t.b"}), db_attrs=frozenset({"t.b", "t.c"}),
        )
        db = DbEngine(tmp_path / "db")
        raw_paths = write_raw_slices(plan, {"t": src}, tmp_path / "out")
        load_db_side(plan, {"t": src}, db)
        raw_text = open(raw_paths["t"]).read()
        assert raw_text == "a,b\n1,2\n4,5\n"
        store = db.stores["t"]
        assert store.attrs == ["b", "c"]
        assert store.row_count == 2

    def test_materializing_opens_each_source_once(self, tmp_path, monkeypatch):
        """A plan run cuts each source's raw slice and db-side columns from
        one pass over it; the slicer and the db-side load each read it."""
        t, u = tmp_path / "t.csv", tmp_path / "u.csv"
        generate_csv(t, rows=300, columns=6, seed=5)
        generate_csv(u, rows=50, columns=3, seed=6)
        wl = tmp_path / "wl.csv"
        wl.write_text('T_ID,Statement\nQ0,"SELECT ra FROM t WHERE ra < 100;"\n'
                      'Q1,"SELECT t.dec, u.ra FROM t JOIN u ON t.objid = u.objid;"\n')
        plan = tmp_path / "plan.json"
        assert cli.main(["advise", "qca", "--workload", str(wl), "--schema-csv", str(t),
                         str(u), "--out", str(plan)]) == 0
        opens = counting_opens(monkeypatch, [t, u])
        assert cli.main(["run", "--workload", str(wl), "--engine", f"plan:{plan}",
                         "--source", "synthetic", "--data-dir", str(tmp_path),
                         "--journal", "on", "--out", str(tmp_path / "out")]) == 0
        assert opens == {str(t): 1, str(u): 1}

    def test_materializing_holds_a_window_not_the_source(self, tmp_path):
        """The pass holds a window of its source and the columns it loads,
        never the whole file."""
        src = tmp_path / "t.csv"
        generate_csv(src, rows=20_000, columns=30, seed=8)
        size = src.stat().st_size
        assert size >= 8 << 20
        schema = tuple(f"t.{a}" for a in read_header(src))
        plan = PartitionPlan("QCA", schema, raw_attrs=frozenset(schema[:3]),
                             db_attrs=frozenset(schema[2:6]))
        tracemalloc.start()
        try:
            advisor.materialize_plan(plan, {"t": src}, tmp_path / "out",
                                     DbEngine(tmp_path / "db"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 2, (peak, size)

    def test_empty_raw_side_writes_no_slice(self, tmp_path):
        src = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2]])
        plan = PartitionPlan(
            technique="QCA", schema=("t.a", "t.b"),
            raw_attrs=frozenset(), db_attrs=frozenset({"t.a"}),
        )
        raw_paths = write_raw_slices(plan, {"t": src}, tmp_path / "out")
        assert raw_paths == {}

    def test_slice_sizes_follow_column_widths(self, tmp_path):
        rows = [[i, f"{i * 1.5:.10f}", f"{i * 2.5:.10f}"] for i in range(500)]
        src = write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
        plan = PartitionPlan(
            technique="QCA", schema=("t.a", "t.b", "t.c"),
            raw_attrs=frozenset({"t.a", "t.b"}), db_attrs=frozenset({"t.b", "t.c"}),
        )
        raw_paths = write_raw_slices(plan, {"t": src}, tmp_path / "out")
        import os

        # Oracle: field text widths plus separators, column by column.
        with open(src) as f:
            header = f.readline().strip().split(",")
            widths = {h: 0 for h in header}
            n = 0
            for line in f:
                for h, fld in zip(header, line.rstrip("\n").split(",")):
                    widths[h] += len(fld)
                n += 1
        expect_raw = len("a,b\n") + widths["a"] + widths["b"] + 2 * n
        assert os.path.getsize(raw_paths["t"]) == expect_raw

    def test_plan_json_roundtrip(self, tmp_path):
        plan = PartitionPlan(
            technique="RUA", schema=("t.a", "t.b"),
            raw_attrs=frozenset({"t.a"}), db_attrs=frozenset({"t.b"}),
            routing={"q1": "raw"},
        )
        p = tmp_path / "plan.json"
        plan.save(p)
        loaded = PartitionPlan.load(p)
        assert loaded == plan


class TestResultPreservation:
    def test_partitioned_execution_matches_original(self, tmp_path):
        rng = random.Random(23)
        for trial in range(20):
            n = rng.randint(50, 200)
            tdir = tmp_path / f"case{trial}"
            tdir.mkdir()
            rows_t = [[i, rng.uniform(0, 100), rng.uniform(0, 10), rng.uniform(0, 1)]
                      for i in range(1, n + 1)]
            rows_u = [[i, rng.uniform(0, 100)] for i in range(1, rng.randint(10, 60) + 1)]
            t_csv = write_csv(tdir / "t.csv", ["objid", "p", "q", "r"], rows_t)
            u_csv = write_csv(tdir / "u.csv", ["objid", "s"], rows_u)

            stmts = {
                "q0": f"SELECT p, q FROM t WHERE p > {rng.uniform(0, 80):.3f}",
                "q1": "SELECT objid, r FROM t WHERE r <= 0.7 LIMIT 7",
                "q2": "SELECT t.p, u.s FROM t JOIN u ON t.objid = u.objid WHERE u.s < 50",
            }
            asts = {k: parse_query(v) for k, v in stmts.items()}
            classes = {k: classify(a) for k, a in asts.items()}
            schema = [f"t.{c}" for c in ["objid", "p", "q", "r"]] + ["u.objid", "u.s"]
            plan = qca_partition(classes, schema)

            db = DbEngine(tdir / "db")
            sources = {"t": t_csv, "u": u_csv}
            raw_paths = write_raw_slices(plan, sources, tdir / "out")
            load_db_side(plan, sources, db)

            baseline = RawEngine()
            baseline.register("t", t_csv)
            baseline.register("u", u_csv)
            raw_part = RawEngine()
            for table, p in raw_paths.items():
                raw_part.register(table, p)

            for qid, ast in asts.items():
                want, _ = baseline.execute(ast)
                engine = route_query(classes[qid], plan, query_id=qid)
                if engine == "raw":
                    got, _ = raw_part.execute(ast)
                else:
                    got, _ = db.execute(ast)
                assert got.multiset() == want.multiset(), (trial, qid)


class TestSliceContract:
    @pytest.mark.parametrize("name", sorted(CONTRACT_INPUTS))
    def test_slice_scans_like_source(self, tmp_path, name):
        src = tmp_path / "t.csv"
        src.write_bytes(CONTRACT_INPUTS[name])
        plan = PartitionPlan(
            technique="QCA", schema=("t.a", "t.b"),
            raw_attrs=frozenset({"t.a", "t.b"}), db_attrs=frozenset(),
        )

        def columns(scan):
            return {n: c.tolist() for n, c in scan.columns.items()}

        want = outcome(lambda: scan_csv(src, ["a", "b"]), columns)
        got = outcome(
            lambda: scan_csv(write_raw_slices(plan, {"t": src}, tmp_path)["t"], ["a", "b"]),
            columns,
        )
        assert got == want

    @pytest.mark.parametrize("name", sorted(CONTRACT_INPUTS))
    def test_plan_sides_answer_like_raw_engine(self, tmp_path, name):
        src = tmp_path / "t.csv"
        src.write_bytes(CONTRACT_INPUTS[name])
        sources = {"t": src, "u": write_csv(tmp_path / "u.csv", ["c"], [[1], [3], [4]])}
        asts = {
            "q0": parse_query("SELECT a, b FROM t WHERE a > 0"),
            "q1": parse_query("SELECT t.b, u.c FROM t JOIN u ON t.a = u.c"),
        }
        classes = {q: classify(a) for q, a in asts.items()}
        baseline = RawEngine()
        for table, path in sources.items():
            baseline.register(table, path)
        want = {q: outcome(lambda: baseline.execute(a)[0], ResultSet.multiset)
                for q, a in asts.items()}

        def materialize():
            schema = [f"{t}.{a}" for t, p in sources.items() for a in read_header(p)]
            plan = qca_partition(classes, schema)
            assert set(plan.routing.values()) == {"raw", "db"}
            raw_part = RawEngine()
            for table, path in write_raw_slices(plan, sources, tmp_path / "out").items():
                raw_part.register(table, path)
            db = DbEngine(tmp_path / "db")
            load_db_side(plan, sources, db)
            return {"raw": raw_part, "db": db}, plan

        try:
            sides, plan = materialize()
        except WorkbenchError as exc:
            # Planning or slicing failed: a plan run stops before any query.
            got = {q: type(exc) for q in asts}
        else:
            got = {q: outcome(lambda: sides[plan.routing[q]].execute(a)[0],
                              ResultSet.multiset)
                   for q, a in asts.items()}
        assert got == want


    @staticmethod
    def header_errors(tmp_path, header: bytes) -> dict[str, str]:
        """The FormatError message of every path over a file whose header
        is `header`, reading its first column, `a`."""
        src = tmp_path / "t.csv"
        src.write_bytes(header + b"\n1,2\n")
        plan = PartitionPlan("QCA", ("t.a",), raw_attrs=frozenset({"t.a"}),
                             db_attrs=frozenset())
        paths = {
            "raw cold": lambda: RawEngine().execute(parse_query("SELECT a FROM t"),
                                                    files={"t": src}),
            "raw LIMIT": lambda: RawEngine().execute(parse_query("SELECT a FROM t LIMIT 1"),
                                                     files={"t": src}),
            "db load": lambda: DbEngine(tmp_path / "db").load_table(src, "t"),
            "raw slice": lambda: write_raw_slices(plan, {"t": src}, tmp_path / "out"),
        }
        got = {}
        for name, attempt in paths.items():
            with pytest.raises(FormatError) as exc:
                attempt()
            got[name] = str(exc.value)
        return got

    def test_repeated_header_name_is_format_error(self, tmp_path):
        # Only the first of two same-named columns could ever be read.
        got = self.header_errors(tmp_path, b"a,a")
        assert all("repeats the column name 'a'" in m for m in got.values()), got

    def test_header_not_utf8_is_format_error(self, tmp_path):
        got = self.header_errors(tmp_path, b"a,\xff")
        assert all(m.endswith("header b'a,\\xff' is not UTF-8") for m in got.values()), got


def row_writer(source, out, attrs):
    """The slicer's earlier row writer, the oracle of the block gather: one
    `bytes` per kept field, joined row by row."""
    raw, _, header, attrs, rowmap = read_csv(source, attrs)
    kept = set(attrs)
    keep = [i for i, name in enumerate(header) if name in kept]
    fields = cut_fields(raw, rowmap, keep)
    with open(out, "wb") as o:
        o.write((",".join(header[i] for i in keep) + "\n").encode("utf-8"))
        o.writelines(b",".join(row) + b"\n" for row in zip(*fields))
    return rowmap


SLICE_FIELDS = st.text(alphabet="01.-xé日\r ", max_size=6).map(lambda f: f.encode("utf-8"))


@st.composite
def slice_sources(draw):
    """A source file as bytes, inside the CSV contract or just outside it
    (a ragged row), plus the column indices a plan keeps raw."""
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(SLICE_FIELDS, min_size=ncols, max_size=ncols),
                         max_size=12))
    if rows and draw(st.booleans()):  # one row with a field more or less
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if ncols > 1 and draw(st.booleans()) else rows[i] + [b"1"]
    ends = st.sampled_from([b"\n", b"\r\n"])
    data = b",".join(b"c%d" % j for j in range(ncols))
    data += draw(st.sampled_from([b"\n", b"\r\n", b"\r\r\n"]))
    data += b"".join(b",".join(row) + draw(ends) for row in rows)
    data += b"".join(draw(st.lists(ends, max_size=2)))  # trailing blank lines
    if data.endswith(b"\n") and draw(st.booleans()):
        data = data[:-1]  # no final newline
    keep = draw(st.lists(st.integers(0, ncols - 1), min_size=1, unique=True))
    return data, sorted(keep)


def block_rows(n, ncols=4):
    """A generated-looking source of n rows."""
    header = ",".join(f"c{j}" for j in range(ncols)).encode() + b"\n"
    return header + b"".join(b"%d,%d.25,x%d,-%d\r\n" % (i, i, i % 7, i) for i in range(n))


class TestSliceGather:
    """`_write_slice` copies each block of rows out of the source with one
    index gather (`tabular.cut_rows`); its bytes equal the row writer's."""

    @staticmethod
    def slice_outcome(data, keep, writer=None):
        """The slice bytes of a plan keeping columns `keep` of a source
        holding `data`, or the class of the workbench error raised."""
        with tempfile.TemporaryDirectory() as d:
            src = Path(d) / "t.csv"
            src.write_bytes(data)
            attrs = frozenset(f"t.c{j}" for j in keep)
            plan = PartitionPlan("QCA", tuple(sorted(attrs)), raw_attrs=attrs,
                                 db_attrs=frozenset())
            with mock.patch.object(advisor, "_write_slice", writer or advisor._write_slice):
                return outcome(lambda: write_raw_slices(plan, {"t": src}, Path(d) / "out"),
                               lambda paths: Path(paths["t"]).read_bytes())

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(case=slice_sources())
    @example(case=(b"c0,c1\r\n1,x\r\n3,4\r\n", [0, 1]))  # CRLF
    @example(case=(b"c0,c1\r\r\n1,2\r\n", [0]))  # a "\r\r\n" header
    @example(case=(b"c0,c1\n1,2\n3,4", [1]))  # no final newline
    @example(case=(b"c0,c1\n1,2\n\n\r\n", [0, 1]))  # trailing blank lines
    @example(case=("c0,c1,c2\n,,\né,日本,\n".encode(), [0, 2]))  # empty, multibyte
    @example(case=(b"c0\n1\n\n2\n\n", [0]))  # 1 column, blank lines inside
    @example(case=(b"c0\r\n1\r\n\r\n2\r\n", [0]))
    @example(case=(b"c0,c1\n", [0, 1]))  # header only
    @example(case=(b"c0,c1\n" + b"x" * 300 + b",1\n2,3\n", [1]))  # uint16 ends
    @example(case=(b"c0,c1\n1," + b"y" * 70_000 + b"\r\n2,3\r\n", [0, 1]))  # uint32
    @example(case=(block_rows(tabular._BLOCK_ROWS), [0]))  # first only
    @example(case=(block_rows(tabular._BLOCK_ROWS - 1), [3]))  # last only
    @example(case=(block_rows(tabular._BLOCK_ROWS + 1), [0, 1, 2, 3]))  # all
    @example(case=(block_rows(tabular._BLOCK_ROWS + 1), [1, 3]))  # not adjacent
    @example(case=(b"c0,c1\n1,2\n3\n4,5\n", [0]))  # ragged
    def test_gather_equals_row_writer(self, case):
        data, keep = case
        assert self.slice_outcome(data, keep) == self.slice_outcome(data, keep, row_writer)

    def test_ragged_rows_stay_format_error(self, tmp_path):
        src = tmp_path / "t.csv"
        src.write_bytes(b"c0,c1\n1,2\n3\n4,5\n")
        plan = PartitionPlan("QCA", ("t.c0",), raw_attrs=frozenset({"t.c0"}),
                             db_attrs=frozenset())
        with pytest.raises(FormatError, match="data row 2 has 1 fields"):
            write_raw_slices(plan, {"t": src}, tmp_path / "out")
        assert os.listdir(tmp_path / "out" / "raw_partition") == []

    def test_one_block_per_write(self, tmp_path):
        src = tmp_path / "t.csv"
        src.write_bytes(block_rows(2 * tabular._BLOCK_ROWS + 1))
        raw, _, _, _, rowmap = read_csv(src)
        blocks = list(cut_rows(raw, rowmap, [0, 2]))
        assert [bytes(b).count(b"\n") for b in blocks] == [tabular._BLOCK_ROWS] * 2 + [1]

    def test_long_lines_make_short_blocks(self, tmp_path, monkeypatch):
        """A block starts its rows within `_BLOCK_BYTES` of its first line,
        so its temporaries stay small however long the lines are."""
        monkeypatch.setattr(tabular, "_BLOCK_BYTES", 100)
        lines = [b"%d,%d.25,x,-%d" % (i, i, i) for i in range(60)]
        lines[30] = b"1," + b"z" * 300 + b",x,-1"
        data = b"c0,c1,c2,c3\n" + b"\r\n".join(lines) + b"\r\n"
        assert self.slice_outcome(data, [1, 3]) == self.slice_outcome(data, [1, 3], row_writer)
        src = tmp_path / "t.csv"
        src.write_bytes(data)
        raw, _, _, _, rowmap = read_csv(src)
        counts = [bytes(b).count(b"\n") for b in cut_rows(raw, rowmap, [1, 3])]
        assert sum(counts) == len(lines) and max(counts) < 10
        starts = rowmap.line_starts.astype(int).tolist() + [len(raw)]
        first = 0
        for n in counts:  # every row the cap allows, and only those
            assert n == 1 or starts[first + n - 1] - starts[first] < 100
            assert starts[first + n] - starts[first] >= 100 or first + n == len(lines)
            first += n


class TestDbSideFromSource:
    """The db side loads straight from the source; the oracle is the older
    path, a full load of the raw slice of the same columns."""

    INPUTS = sorted(CONTRACT_INPUTS) + ["generated"]

    @staticmethod
    def source(tmp_path, name):
        src = tmp_path / "t.csv"
        if name == "generated":
            generate_csv(src, rows=500, columns=6, seed=13)
        else:
            src.write_bytes(CONTRACT_INPUTS[name])
        return src

    @pytest.mark.parametrize("pick", ["first", "last", "several"])
    @pytest.mark.parametrize("name", INPUTS)
    def test_matches_load_of_slice(self, tmp_path, name, pick):
        src = self.source(tmp_path, name)
        header = read_header(src) if name == "generated" else ["a", "b"]
        several = ["ra", "v03", "v05"] if name == "generated" else header
        kept = {"first": header[:1], "last": header[-1:], "several": several}[pick]
        attrs = frozenset(f"t.{a}" for a in kept)
        schema = tuple(f"t.{a}" for a in header)

        def store(db, stats):
            s = db.stores["t"]
            return {
                "attrs": s.attrs,
                "row_count": s.row_count,
                "meta": s.meta_path.read_bytes(),
                "cols": [s.col_path(a).read_bytes() for a in s.attrs],
                "input_bytes": stats.input_bytes,
            }

        def oracle():
            plan = PartitionPlan("QCA", schema, raw_attrs=attrs, db_attrs=frozenset())
            sliced = write_raw_slices(plan, {"t": src}, tmp_path / "out")["t"]
            db = DbEngine(tmp_path / "oracle")
            return store(db, db.load_table(sliced, "t"))

        def from_source():
            plan = PartitionPlan("QCA", schema, raw_attrs=frozenset(), db_attrs=attrs)
            db = DbEngine(tmp_path / "db")
            return store(db, load_db_side(plan, {"t": src}, db)["t"])

        want = outcome(oracle, lambda s: s)
        assert outcome(from_source, lambda s: s) == want
        if name in ("crlf", "generated"):
            assert isinstance(want, dict)  # not every case may be an error


class TestPlanAttributeNames:
    def test_path_as_table_name_touches_nothing(self, tmp_path):
        victim = tmp_path / "victim"
        victim.mkdir()
        (victim / "keep.txt").write_text("precious")
        src = write_csv(tmp_path / "victim.csv", ["a"], [[1]])
        attr = f"{victim}.a"
        plan = PartitionPlan("QCA", (attr,), raw_attrs=frozenset(), db_attrs=frozenset({attr}))
        db = DbEngine(tmp_path / "db")
        with pytest.raises(SchemaError, match="name a query can produce"):
            load_db_side(plan, {str(victim): src}, db)
        raw_plan = PartitionPlan("QCA", (attr,), raw_attrs=frozenset({attr}),
                                 db_attrs=frozenset())
        with pytest.raises(SchemaError, match="name a query can produce"):
            write_raw_slices(raw_plan, {str(victim): src}, tmp_path / "out")
        assert (victim / "keep.txt").read_text() == "precious"
        assert src.read_text() == "a\n1\n"
        assert not (tmp_path / "out").exists()
        assert list((tmp_path / "db").iterdir()) == []

    @pytest.mark.parametrize("bad", ["t.b\r", "t.B", "t.select", "T.a", "t.b.c", "t.1b"])
    def test_column_part_must_be_query_name(self, tmp_path, bad):
        src = tmp_path / "t.csv"
        src.write_bytes(b"a,b\r\r\n1,2\r\n")
        attrs = frozenset({"t.a", bad})
        sources = {"t": src, "T": src}
        raw_plan = PartitionPlan("QCA", tuple(attrs), raw_attrs=attrs, db_attrs=frozenset())
        with pytest.raises(SchemaError, match="name a query can produce"):
            write_raw_slices(raw_plan, sources, tmp_path / "out")
        db_plan = PartitionPlan("QCA", tuple(attrs), raw_attrs=frozenset(), db_attrs=attrs)
        with pytest.raises(SchemaError, match="name a query can produce"):
            load_db_side(db_plan, sources, DbEngine(tmp_path / "db"))
        assert not (tmp_path / "out").exists()
        assert list((tmp_path / "db").iterdir()) == []
