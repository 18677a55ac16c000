import random
import re

import pytest

from insitu.errors import DomainError, FormatError, ParseError
from insitu.query_model import (
    CopyOp,
    JoinCondition,
    Predicate,
    QueryAst,
    TruncateOp,
    classify,
    parse_query,
    parse_workload,
    render,
)

WORKLOAD = """T_ID,Statement
TRUN,"TRUNCATE TABLE PhotoPrimary;"
COPY,"COPY PhotoPrimary FROM '/data/PhotoPrimary.csv' (DELIMITER ',');"
Q0,"Select count(objid) from PhotoPrimary;"
Q1,"SELECT objID, ra ,dec FROM PhotoPrimary WHERE ra > 185 and ra < 185.1 AND dec > 56.2 and dec < 56.3 limit 100;"
"""


class TestParseWorkload:
    def test_catalog_style_file(self):
        tasks = parse_workload(WORKLOAD)
        assert [t.task_id for t in tasks] == ["TRUN", "COPY", "Q0", "Q1"]
        assert tasks[2].statement == "Select count(objid) from PhotoPrimary;"

    def test_single_line(self):
        tasks = parse_workload('T_ID,Statement\nQ0,"Select count(objid) from PhotoPrimary;"\n')
        assert tasks == [
            __import__("insitu").WorkloadTask("Q0", "Select count(objid) from PhotoPrimary;")
        ]

    def test_header_only_is_empty(self):
        assert parse_workload("T_ID,Statement\n") == []

    def test_duplicate_id_rejected(self):
        text = 'T_ID,Statement\nQ1,"SELECT a FROM t"\nQ1,"SELECT b FROM t"\n'
        with pytest.raises(FormatError, match="duplicate"):
            parse_workload(text)

    def test_unbalanced_quotes_names_line(self):
        text = 'T_ID,Statement\nQ1,"SELECT a FROM t\n'
        with pytest.raises(FormatError, match="line 2"):
            parse_workload(text)

    def test_doubled_quotes_unescape(self):
        tasks = parse_workload("T_ID,Statement\nQ1,\"SELECT a FROM t WHERE s = 'x'\"\n")
        assert tasks[0].statement == "SELECT a FROM t WHERE s = 'x'"

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_workload('Q1,"SELECT a FROM t"\n')


class TestParseQuery:
    def test_catalog_range_query(self):
        ast = parse_query(
            "SELECT objID, ra ,dec FROM PhotoPrimary WHERE ra > 185 and ra < 185.1 "
            "AND dec > 56.2 and dec < 56.3 limit 100"
        )
        assert ast.projections == (
            "photoprimary.objid",
            "photoprimary.ra",
            "photoprimary.dec",
        )
        assert len(ast.predicates) == 4
        assert ast.limit == 100
        assert ast.joins == ()
        assert ast.predicates[0] == Predicate("photoprimary.ra", ">", 185.0)

    def test_minimal_query(self):
        ast = parse_query("SELECT a FROM t")
        assert ast == QueryAst(("t.a",), False, ("t",), (), (), None)

    def test_two_joins(self):
        ast = parse_query("SELECT t.a FROM t JOIN u ON t.k=u.k JOIN v ON u.m=v.m")
        assert len(ast.joins) == 2
        assert ast.joins[0] == JoinCondition("t.k", "u.k")
        assert ast.tables == ("t", "u", "v")

    def test_count(self):
        ast = parse_query("Select count(objid) from PhotoPrimary;")
        assert ast.is_count
        assert ast.projections == ("photoprimary.objid",)

    def test_truncate_passthrough(self):
        assert parse_query("TRUNCATE TABLE PhotoPrimary;") == TruncateOp("photoprimary")

    def test_copy_passthrough(self):
        op = parse_query("COPY PhotoPrimary FROM '/data/p.csv' (DELIMITER ',');")
        assert op == CopyOp("photoprimary", "/data/p.csv")

    def test_limit_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            parse_query("SELECT a FROM t LIMIT 0")

    def test_unknown_syntax_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_query("SELECT a FROM t WHERE a !! 3")
        assert exc.value.offset is not None

    def test_ambiguous_bare_attr_with_joins(self):
        with pytest.raises(ParseError, match="ambiguous"):
            parse_query("SELECT a FROM t JOIN u ON t.k = u.k")

    def test_unknown_table_qualifier(self):
        with pytest.raises(ParseError, match="unknown table"):
            parse_query("SELECT z.a FROM t")

    def test_self_join_rejected(self):
        with pytest.raises(ParseError, match="self-join"):
            parse_query("SELECT t.a FROM t JOIN t ON t.a = t.b")

    @pytest.mark.parametrize("stmt, message", [
        ("SELECT a.k FROM a JOIN b ON b.objid = b.y", "names no earlier table"),
        ("SELECT a.k FROM a JOIN b ON a.objid = c.objid JOIN c ON b.objid = c.objid",
         "names 'c' before it is joined"),
        ("SELECT a.k FROM a JOIN b ON a.objid = b.objid JOIN c ON c.objid = c.k",
         "names no earlier table"),
    ], ids=["only-joined-table", "later-table", "second-stage"])
    def test_join_condition_must_name_joined_tables(self, stmt, message):
        with pytest.raises(ParseError, match=message) as exc:
            parse_query(stmt)
        assert exc.value.offset is not None

    def test_degenerate_join_condition_parses(self):
        ast = parse_query("SELECT a.k FROM a JOIN b ON a.objid = a.objid")
        assert ast.joins == (JoinCondition("a.objid", "a.objid"),)

    def test_string_literal(self):
        ast = parse_query("SELECT a FROM t WHERE name = 'M31'")
        assert ast.predicates[0].literal == "M31"

    def test_negative_literal(self):
        ast = parse_query("SELECT a FROM t WHERE dec > -5.5")
        assert ast.predicates[0].literal == -5.5


class TestClassify:
    def test_sampling_query(self):
        ast = parse_query("SELECT a FROM t WHERE a > 1 LIMIT 100")
        c = classify(ast)
        assert (c.join_count, c.is_sampling, c.kind) == (0, True, "sampling")

    def test_simple_count(self):
        c = classify(parse_query("SELECT count(objid) FROM photoprimary"))
        assert (c.join_count, c.is_sampling, c.kind) == (0, False, "simple")

    def test_two_join_complex(self):
        c = classify(parse_query("SELECT t.a FROM t JOIN u ON t.k=u.k JOIN v ON u.m=v.m"))
        assert (c.join_count, c.kind) == (2, "complex")

    def test_join_with_limit_is_complex(self):
        c = classify(parse_query("SELECT t.a FROM t JOIN u ON t.k=u.k LIMIT 5"))
        assert c.kind == "complex" and c.is_sampling

    def test_attrs_collects_all_references(self):
        c = classify(
            parse_query("SELECT t.a FROM t JOIN u ON t.k=u.k WHERE u.b > 1")
        )
        assert c.attrs == frozenset({"t.a", "t.k", "u.k", "u.b"})

    def test_pure_function(self):
        ast = parse_query("SELECT a FROM t WHERE a > 1")
        assert classify(ast) == classify(ast)


def _corpus(n=300, seed=20260809):
    from util import TableInfo, random_select

    tables = [
        TableInfo("main", None, ["objid", "ra", "dec", "v03"], {"ra": (0, 360), "v03": (0, 1000)}),
        TableInfo("d1", None, ["objid", "ra", "x"], {"ra": (0, 360)}),
        TableInfo("d2", None, ["objid", "y"], {"y": (0, 10)}),
    ]
    rng = random.Random(seed)
    return [random_select(rng, tables) for _ in range(n)]


class TestRoundTrip:
    def test_render_parse_fixed_point(self):
        for stmt in _corpus():
            ast = parse_query(stmt)
            rendered = render(ast)
            again = parse_query(rendered)
            assert again == ast, stmt
            assert render(again) == rendered

    def test_attrs_match_statement_identifiers(self):
        keywords = {
            "select", "count", "from", "join", "on", "where", "and", "limit",
        }
        for stmt in _corpus(150):
            ast = parse_query(stmt)
            c = classify(ast)
            idents = {
                w.lower()
                for w in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", stmt)
                if w.lower() not in keywords
            }
            tables = set(ast.tables)
            assert {a.split(".")[1] for a in c.attrs} == idents - tables, stmt
