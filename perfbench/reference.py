"""Reference answers for the correctness check.

Each query's reference comes from outside the engine under test: the other
`insitu` engine where it runs the query at a usable speed, and otherwise
this module's own evaluator. The in-situ engine's nested loop is that
exception, so joins whose engine under test is the columnar one are
evaluated here, over tables parsed with the standard library.

Answers are compared as (row count, order-insensitive digest of the rows).
"""
from __future__ import annotations

import hashlib
import marshal
import operator
from pathlib import Path

from insitu.db_engine import DbEngine
from insitu.query_model import QueryAst, parse_query
from insitu.raw_engine import RawEngine

COMPARATORS = {
    "<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge,
    "=": operator.eq,
}


def digest_rows(rows) -> str:
    """Order-insensitive: the rows are sorted before they are hashed. Format
    version 2 of `marshal` writes every value in full (no back-references)
    and floats in binary, so equal rows give equal bytes in any process."""
    return hashlib.sha256(marshal.dumps(sorted(map(tuple, rows)), 2)).hexdigest()


def answer(rows) -> tuple[int, str]:
    return len(rows), digest_rows(rows)


class TextTables:
    """Tables parsed with `str.split`, one column at a time on demand, with
    the float-or-text rule the engines document."""

    def __init__(self, files: dict[str, Path]):
        self.files = files
        self._lines: dict[str, tuple[list[str], list[list[str]]]] = {}
        self._cols: dict[tuple[str, str], list] = {}

    def column(self, table: str, attr: str) -> list:
        key = (table, attr)
        if key not in self._cols:
            if table not in self._lines:
                text = Path(self.files[table]).read_text(encoding="utf-8")
                lines = text.splitlines()
                self._lines[table] = (lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln])
            header, rows = self._lines[table]
            j = header.index(attr)
            raw = [r[j] for r in rows]
            try:
                self._cols[key] = [float(x) for x in raw]
            except ValueError:
                self._cols[key] = raw
        return self._cols[key]


def _matches(tables: TextTables, table: str, preds, n: int) -> list[int]:
    keep = range(n)
    for p in preds:
        col = tables.column(table, p.attr.split(".", 1)[1])
        lit = p.literal
        if isinstance(col[0], float) != (not isinstance(lit, str)):
            raise ValueError(f"reference evaluator: mixed-type predicate {p}")
        cmp = COMPARATORS[p.op]
        keep = [i for i in keep if cmp(col[i], lit)]
    return list(keep)


def evaluate_join(ast: QueryAst, tables: TextTables) -> list[tuple]:
    """One equi-join with per-table predicates: every left row in file order,
    each with its matching right rows in file order."""
    if len(ast.joins) != 1 or ast.limit is not None:
        raise ValueError("reference evaluator handles one join without LIMIT")
    left, right = ast.tables
    join = ast.joins[0]
    lkey, rkey = (join.left, join.right) if join.left.startswith(left + ".") else (
        join.right, join.left)

    def bare(a):
        return a.split(".", 1)[1]

    def own_preds(t):
        return [p for p in ast.predicates if p.attr.startswith(t + ".")]

    lcol, rcol = tables.column(left, bare(lkey)), tables.column(right, bare(rkey))
    buckets: dict = {}
    for j in _matches(tables, right, own_preds(right), len(rcol)):
        buckets.setdefault(rcol[j], []).append(j)
    pairs = [
        (i, j) for i in _matches(tables, left, own_preds(left), len(lcol))
        for j in buckets.get(lcol[i], ())
    ]
    if ast.is_count:
        return [(len(pairs),)]
    cols = [(a.split(".", 1)[0] == left, tables.column(a.split(".", 1)[0], bare(a)))
            for a in ast.projections]
    return [tuple(col[i if is_left else j] for is_left, col in cols) for i, j in pairs]


def reference_answers(setup, scratch: Path) -> dict[str, tuple[int, str]]:
    """(row count, digest) per query task of a workload."""
    db = raw = text = None
    out = {}
    for task in setup.tasks:
        under_test = setup.engine_of.get(task.task_id)
        if under_test is None:
            continue
        ast = parse_query(task.statement)
        if under_test == "raw":
            if db is None:
                db = DbEngine(scratch / "reference_db")
                for table, path in setup.tables.items():
                    db.load_table(path, table)
            rows = db.execute(ast)[0].rows
        elif ast.joins:
            text = text or TextTables(setup.tables)
            rows = evaluate_join(ast, text)
        else:
            raw = raw or RawEngine(cache_budget_bytes=1 << 31)
            rows = raw.execute(ast, files=setup.tables)[0].rows
        out[task.task_id] = answer(rows)
    return out
