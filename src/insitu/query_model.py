"""Workload file parsing, a small SQL subset, and query classification.

The statement grammar covers exactly what the workbench executes:

    SELECT attr[, attr]* | COUNT(attr)
      FROM table [JOIN table ON attr = attr]*
      [WHERE attr CMP literal [AND ...]]
      [LIMIT n]
    TRUNCATE TABLE table
    COPY table FROM 'path' [(options...)]

Keywords are case-insensitive; attribute and table names are folded to
lower case. Attributes in single-table queries may be written bare and are
qualified to the sole table; with two or more tables every attribute must
be written table.attr.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError, FormatError, ParseError, SchemaError

KIND_SIMPLE = "simple"
KIND_COMPLEX = "complex"
KIND_SAMPLING = "sampling"

_KEYWORDS = {
    "select", "count", "from", "join", "on", "where", "and",
    "limit", "truncate", "table", "copy",
}


@dataclass(frozen=True)
class WorkloadTask:
    task_id: str
    statement: str


@dataclass(frozen=True)
class Predicate:
    attr: str
    op: str
    literal: float | str


@dataclass(frozen=True)
class JoinCondition:
    left: str
    right: str


@dataclass(frozen=True)
class QueryAst:
    projections: tuple[str, ...]
    is_count: bool
    tables: tuple[str, ...]
    joins: tuple[JoinCondition, ...]
    predicates: tuple[Predicate, ...]
    limit: int | None


@dataclass(frozen=True)
class TruncateOp:
    table: str


@dataclass(frozen=True)
class CopyOp:
    table: str
    path: str


Statement = QueryAst | TruncateOp | CopyOp


@dataclass(frozen=True)
class QueryClass:
    join_count: int
    is_sampling: bool
    attrs: frozenset[str]
    kind: str


# ---------------------------------------------------------------------------
# Workload file


def parse_workload(text: str) -> list[WorkloadTask]:
    """Parse a workload file: header line `T_ID,Statement`, then one
    `id,"statement"` record per line with CSV-style doubled quotes."""
    tasks: list[WorkloadTask] = []
    seen: set[str] = set()
    lines = text.splitlines()
    header_seen = False
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if not header_seen:
            if line.strip().lower() != "t_id,statement":
                raise FormatError(
                    f"line {lineno}: expected header 'T_ID,Statement', got {line!r}"
                )
            header_seen = True
            continue
        task_id, statement = _parse_workload_line(line, lineno)
        if task_id in seen:
            raise FormatError(f"line {lineno}: duplicate task id {task_id!r}")
        seen.add(task_id)
        tasks.append(WorkloadTask(task_id, statement))
    if not header_seen:
        raise FormatError("missing header line 'T_ID,Statement'")
    return tasks


def _parse_workload_line(line: str, lineno: int) -> tuple[str, str]:
    comma = line.find(",")
    if comma < 0:
        raise FormatError(f"line {lineno}: expected 'id,statement'")
    task_id = line[:comma].strip()
    if not task_id:
        raise FormatError(f"line {lineno}: empty task id")
    rest = line[comma + 1 :]
    if rest.lstrip().startswith('"'):
        rest = rest.lstrip()
        out = []
        i = 1
        closed = False
        while i < len(rest):
            c = rest[i]
            if c == '"':
                if i + 1 < len(rest) and rest[i + 1] == '"':
                    out.append('"')
                    i += 2
                    continue
                closed = True
                i += 1
                break
            out.append(c)
            i += 1
        if not closed:
            raise FormatError(f"line {lineno}: unbalanced quotes")
        if rest[i:].strip():
            raise FormatError(f"line {lineno}: trailing text after closing quote")
        statement = "".join(out)
    else:
        if '"' in rest:
            raise FormatError(f"line {lineno}: unbalanced quotes")
        statement = rest.strip()
    if not statement.strip():
        raise FormatError(f"line {lineno}: empty statement")
    return task_id, statement


# ---------------------------------------------------------------------------
# Statement parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<string>'(?:[^']|'')*')
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<|>|=)
      | (?P<punct>[(),.;])
    """,
    re.VERBOSE,
)


def is_name(text: str) -> bool:
    """Whether a query can produce `text` as a table or attribute name: a
    lower-cased identifier that is not a keyword."""
    m = _TOKEN_RE.fullmatch(text)
    return (m is not None and m.lastgroup == "ident"
            and text == text.lower() and text not in _KEYWORDS)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().pos)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value.lower() == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.error(f"expected {word.upper()}")
        self.next()

    def expect_punct(self, ch: str) -> None:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != ch:
            raise self.error(f"expected {ch!r}")
        self.next()

    def name(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.value.lower() in _KEYWORDS:
            raise self.error(f"expected {what}")
        self.next()
        return tok.value.lower()

    def attr_ref(self) -> tuple[str | None, str, int]:
        pos = self.peek().pos
        first = self.name("attribute name")
        if self.peek().kind == "punct" and self.peek().value == ".":
            self.next()
            second = self.name("attribute name")
            return first, second, pos
        return None, first, pos

    def finish(self) -> None:
        if self.peek().kind == "punct" and self.peek().value == ";":
            self.next()
        if self.peek().kind != "eof":
            raise self.error("unexpected trailing input")


def parse_query(statement: str) -> Statement:
    """Parse one workload statement into its typed form.

    SELECT yields a QueryAst; TRUNCATE and COPY pass through as
    maintenance/load operations.
    """
    p = _Parser(statement)
    if p.at_keyword("select"):
        return _parse_select(p)
    if p.at_keyword("truncate"):
        p.next()
        p.expect_keyword("table")
        table = p.name("table name")
        p.finish()
        return TruncateOp(table)
    if p.at_keyword("copy"):
        p.next()
        table = p.name("table name")
        p.expect_keyword("from")
        tok = p.peek()
        if tok.kind != "string":
            raise p.error("expected quoted file path")
        p.next()
        path = tok.value[1:-1].replace("''", "'")
        if p.peek().kind == "punct" and p.peek().value == "(":
            _skip_balanced(p)
        p.finish()
        return CopyOp(table, path)
    raise p.error("expected SELECT, TRUNCATE or COPY")


def _skip_balanced(p: _Parser) -> None:
    depth = 0
    while True:
        tok = p.peek()
        if tok.kind == "eof":
            raise p.error("unterminated option list")
        p.next()
        if tok.kind == "punct" and tok.value == "(":
            depth += 1
        elif tok.kind == "punct" and tok.value == ")":
            depth -= 1
            if depth == 0:
                return


def _parse_select(p: _Parser) -> QueryAst:
    p.expect_keyword("select")
    raw_projs: list[tuple[str | None, str, int]] = []
    is_count = False
    if p.at_keyword("count"):
        p.next()
        p.expect_punct("(")
        raw_projs.append(p.attr_ref())
        p.expect_punct(")")
        is_count = True
    else:
        raw_projs.append(p.attr_ref())
        while p.peek().kind == "punct" and p.peek().value == ",":
            p.next()
            raw_projs.append(p.attr_ref())

    p.expect_keyword("from")
    tables = [p.name("table name")]
    raw_joins: list[tuple[tuple, tuple]] = []
    while p.at_keyword("join"):
        p.next()
        pos = p.peek().pos
        joined = p.name("table name")
        if joined in tables:
            # Without aliases a repeated table name cannot be resolved.
            raise ParseError("self-joins are not supported", pos)
        tables.append(joined)
        p.expect_keyword("on")
        left = p.attr_ref()
        tok = p.peek()
        if tok.kind != "op" or tok.value != "=":
            raise p.error("expected = in join condition")
        p.next()
        right = p.attr_ref()
        raw_joins.append((left, right))
    # A join condition may name the joined table and tables before it, and
    # must name at least one table before it.
    for i, (left, right) in enumerate(raw_joins):
        for table, _, pos in (left, right):
            if table in tables[i + 2 :]:
                raise ParseError(f"join condition names {table!r} before it is joined", pos)
        if left[0] == right[0] == tables[i + 1]:
            raise ParseError(
                f"join condition on {tables[i + 1]!r} names no earlier table", left[2]
            )

    raw_preds: list[tuple[tuple, str, float | str]] = []
    if p.at_keyword("where"):
        p.next()
        raw_preds.append(_parse_predicate(p))
        while p.at_keyword("and"):
            p.next()
            raw_preds.append(_parse_predicate(p))

    limit = None
    if p.at_keyword("limit"):
        p.next()
        tok = p.peek()
        if tok.kind != "number":
            raise p.error("expected row count after LIMIT")
        p.next()
        value = float(tok.value)
        if value != int(value) or value < 0:
            raise ParseError("LIMIT must be a non-negative integer", tok.pos)
        limit = int(value)
        if limit == 0:
            raise DomainError("LIMIT must be positive")
    p.finish()

    qualify = _make_qualifier(tables, p.text)
    return QueryAst(
        projections=tuple(qualify(ref) for ref in raw_projs),
        is_count=is_count,
        tables=tuple(tables),
        joins=tuple(
            JoinCondition(qualify(left), qualify(right)) for left, right in raw_joins
        ),
        predicates=tuple(
            Predicate(qualify(ref), op, lit) for ref, op, lit in raw_preds
        ),
        limit=limit,
    )


def _parse_predicate(p: _Parser) -> tuple[tuple, str, float | str]:
    ref = p.attr_ref()
    tok = p.peek()
    if tok.kind != "op":
        raise p.error("expected comparison operator")
    p.next()
    lit_tok = p.peek()
    if lit_tok.kind == "number":
        p.next()
        literal: float | str = float(lit_tok.value)
    elif lit_tok.kind == "string":
        p.next()
        literal = lit_tok.value[1:-1].replace("''", "'")
    else:
        raise p.error("expected numeric or string literal")
    return ref, tok.value, literal


def _make_qualifier(tables: list[str], text: str):
    table_set = set(tables)

    def qualify(ref: tuple[str | None, str, int]) -> str:
        table, attr, pos = ref
        if table is None:
            if len(table_set) > 1:
                raise ParseError(
                    f"attribute {attr!r} is ambiguous; qualify it with a table name",
                    pos,
                )
            table = tables[0]
        elif table not in table_set:
            raise ParseError(f"unknown table {table!r} in attribute reference", pos)
        return f"{table}.{attr}"

    return qualify


# ---------------------------------------------------------------------------
# Rendering and classification


def render(ast: QueryAst) -> str:
    """Debug pretty-printer; re-parsing the output yields an equal ast."""
    if ast.is_count:
        proj = f"COUNT({ast.projections[0]})"
    else:
        proj = ", ".join(ast.projections)
    parts = [f"SELECT {proj} FROM {ast.tables[0]}"]
    for i, join in enumerate(ast.joins):
        parts.append(f"JOIN {ast.tables[i + 1]} ON {join.left} = {join.right}")
    if ast.predicates:
        conds = " AND ".join(
            f"{p.attr} {p.op} {_render_literal(p.literal)}" for p in ast.predicates
        )
        parts.append(f"WHERE {conds}")
    if ast.limit is not None:
        parts.append(f"LIMIT {ast.limit}")
    return " ".join(parts)


def _render_literal(literal: float | str) -> str:
    if isinstance(literal, str):
        return "'" + literal.replace("'", "''") + "'"
    return repr(literal)


def classify(ast: QueryAst) -> QueryClass:
    """Classify a query by join count and sampling character.

    Sampling means the statement carries a LIMIT, the subset's only
    early-termination construct.
    """
    attrs: set[str] = set(ast.projections)
    for join in ast.joins:
        attrs.add(join.left)
        attrs.add(join.right)
    for pred in ast.predicates:
        attrs.add(pred.attr)
    join_count = len(ast.joins)
    is_sampling = ast.limit is not None
    if join_count >= 1:
        kind = KIND_COMPLEX
    elif is_sampling:
        kind = KIND_SAMPLING
    else:
        kind = KIND_SIMPLE
    return QueryClass(
        join_count=join_count,
        is_sampling=is_sampling,
        attrs=frozenset(attrs),
        kind=kind,
    )


def needed_attrs(ast: QueryAst, attrs_of) -> dict[str, list[str]]:
    """Bare attribute names to fetch per table, in first-reference order.

    `attrs_of(table)` gives the attribute names a table has. Every
    reference, COUNT's argument included, must name one of them, or
    SchemaError is raised; COUNT's argument is checked but never fetched.
    """
    needed: dict[str, list[str]] = {t: [] for t in ast.tables}
    counted = len(ast.projections) if ast.is_count else 0
    for i, ref in enumerate((
        *ast.projections,
        *(s for j in ast.joins for s in (j.left, j.right)),
        *(p.attr for p in ast.predicates),
    )):
        table, bare = ref.split(".", 1)
        if bare not in attrs_of(table):
            raise SchemaError(f"table {table!r} has no attribute {bare!r}")
        if i >= counted and bare not in needed[table]:
            needed[table].append(bare)
    return needed
