import itertools
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from insitu.cache import ColumnCache
from insitu.datagen import generate_csv
from insitu.db_engine import DbEngine
from insitu.errors import BudgetExceededError, ConfigError, FormatError
from insitu.query_model import parse_query
from insitu.raw_engine import RawEngine
from insitu.tabular import (
    COMPARATORS,
    TEXT_ENTRY_OVERHEAD,
    Column,
    ResultSet,
    _text_literal,
    column_from_strings,
    cut_column,
    predicate_mask,
    read_csv,
    scan_csv,
    split_lines,
    text_column,
)
from util import CONTRACT_INPUTS, cut_fields, split_whole, write_csv


def make_col(n):
    return Column(np.arange(n, dtype=np.float64))


class TestColumnCache:
    def test_lru_eviction_order(self):
        cache = ColumnCache(8 * 31)  # room for three 80-byte columns
        for name in "abc":
            cache.put(("f", name), make_col(10))  # 80 bytes each
        cache.get(("f", "a"))  # refresh a; b is now LRU
        cache.put(("f", "d"), make_col(10))
        assert ("f", "b") not in cache
        assert ("f", "a") in cache and ("f", "c") in cache and ("f", "d") in cache

    def test_budget_never_exceeded(self):
        cache = ColumnCache(1000)
        rng = np.random.default_rng(3)
        for i in range(200):
            cache.put(("f", f"c{i}"), make_col(int(rng.integers(1, 12))))
            assert cache.total_bytes <= cache.budget_bytes

    def test_pinned_columns_survive(self):
        cache = ColumnCache(8 * 20)
        cache.put(("f", "a"), make_col(10))
        cache.put(("f", "b"), make_col(10), pinned={("f", "a"), ("f", "b")})
        assert ("f", "a") in cache

    def test_overbudget_reports_both_sizes(self):
        cache = ColumnCache(100)
        with pytest.raises(BudgetExceededError) as exc:
            cache.put(("f", "a"), make_col(100))
        assert exc.value.required_bytes == 800
        assert exc.value.available_bytes == 100

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigError):
            ColumnCache(0)

    def test_replace_same_key_updates_size(self):
        cache = ColumnCache(1000)
        cache.put(("f", "a"), make_col(100))
        cache.put(("f", "a"), make_col(10))
        assert cache.total_bytes == 80


class TestScanCsv:
    def test_column_typing(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, "x"], [2.5, "y"]])
        scan = scan_csv(p)
        assert scan.columns["a"].is_numeric
        assert not scan.columns["b"].is_numeric
        assert scan.columns["a"].values.tolist() == [1.0, 2.5]
        assert scan.columns["b"].tolist() == ["x", "y"]

    def test_ragged_row_names_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(FormatError, match="row 2"):
            scan_csv(p)

    def test_no_trailing_newline(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a\n1\n2")
        scan = scan_csv(p)
        assert scan.row_count == 2
        assert scan.file_bytes == 5
        assert scan.columns["a"].values.tolist() == [1.0, 2.0]

    def test_unknown_column(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a"], [[1]])
        with pytest.raises(FormatError, match="zz"):
            scan_csv(p, wanted=["zz"])


FIELDS = st.sampled_from(["", "0", "-1.5", "2e3", "x", "ab", "nan"])


@st.composite
def csv_files(draw):
    """A data file with text, numeric, mixed and empty fields, LF or CRLF
    lines, with or without a final newline and trailing blank lines, and
    at most one long field: 300 bytes needs 16-bit map offsets, 70,000
    bytes 32-bit ones."""
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(FIELDS, min_size=ncols, max_size=ncols), max_size=8))
    if rows:
        r, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, ncols - 1))
        rows[r][j] += "w" * draw(st.sampled_from([0, 300, 70_000]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(f"c{j}" for j in range(ncols)), *(",".join(r) for r in rows)]
    return (eol.join(lines) + draw(st.sampled_from(["", eol, eol * 3]))).encode()


def scanned(scan):
    """Everything a scan returns, float values as their bits."""
    cols = {
        name: (col.type, col.values.tobytes() if col.is_numeric else col.tolist())
        for name, col in scan.columns.items()
    }
    return scan.header, cols, scan.row_count, scan.file_bytes


class TestRowMap:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(csv_files())
    @example(b"a,b\n")  # header only
    @example(b"a,b,c\n,,\n1,,x\n,2,\n")  # empty fields
    @example(b"a,b\n" + b"1," + b"9" * 300 + b"\n2,3\n")
    @example(b"a,b\r\n" + b"x" * 70_000 + b",1\r\n2,3")
    @example(CONTRACT_INPUTS["crlf"])  # a mixed column
    @example(CONTRACT_INPUTS["no-final-newline"])
    @example(CONTRACT_INPUTS["trailing-blanks"])
    @example(CONTRACT_INPUTS["cr-cr-lf-header"])
    def test_cut_from_map_equals_cold_scan(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            with open(path, "wb") as f:
                f.write(data)
            first = scan_csv(path, [])
            rowmap = first.rowmap
            assert len(rowmap) == first.row_count
            names = first.header
            for k in range(len(names) + 1):
                for subset in itertools.combinations(names, k):
                    mapped = scan_csv(path, subset, rowmap=rowmap)
                    assert scanned(mapped) == scanned(scan_csv(path, subset))
                    assert mapped.rowmap is rowmap

    @pytest.mark.parametrize("name", ["ragged", "blank-inside"])
    def test_no_map_outside_the_contract(self, tmp_path, name):
        p = tmp_path / "t.csv"
        p.write_bytes(CONTRACT_INPUTS[name])
        with pytest.raises(FormatError) as cold:
            scan_csv(p, [])
        engine = RawEngine()
        for _ in range(2):  # a failed scan leaves no map behind to cut from
            with pytest.raises(FormatError) as engine_run:
                engine.execute(parse_query("SELECT a FROM t"), files={"t": p})
            assert str(engine_run.value) == str(cold.value)

    @pytest.mark.parametrize("width,dtype", [(10, np.uint8), (255, np.uint8),
                                             (256, np.uint16), (65_536, np.uint32)])
    def test_offsets_take_the_narrowest_dtype(self, tmp_path, width, dtype):
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,b\n" + b"1," + b"2" * (width - 2) + b"\r\n3,4\n")
        rowmap = scan_csv(p, []).rowmap
        assert rowmap.ends.dtype == dtype
        assert rowmap.ends.tolist() == [[1, width], [1, 3]]
        assert rowmap.nbytes == rowmap.line_starts.nbytes + 2 * 2 * np.dtype(dtype).itemsize

    def test_map_of_a_rewritten_file_is_not_cut_from(self, tmp_path, monkeypatch):
        from insitu import tabular

        p = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3, 4]])
        old = scan_csv(p, []).rowmap
        assert old.stamp == (p.stat().st_size, p.stat().st_mtime_ns)
        splits = []
        split = tabular.split_lines
        monkeypatch.setattr(tabular, "split_lines",
                            lambda *a, **k: splits.append(a) or split(*a, **k))
        assert scan_csv(p, ["b"], rowmap=old).rowmap is old
        assert splits == []
        write_csv(p, ["a", "b"], [[10, 20], [30, 40], [50, 60]])
        new = scan_csv(p, ["b"], rowmap=old)
        assert len(splits) == 1 and new.rowmap is not old
        assert new.columns["b"].tolist() == [20.0, 40.0, 60.0]


@st.composite
def split_cases(draw):
    """A buffer and the offset of its first data line, for `split_lines`:
    good, ragged and blank lines, each ending in LF or CRLF, "\\r" in
    fields, lines of up to 80 bytes (longer than a window of 1, 7 or 64
    bytes), a header ending in "\\r\\r\\n" or not, and after the last
    newline nothing, a partial line or more blank lines."""
    ncols = draw(st.integers(1, 3))
    field = st.text("ab1\r", max_size=25)
    line = st.one_of(
        st.lists(field, min_size=ncols, max_size=ncols),
        st.lists(field, min_size=1, max_size=ncols + 1),
        st.just([""]),
    ).map(",".join)
    header = ",".join(f"c{j}" for j in range(ncols)) + draw(st.sampled_from(["", "\r", "\r\r"]))
    text = header + "\n"
    for body in draw(st.lists(line, max_size=10)):
        text += body + draw(st.sampled_from(["\n", "\r\n"]))
    text += draw(st.sampled_from(["", "1", "a,\r", "\n", "\r\n\n"]))
    return text.encode(), len(header) + 1, ncols


def split_outcome(split):
    """Line starts, field ends from each line start and row ends, as lists,
    or the FormatError message."""
    try:
        starts, ends, row_ends = split()
    except FormatError as exc:
        return str(exc)
    return starts.tolist(), ends.tolist(), row_ends.tolist()


class TestWindowedSplit:
    """`split_lines` walks line-aligned windows; the whole-buffer split it
    replaced (`split_whole`) is the reference."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(split_cases())
    @example((b"a,b\r\r\n1,2\r\n", 6, 2))
    @example((b"a\n1\n\n\r\n2\n\n\r\n", 2, 1))  # one column, blank lines
    @example((b"a\n123456\r\n7\r\n", 2, 1))  # "\r" at the end of a 7-byte window
    @example((b"a,b\n1,2\n\n3,4\n", 4, 2))  # a blank line waits for the next window
    @example((b"a,b\n1,2\n\n\n", 4, 2))
    @example((b"a,b\n", 4, 2))
    def test_windows_equal_the_whole_buffer_split(self, case):
        from insitu import tabular

        buf, start, ncols = case
        maps = []

        def windowed():
            rowmap, row_ends = split_lines(buf, start, ncols, "t.csv")
            maps.append(rowmap)
            return rowmap.line_starts, rowmap.ends, row_ends

        expected = split_outcome(lambda: split_whole(buf, start, ncols, "t.csv"))
        for window in (1, 7, 64, 1 << 20):
            with mock.patch.object(tabular, "_SPLIT_WINDOW", window):
                assert split_outcome(windowed) == expected, window
        if maps:  # the narrowest dtype that holds the widest line
            widest = max((r[-1] for r in expected[1]), default=0)
            assert {m.ends.dtype for m in maps} == {np.min_scalar_type(widest)}

    def test_temporaries_stay_within_a_window(self, tmp_path, monkeypatch):
        """Beyond the buffer, `split_lines` holds at most the map's parts and
        the joined map, plus one window's temporaries; the whole-buffer split
        held about twice the buffer."""
        from insitu import tabular

        window = 1 << 14
        monkeypatch.setattr(tabular, "_SPLIT_WINDOW", window)
        p = tmp_path / "t.csv"
        generate_csv(p, rows=12_000, columns=4, seed=3)
        raw = p.read_bytes()
        assert len(raw) >= 32 * window
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rowmap, _ = split_lines(raw, raw.find(b"\n") + 1, 4, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(rowmap) == 12_000
        assert peak <= 2 * rowmap.nbytes + 8 * window


@st.composite
def numeric_text(draw):
    """A decimal with an optional sign and dot, 0-20 digits: around the
    kernel's 15-byte limit, with leading zeros and leading or trailing dots."""
    digits = draw(st.text("0123456789", max_size=20))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(digits)))
        digits = digits[:at] + "." + digits[at:]
    return (draw(st.sampled_from(["", "-", "+"])) + digits).encode()


ODD_FIELDS = [b"", b"-0", b"-0.0", b"+.5", b"5.", b".", b"-", b"1_0", b" 1 ", b"nan",
              b"inf", b"-inf", b"1e5", b"0x10", b"1d5", b"1\x002", b"7\x00", b"x",
              b"\xffx", b"caf\xc3\xa9", b"0000000000000001.5", b"999.9999999999"]
CUT_FIELDS = st.one_of(numeric_text(), st.sampled_from(ODD_FIELDS))


def cut_outcome(cut):
    """The type and value bytes of a cut column, or its exception class."""
    try:
        col = cut()
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)
    return col.type, col.values.tobytes() if col.is_numeric else col.tolist()


class TestArrayCut:
    """`cut_column` against the list rule it replaces in `scan_csv`:
    `column_from_strings` on the `cut_fields` bytes."""

    def test_kernel_left_after_a_mostly_unplain_block(self, tmp_path, monkeypatch):
        """17-digit reprs miss the kernel's 15-byte form; from the first
        block of them on, the column goes to the rule alone."""
        from insitu import tabular

        calls = []
        kernel = tabular._plain_decimals
        monkeypatch.setattr(tabular, "_plain_decimals",
                            lambda *a: calls.append(len(a[2])) or kernel(*a))
        rows = 3 * tabular._BLOCK_ROWS
        plain = [f"{i % 1000}.25" for i in range(rows)]
        reprs = [repr(i / 7) for i in range(rows)]
        p = write_csv(tmp_path / "t.csv", ["plain", "late", "repr", "text"],
                      zip(plain, plain[:rows // 3] + reprs[rows // 3:], reprs,
                          reprs[:-1] + ["x"]))
        raw, _, _, _, rowmap = read_csv(p)
        for j, blocks in enumerate([3, 2, 1, 1]):
            calls.clear()
            got = cut_outcome(lambda: cut_column(raw, rowmap, j))
            assert len(calls) == blocks, j
            assert got == cut_outcome(lambda: column_from_strings(next(cut_fields(raw, rowmap, [j]))))
        assert got[0] == "txt"

    @staticmethod
    def check(data: bytes):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            with open(path, "wb") as f:
                f.write(data)
            try:
                raw, _, header, _, rowmap = read_csv(path)
            except FormatError:
                return
            for j in range(len(header)):
                want = cut_outcome(lambda: column_from_strings(next(cut_fields(raw, rowmap, [j]))))
                assert cut_outcome(lambda: cut_column(raw, rowmap, j)) == want, j

    @pytest.mark.parametrize("name", sorted(CONTRACT_INPUTS))
    def test_contract_inputs(self, name):
        self.check(CONTRACT_INPUTS[name])

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(fields=st.lists(CUT_FIELDS, max_size=40), last=st.sampled_from([None, b"x"]),
           second=st.booleans(), final_newline=st.booleans())
    @example(fields=[b"1.5"], last=None, second=False, final_newline=True)  # ends at 5
    @example(fields=[b"1", b"2"] * 3000, last=b"x", second=False, final_newline=False)
    @example(fields=[b"123456789012345", b"-12345678901234.5"], last=None, second=True,
             final_newline=True)
    def test_same_column_as_the_list_rule(self, fields, last, second, final_newline):
        """Header `a\\n` puts the first fields within 16 bytes of the buffer
        start; `last` makes a column whose only text value is its last row;
        `second` adds a column after, so fields also end at a comma."""
        if last is not None:
            fields = [*fields, last]
        lines = [b"a,b" if second else b"a"]
        lines += [f + b",1" if second else f for f in fields]
        self.check(b"\n".join(lines) + (b"\n" if final_newline else b""))

    @pytest.mark.parametrize("column", ["v05", "text"])
    def test_peak_memory_under_half_the_list_rule(self, tmp_path, column):
        """A one-column cut from a map holds no per-field bytes objects or
        offset lists; tracemalloc peaks are counted above the file bytes."""
        import tracemalloc

        path = tmp_path / "t.csv"
        generate_csv(path, rows=25_000, columns=12, seed=3)
        if column == "text":
            lines = path.read_text().splitlines()
            lines = [lines[0] + ",text"] + [f"{ln},s{i % 97}" for i, ln in enumerate(lines[1:])]
            path.write_text("\n".join(lines) + "\n")
        rowmap = scan_csv(path, []).rowmap
        size = path.stat().st_size

        def list_rule():
            raw, _, header, _, _ = read_csv(path, [column], rowmap)
            return column_from_strings(next(cut_fields(raw, rowmap, [header.index(column)])))

        def peak(fn):
            tracemalloc.start()
            try:
                col = fn()
                return tracemalloc.get_traced_memory()[1] - size, col
            finally:
                tracemalloc.stop()

        array_peak, array_col = peak(lambda: scan_csv(path, [column], rowmap=rowmap).columns[column])
        list_peak, list_col = peak(list_rule)
        assert cut_outcome(lambda: array_col) == cut_outcome(lambda: list_col)
        assert array_peak <= list_peak / 2, (array_peak, list_peak)


# Few distinct words, so columns hold duplicates and literals meet words.
TEXTS = st.sampled_from(["", "a", "ab", "b", "\0", "a\0", "é", "日本", "\r", "x\r",
                         "1.0", "2.5", "-3.0", "Z"])
TEXT_LITERALS = st.one_of(TEXTS, st.text(max_size=3), st.floats(), st.integers(-3, 3))


def string_mask(values, op, literal):
    """The earlier text predicate kernel: one `str` comparison per row."""
    cmp, lit = COMPARATORS[op], _text_literal(literal)
    return np.fromiter((cmp(v, lit) for v in values), dtype=bool, count=len(values)).tolist()


class TestPredicates:
    def test_numeric_column_text_literal_matches_nothing(self):
        col = Column(np.array([1.0, 2.0]))
        assert predicate_mask(col, "=", "abc").tolist() == [False, False]

    def test_text_column_comparison(self):
        col = Column(["ant", "bee", "cow"])
        assert predicate_mask(col, ">", "bee").tolist() == [False, False, True]

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(values=st.lists(TEXTS, max_size=25), op=st.sampled_from(sorted(COMPARATORS)),
           literal=TEXT_LITERALS, data=st.data())
    @example(values=[], op="=", literal="a", data=None)
    @example(values=["", ""], op="<=", literal="", data=None)
    @example(values=["b", "d"], op=">", literal="", data=None)  # below every word
    @example(values=["b", "d"], op="<", literal="c", data=None)  # between
    @example(values=["b", "d"], op=">=", literal="\U0010ffff", data=None)  # above
    @example(values=["z\0", "z", "z\0\0"], op="=", literal="z\0", data=None)
    @example(values=["1.0", "2.5", "-3.0"], op="<", literal=2.5, data=None)
    def test_coded_column_equals_the_string_list(self, values, op, literal, data):
        """A coded column against the list of str it replaced: the same
        strings back, masks equal to one `str` comparison per row (the
        earlier kernel, kept here as the oracle), gathers equal to the
        list's, and a cache charge of 4 bytes a code plus the distinct
        words."""
        col = Column(values)
        assert col.words == sorted(set(values)) and col.values.dtype == np.int32
        assert col.tolist() == values
        fields = [v.encode("utf-8") for v in values]
        coded = text_column(fields[i:i + 3] for i in range(0, len(fields), 3))
        assert coded.words == col.words and coded.values.tolist() == col.values.tolist()
        assert predicate_mask(col, op, literal).tolist() == string_mask(values, op, literal)
        picks = data.draw(st.lists(st.integers(0, len(values) - 1))) if data and values else []
        taken = col.take(np.array(picks, dtype=np.intp))
        assert taken.tolist() == [values[i] for i in picks] and taken.words is col.words
        words = sum(len(v.encode("utf-8")) + TEXT_ENTRY_OVERHEAD for v in set(values))
        for c in (col, taken):
            assert c.nbytes == 4 * len(c) + words


class TestResultSet:
    def test_multiset_ignores_order(self):
        a = ResultSet(("c",), (np.array([1.0, 2.0]),))
        b = ResultSet(("c",), (np.array([2.0, 1.0]),))
        assert a.multiset() == b.multiset()

    def test_rows_keep_python_types(self, tmp_path):
        """`rows` holds int for COUNT, float for numbers and str for text on
        every path of both engines: the benchmark's correctness digest
        marshals the rows, and marshal tells 1 from 1.0."""
        t = write_csv(tmp_path / "t.csv", ["n", "s"], [[1, "x"], [2, "y"], [3, "x"]])
        u = write_csv(tmp_path / "u.csv", ["s", "m"], [["x", 10], ["x", 20], ["z", 30]])
        db = DbEngine(tmp_path / "db")
        raw = RawEngine()
        for table, path in (("t", t), ("u", u)):
            db.load_table(path, table)
            raw.register(table, path)
        types = {
            "SELECT count(n) FROM t": (int,),
            "SELECT count(n) FROM t WHERE n > 5": (int,),  # pruned on db
            "SELECT n, s FROM t": (float, str),
            "SELECT n, s FROM t LIMIT 2": (float, str),
            "SELECT t.n, u.m, u.s FROM t JOIN u ON t.s = u.s": (float, float, str),
            "SELECT count(t.n) FROM t JOIN u ON t.s = u.s": (int,),
        }
        for stmt, want in types.items():
            for engine in (raw, db):
                rows = engine.execute(parse_query(stmt))[0].rows
                assert rows and all(tuple(map(type, row)) == want for row in rows), stmt
