import numpy as np
import pytest

from insitu.cache import ColumnCache
from insitu.errors import BudgetExceededError, ConfigError, FormatError
from insitu.tabular import Column, ResultSet, predicate_mask, scan_csv
from util import write_csv


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
        assert scan.columns["b"].values == ["x", "y"]

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


class TestPredicates:
    def test_numeric_column_text_literal_matches_nothing(self):
        col = Column(np.array([1.0, 2.0]))
        assert predicate_mask(col, "=", "abc").tolist() == [False, False]

    def test_text_column_comparison(self):
        col = Column(["ant", "bee", "cow"])
        assert predicate_mask(col, ">", "bee").tolist() == [False, False, True]


class TestResultSet:
    def test_csv_rendering(self, capsys):
        import sys

        rs = ResultSet(("t.a", "t.b"), [(1.5, "x"), (2.0, "y")])
        rs.to_csv(sys.stdout)
        out = capsys.readouterr().out
        assert out == "t.a,t.b\n1.5,x\n2.0,y\n"

    def test_multiset_ignores_order(self):
        a = ResultSet(("c",), [(1.0,), (2.0,)])
        b = ResultSet(("c",), [(2.0,), (1.0,)])
        assert a.multiset() == b.multiset()
