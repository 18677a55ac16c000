"""Loads and plan slices read each source once, a window at a time
(`tabular.CsvReader`). Their oracle is the whole-buffer path in
`tests/util.py` (`load_whole`, `slice_whole`): under windows of 1, 7 and
64 bytes, every `.col`, `meta`, `journal.log` and slice byte is the same,
and so is every error's class and text. A pass that fails leaves nothing
behind."""
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from insitu import db_engine, tabular
from insitu.advisor import PartitionPlan, materialize_plan, write_raw_slices
from insitu.cli import EXIT_ENGINE, EXIT_INPUT, main
from insitu.datagen import generate_csv
from insitu.db_engine import DbEngine
from insitu.errors import FormatError, LoadError, WorkbenchError
from test_advisor import slice_sources
from util import CONTRACT_INPUTS, dir_bytes, load_whole, slice_whole

WINDOWS = [1, 7, 64]
FLIP = db_engine._TYPE_INFER_ROWS


def outcome(fn):
    """`fn()`, or the class and text of the workbench error it raises."""
    try:
        return fn()
    except WorkbenchError as exc:
        return type(exc), str(exc)


def flip_source(text_row: int, bad_row: int = -1, rows: int = FLIP + 200) -> bytes:
    """Column a numeric (in verbatim forms a float does not keep) but for
    text at `text_row`; column b text, not UTF-8 at `bad_row`."""
    lines = [b"a,b"]
    for i in range(rows):
        a = b"x%d" % i if i == text_row else b"%d.50" % i if i % 3 else b"00%d" % i
        lines.append(a + (b",\xff\xfe" if i == bad_row else b",w%d" % (i % 5)))
    return b"\n".join(lines) + b"\n"


SPECIAL = {
    "flip-before-infer-rows": flip_source(FLIP // 2),
    "flip-after-infer-rows": flip_source(FLIP + 100),
    "late-bad-utf8-then-flip": flip_source(FLIP + 100, bad_row=FLIP + 150),
    "late-bad-utf8-then-ragged": flip_source(FLIP // 2, bad_row=FLIP // 2 + 10) + b"1\n",
    "long-lines": b"a,b\r\n1," + b"y" * 70_000 + b"\r\n2,3\r\n" + b"z" * 300 + b",4\n",
}


class Oracle:
    """Each path run windowed and whole over one source, each run in a new
    directory: `compare` returns both outcomes, and checks that a windowed
    run that failed left no file behind."""

    def __init__(self, data: bytes, root: Path):
        self.root = root
        self.src = root / "t.csv"
        self.src.write_bytes(data)
        self.n = 0

    def fresh(self, side: str = "o") -> Path:
        self.n += 1
        return self.root / f"{side}{self.n}"

    def load(self, journal, columns):
        def windowed():
            data_dir = self.fresh("w")
            stats = DbEngine(data_dir).load_table(self.src, "t", journal=journal,
                                                  columns=columns)
            assert [p.name for p in data_dir.iterdir()] == ["t"]
            return dir_bytes(data_dir / "t"), stats.input_bytes, stats.rows_loaded

        def whole():
            directory = self.fresh()
            input_bytes = load_whole(self.src, directory, journal, columns)
            rows = int((directory / "meta").read_bytes().split(b"\n", 1)[0])
            return dir_bytes(directory), input_bytes, rows

        return self.compare(windowed, whole)

    def slice(self, keep):
        def windowed():
            plan = PartitionPlan("QCA", (), raw_attrs=frozenset(f"t.{a}" for a in keep),
                                 db_attrs=frozenset())
            paths = write_raw_slices(plan, {"t": self.src}, self.fresh("w"))
            return Path(paths["t"]).read_bytes()

        def whole():
            out = self.fresh() / "t.csv"
            out.parent.mkdir()
            slice_whole(self.src, out, keep)
            return out.read_bytes()

        return self.compare(windowed, whole)

    def plan(self, raw, db):
        """Both sides of a plan from one pass per source."""
        def windowed():
            out, data_dir = self.fresh("w"), self.fresh("w")
            plan = PartitionPlan("QCA", (), raw_attrs=frozenset(f"t.{a}" for a in raw),
                                 db_attrs=frozenset(f"t.{a}" for a in db))
            paths, stats, _ = materialize_plan(plan, {"t": self.src}, out, DbEngine(data_dir))
            return (Path(paths["t"]).read_bytes(), dir_bytes(data_dir / "t"),
                    stats["t"].input_bytes)

        def whole():
            out, directory = self.fresh() / "t.csv", self.fresh()
            out.parent.mkdir()
            slice_whole(self.src, out, raw)
            input_bytes = load_whole(self.src, directory, False, sorted(db))
            return out.read_bytes(), dir_bytes(directory), input_bytes

        return self.compare(windowed, whole)

    def compare(self, windowed, whole):
        want = outcome(whole)
        before = self.n
        try:
            got = windowed()
        except WorkbenchError as exc:
            got = type(exc), str(exc)
            left = [p for n in range(before + 1, self.n + 1)
                    for p in (self.root / f"w{n}").rglob("*") if p.is_file()]
            assert left == [], left
        return got, want


def check_every_path(data: bytes, keep: list[str], others: list[str]):
    """Every windowed path over `data` against its whole-buffer oracle."""
    for window in WINDOWS:
        with tempfile.TemporaryDirectory() as d, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(tabular, "_SPLIT_WINDOW", window)
            oracle = Oracle(data, Path(d))
            cases = {
                "copy": oracle.load(True, None),
                "subset": oracle.load(False, keep[::-1]),
                "slice": oracle.slice(keep),
                "plan": oracle.plan(keep, others or keep),
            }
            for name, (got, want) in cases.items():
                assert got == want, (window, name)


class TestAgainstWholeBuffer:
    @pytest.mark.parametrize("name", sorted(CONTRACT_INPUTS))
    def test_contract_inputs(self, name):
        check_every_path(CONTRACT_INPUTS[name], ["a"], ["b"])

    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(case=slice_sources())
    def test_generated_sources(self, case):
        data, keep = case
        ncols = data.split(b"\n", 1)[0].count(b",") + 1
        names = [f"c{j}" for j in range(ncols)]
        check_every_path(data, [names[j] for j in keep],
                         [n for j, n in enumerate(names) if j not in keep])

    def test_generated_table(self, tmp_path):
        src = tmp_path / "g.csv"
        generate_csv(src, rows=300, columns=6, seed=13)
        header = src.read_bytes().split(b"\n", 1)[0].decode().split(",")
        check_every_path(src.read_bytes(), header[1:3], header[3:])

    @pytest.mark.parametrize("name", sorted(SPECIAL))
    def test_special_sources(self, name):
        check_every_path(SPECIAL[name], ["b"], ["a"])

    def test_flip_cases_are_what_they_say(self, tmp_path):
        """The flip sources reach both sides of `_TYPE_INFER_ROWS`, and a
        later UTF-8 error or ragged row outranks an earlier fault."""
        want = {
            "flip-before-infer-rows": None,
            "flip-after-infer-rows": (LoadError, "row 1101 value 'x1100' is not numeric"),
            "late-bad-utf8-then-flip": (FormatError, "text field b'\\xff\\xfe' is not UTF-8"),
            "late-bad-utf8-then-ragged": (FormatError, f"data row {FLIP + 201} has 1 fields"),
        }
        for name, fault in want.items():
            src = tmp_path / f"{name}.csv"
            src.write_bytes(SPECIAL[name])
            db = DbEngine(tmp_path / name)
            got = outcome(lambda: db.load_table(src, "t"))
            if fault is None:
                assert db.stores["t"].types == {"a": "txt", "b": "txt"}
            else:
                assert got[0] is fault[0] and fault[1] in got[1], (name, got)


def late_fault(kind: str) -> bytes:
    """A source whose one fault lies in its last rows."""
    rows = [b"%d,%d.5,w%d" % (i, i, i % 4) for i in range(FLIP + 50)]
    rows[-2] = {"ragged": b"1,2", "utf8": b"1,2.5,\xff",
                "type": b"1,x,w1"}[kind]
    return b"a,b,c\n" + b"\n".join(rows) + b"\n"


class TestNoPartialOutput:
    """A fault in a source's last window, under 64-byte windows, removes
    what the pass started: the slice, `.<table>.loading` and its journal."""

    FAULTS = {"ragged": FormatError, "utf8": FormatError, "type": LoadError}

    @pytest.fixture(autouse=True)
    def tiny_windows(self, monkeypatch):
        monkeypatch.setattr(tabular, "_SPLIT_WINDOW", 64)

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_copy(self, tmp_path, kind):
        src = tmp_path / "t.csv"
        src.write_bytes(late_fault(kind))
        db = DbEngine(tmp_path / "db")
        with pytest.raises(self.FAULTS[kind]):
            db.load_table(src, "t", journal=True)
        assert list((tmp_path / "db").iterdir()) == []
        assert not db.has_table("t")

    def test_slicer(self, tmp_path):
        src = tmp_path / "t.csv"
        src.write_bytes(late_fault("ragged"))
        plan = PartitionPlan("QCA", ("t.a",), raw_attrs=frozenset({"t.a"}),
                             db_attrs=frozenset())
        with pytest.raises(FormatError, match=f"data row {FLIP + 49} has 2 fields"):
            write_raw_slices(plan, {"t": src}, tmp_path / "out")
        assert list((tmp_path / "out" / "raw_partition").iterdir()) == []

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_plan_run(self, tmp_path, kind):
        (tmp_path / "t.csv").write_bytes(late_fault(kind))
        plan = tmp_path / "plan.json"
        PartitionPlan("QCA", ("t.a", "t.b", "t.c"), raw_attrs=frozenset({"t.a", "t.b"}),
                      db_attrs=frozenset({"t.b", "t.c"}), routing={"Q0": "raw"}).save(plan)
        wl = tmp_path / "wl.csv"
        wl.write_text('T_ID,Statement\nQ0,"SELECT a FROM t WHERE a < 5;"\n')
        out = tmp_path / "out"
        rc = main(["run", "--workload", str(wl), "--engine", f"plan:{plan}",
                   "--source", "synthetic", "--data-dir", str(tmp_path), "--journal", "on",
                   "--out", str(out)])
        assert rc == (EXIT_ENGINE if self.FAULTS[kind] is LoadError else EXIT_INPUT)
        assert list((out / "partition" / "raw_partition").iterdir()) == []
        assert [p.name for p in (out / "db_store").iterdir()] == []


def test_windows_follow_on(tmp_path, monkeypatch):
    """Every byte after the header is in one window, in order, and the
    windows' rows are the file's."""
    rng = random.Random(5)
    lines = [b"a,b"] + [b"%d,%s" % (i, b"q" * rng.randint(0, 40)) for i in range(200)]
    data = b"\r\n".join(lines) + b"\n\n"
    src = tmp_path / "t.csv"
    src.write_bytes(data)
    for window in WINDOWS:
        monkeypatch.setattr(tabular, "_SPLIT_WINDOW", window)
        with tabular.CsvReader(src) as reader:
            body = b"".join(bytes(buf[:size]) for buf, _, size in reader)
            assert body == data.split(b"\n", 1)[1]
            assert reader.rows == 200 and reader.file_bytes == len(data)
