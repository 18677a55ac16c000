import json
import threading
import time

import pytest

from insitu import cli
from insitu.cli import (
    EXIT_CONFIG,
    EXIT_ENGINE,
    EXIT_INPUT,
    EXIT_OK,
    main,
)
from insitu.datagen import generate_csv
from insitu.db_engine import DbEngine
from insitu.stat_sources import ProcfsSource
from insitu.tabular import ResultSet
from util import write_csv


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "photoprimary.csv"
    generate_csv(path, rows=3000, columns=5, seed=3)
    return path


@pytest.fixture
def workload(tmp_path, dataset):
    wl = tmp_path / "workload.csv"
    wl.write_text(
        "T_ID,Statement\n"
        'TRUN,"TRUNCATE TABLE PhotoPrimary;"\n'
        f"COPY,\"COPY PhotoPrimary FROM '{dataset}' (DELIMITER ',');\"\n"
        'Q0,"Select count(objid) from PhotoPrimary;"\n'
        'Q1,"SELECT objid, ra FROM PhotoPrimary WHERE ra > 10 and ra < 200 limit 50;"\n'
        'Q2,"SELECT dec, v03 FROM PhotoPrimary WHERE v03 <= 500;"\n'
    )
    return wl


def strip_durations(obj):
    """Remove wall-clock-dependent fields before comparing reports."""
    if isinstance(obj, dict):
        return {
            k: strip_durations(v)
            for k, v in obj.items()
            if not k.endswith("_ms")
        }
    if isinstance(obj, list):
        return [strip_durations(v) for v in obj]
    return obj


class TestGenData:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gen-data", "--rows", "1000", "--columns", "5", "--seed", "7",
                     "--out", str(a)]) == EXIT_OK
        assert main(["gen-data", "--rows", "1000", "--columns", "5", "--seed", "7",
                     "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_rows_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        main(["gen-data", "--rows", "0", "--columns", "3", "--out", str(out)])
        assert out.read_text() == "objid,ra,dec\n"

    def test_size_scales_linearly(self, tmp_path):
        small, big = tmp_path / "s.csv", tmp_path / "b.csv"
        main(["gen-data", "--rows", "500", "--columns", "8", "--seed", "1",
              "--out", str(small)])
        main(["gen-data", "--rows", "5000", "--columns", "8", "--seed", "1",
              "--out", str(big)])
        ratio = big.stat().st_size / small.stat().st_size
        assert ratio == pytest.approx(10.0, rel=0.02)

    def test_skew_is_deterministic_and_validated(self, tmp_path):
        from insitu.errors import ConfigError

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_csv(a, rows=500, columns=6, seed=9, skew=0.5)
        generate_csv(b, rows=500, columns=6, seed=9, skew=0.5)
        assert a.read_bytes() == b.read_bytes()
        plain = tmp_path / "p.csv"
        generate_csv(plain, rows=500, columns=6, seed=9, skew=0.0)
        assert plain.read_bytes() != a.read_bytes()
        with pytest.raises(ConfigError):
            generate_csv(tmp_path / "x.csv", rows=10, columns=3, seed=1, skew=1.0)


class TestRun:
    def test_db_and_raw_wet_structure(self, tmp_path, workload):
        out_db = tmp_path / "out_db"
        out_raw = tmp_path / "out_raw"
        assert main(["run", "--workload", str(workload), "--engine", "db",
                     "--source", "synthetic", "--out", str(out_db)]) == EXIT_OK
        assert main(["run", "--workload", str(workload), "--engine", "raw",
                     "--source", "synthetic", "--out", str(out_raw)]) == EXIT_OK
        rep_db = json.loads((out_db / "report.json").read_text())
        rep_raw = json.loads((out_raw / "report.json").read_text())
        assert rep_db["wet"]["load_ms"] > 0
        assert rep_raw["wet"]["load_ms"] == 0.0
        db_counts = {t["task_id"]: t["result_rows"] for t in rep_db["tasks"]}
        raw_counts = {t["task_id"]: t["result_rows"] for t in rep_raw["tasks"]}
        assert db_counts["Q0"] == raw_counts["Q0"] == 1
        assert db_counts["Q1"] == raw_counts["Q1"] == 50
        assert db_counts["Q2"] == raw_counts["Q2"]

    def test_a_run_builds_no_rows(self, tmp_path, dataset, monkeypatch):
        """`insitu run` reads only each result's length: with row building
        made to raise, runs of COUNT, LIMIT, filter and join tasks, numeric
        and text, on both engines report the same row counts."""
        tags = write_csv(tmp_path / "tags.csv", ["objid", "tag"],
                         [[i * 7, f"t{i % 5}"] for i in range(300)])
        labels = write_csv(tmp_path / "labels.csv", ["tag", "name"],
                           [["t0", "zero"], ["t3", "three"], ["t3", "drei"]])
        wl = tmp_path / "workload.csv"
        wl.write_text(
            "T_ID,Statement\n"
            f"C0,\"COPY PhotoPrimary FROM '{dataset}' (DELIMITER ',');\"\n"
            f"C1,\"COPY Tags FROM '{tags}' (DELIMITER ',');\"\n"
            f"C2,\"COPY Labels FROM '{labels}' (DELIMITER ',');\"\n"
            'Q0,"SELECT count(objid) FROM PhotoPrimary WHERE ra > 100;"\n'
            'Q1,"SELECT objid, ra FROM PhotoPrimary WHERE ra > 10 limit 50;"\n'
            'Q2,"SELECT dec, v03 FROM PhotoPrimary WHERE v03 <= 500;"\n'
            'Q3,"SELECT PhotoPrimary.ra, Tags.tag FROM PhotoPrimary JOIN Tags'
            ' ON PhotoPrimary.objid = Tags.objid WHERE PhotoPrimary.ra > 100;"\n'
            'Q4,"SELECT count(Tags.objid) FROM Tags JOIN Labels ON Tags.tag = Labels.tag;"\n'
            'Q5,"SELECT Tags.objid, Labels.name FROM Tags JOIN Labels'
            ' ON Tags.tag = Labels.tag LIMIT 20;"\n'
            'Q6,"SELECT objid FROM PhotoPrimary WHERE ra > 1000;"\n'
        )

        def counts(engine, out):
            assert main(["run", "--workload", str(wl), "--engine", engine,
                         "--source", "synthetic", "--out", str(tmp_path / out)]) == EXIT_OK
            report = json.loads((tmp_path / out / "report.json").read_text())
            assert report["status"] == "ok"
            return {t["task_id"]: t["result_rows"] for t in report["tasks"]
                    if t["kind"] == "query"}

        want = {engine: counts(engine, f"{engine}-rows") for engine in ("raw", "db")}
        assert want["raw"] == want["db"]
        assert want["db"]["Q0"] == want["db"]["Q4"] == 1
        assert (want["db"]["Q1"], want["db"]["Q5"]) == (50, 20)
        assert all(want["db"][q] > 0 for q in ("Q2", "Q3")) and want["db"]["Q6"] == 0

        def no_rows(*_):
            raise AssertionError("a result row was built")

        monkeypatch.setattr(ResultSet, "rows", property(no_rows))
        monkeypatch.setattr(ResultSet, "multiset", no_rows)
        for engine in ("raw", "db"):
            assert counts(engine, f"{engine}-columns") == want[engine]

    def test_exec_reports_structure_scans_and_map_bytes(self, tmp_path, workload):
        scans = {}
        for engine in ("db", "raw"):
            out = tmp_path / engine
            assert main(["run", "--workload", str(workload), "--engine", engine,
                         "--source", "synthetic", "--out", str(out)]) == EXIT_OK
            tasks = json.loads((out / "report.json").read_text())["tasks"]
            scans[engine] = [(t["exec"]["structure_scans"], t["exec"]["rowmap_bytes"] > 0)
                             for t in tasks if t["kind"] == "query"]
        assert scans["db"] == [(0, False)] * 3
        # Q0 counts from a structure scan; the LIMIT of Q1 streams; Q2 cuts
        # its columns from the map Q0 left.
        assert scans["raw"] == [(1, True), (0, True), (0, True)]

    def test_determinism_modulo_durations(self, tmp_path, workload):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--workload", str(workload), "--engine", "db",
                         "--source", "synthetic", "--seed", "11",
                         "--out", str(out)]) == EXIT_OK
            outs.append(out)
        s1 = (outs[0] / "samples.csv").read_bytes()
        s2 = (outs[1] / "samples.csv").read_bytes()
        assert s1 == s2
        r1 = strip_durations(json.loads((outs[0] / "report.json").read_text()))
        r2 = strip_durations(json.loads((outs[1] / "report.json").read_text()))
        assert r1 == r2

    def test_monitor_freq_zero_is_config_error(self, tmp_path, workload):
        rc = main(["run", "--workload", str(workload), "--engine", "db",
                   "--source", "synthetic", "--freq", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_data_dir_env_default(self, tmp_path, dataset, monkeypatch):
        # Tables without an explicit COPY path resolve under INSITU_DATA_DIR.
        wl = tmp_path / "wl.csv"
        wl.write_text(
            "T_ID,Statement\n"
            'Q0,"SELECT count(objid) FROM photoprimary;"\n'
        )
        monkeypatch.setenv("INSITU_DATA_DIR", str(dataset.parent))
        out = tmp_path / "out"
        rc = main(["run", "--workload", str(wl), "--engine", "raw",
                   "--source", "synthetic", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["tasks"][0]["result_rows"] == 1

    def test_bad_workload_is_input_error(self, tmp_path):
        wl = tmp_path / "bad.csv"
        wl.write_text('T_ID,Statement\nQ1,"SELECT FROM nothing\n')
        rc = main(["run", "--workload", str(wl), "--engine", "db",
                   "--source", "synthetic", "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("engine", ["raw", "db"])
    @pytest.mark.parametrize("join", [
        "JOIN b ON b.objid = b.ra",
        "JOIN b ON a.objid = c.objid JOIN c ON b.objid = c.objid",
    ], ids=["only-joined-table", "later-table"])
    def test_bad_join_condition_is_input_error(self, tmp_path, dataset, engine, join):
        wl = tmp_path / "wl.csv"
        wl.write_text(
            "T_ID,Statement\n"
            + "".join(f"L{t},\"COPY {t} FROM '{dataset}';\"\n" for t in "abc")
            + f'Q1,"SELECT a.ra FROM a {join};"\n'
        )
        rc = main(["run", "--workload", str(wl), "--engine", engine,
                   "--source", "synthetic", "--out", str(tmp_path / "o")])
        assert rc == EXIT_INPUT

    def test_crash_containment(self, tmp_path, workload, dataset):
        # Query over a missing attribute fails mid-workload; earlier results
        # and all flushed samples must survive on disk.
        wl = tmp_path / "failing.csv"
        wl.write_text(
            "T_ID,Statement\n"
            f"COPY,\"COPY PhotoPrimary FROM '{dataset}';\"\n"
            'Q0,"Select count(objid) from PhotoPrimary;"\n'
            'BAD,"SELECT missing_col FROM PhotoPrimary;"\n'
            'Q9,"SELECT objid FROM PhotoPrimary;"\n'
        )
        out = tmp_path / "out"
        rc = main(["run", "--workload", str(wl), "--engine", "db",
                   "--source", "synthetic", "--out", str(out)])
        assert rc == EXIT_ENGINE
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "error"
        assert report["failed_task"] == "BAD"
        done = [t["task_id"] for t in report["tasks"]]
        assert "Q0" in done and "Q9" not in done
        assert (out / "samples.csv").exists()
        assert (out / "samples.csv").read_text().startswith("ts_ms,")

    def test_damaged_store_is_a_failed_task(self, tmp_path, workload):
        # A rerun into the same --out reads the store the first run left.
        out = tmp_path / "out"
        argv = ["run", "--engine", "db", "--source", "synthetic", "--out", str(out)]
        assert main(argv + ["--workload", str(workload)]) == EXIT_OK
        (out / "db_store" / "photoprimary" / "1.col").write_bytes(b"")
        wl = tmp_path / "rerun.csv"
        wl.write_text('T_ID,Statement\nQ0,"Select count(objid) from PhotoPrimary;"\n'
                      'Q1,"SELECT ra FROM PhotoPrimary;"\n')
        assert main(argv + ["--workload", str(wl)]) == EXIT_ENGINE
        report = json.loads((out / "report.json").read_text())
        assert (report["status"], report["failed_task"]) == ("error", "Q1")
        assert [t["kind"] for t in report["tasks"]] == ["query", "failed"]
        assert "1.col: unreadable header" in report["tasks"][-1]["error"]

    def test_os_error_in_a_task_is_a_failed_task(self, tmp_path, dataset):
        # The COPY source does not exist: the open fails with an OSError.
        wl = tmp_path / "missing.csv"
        wl.write_text(
            "T_ID,Statement\n"
            f"COPY,\"COPY PhotoPrimary FROM '{dataset}';\"\n"
            'Q0,"Select count(objid) from PhotoPrimary;"\n'
            "LOST,\"COPY t FROM 'no-such-table.csv';\"\n"
            'Q1,"Select count(objid) from PhotoPrimary;"\n'
        )
        out = tmp_path / "out"
        rc = main(["run", "--workload", str(wl), "--engine", "db", "--source", "synthetic",
                   "--data-dir", str(tmp_path), "--out", str(out)])
        assert rc == EXIT_ENGINE
        report = json.loads((out / "report.json").read_text())
        assert (report["status"], report["failed_task"]) == ("error", "LOST")
        assert [t["task_id"] for t in report["tasks"]] == ["COPY", "Q0", "LOST"]
        assert report["tasks"][-1]["kind"] == "failed"
        assert (out / "series.csv").read_text().startswith("ts_ms,series,value\n")

    def test_procfs_source_live_run(self, tmp_path):
        import os

        if not os.path.exists("/proc/stat"):
            pytest.skip("no procfs")
        big = tmp_path / "big.csv"
        generate_csv(big, rows=60_000, columns=8, seed=2)
        wl = tmp_path / "wl.csv"
        wl.write_text(
            "T_ID,Statement\n"
            f"COPY,\"COPY big FROM '{big}';\"\n"
            'Q0,"SELECT objid, ra FROM big WHERE ra > 180;"\n'
        )
        out = tmp_path / "out"
        rc = main(["run", "--workload", str(wl), "--engine", "db",
                   "--source", "procfs", "--freq", "200", "--watched", "python",
                   "--out", str(out)])
        assert rc == EXIT_OK
        text = (out / "samples.csv").read_text()
        assert "TOTAL" in text
        assert "COPY" in text  # load spans several sampling periods

    def test_procfs_watches_by_command_line(self, tmp_path, monkeypatch):
        import os
        import subprocess
        import sys

        if not os.path.exists("/proc/stat"):
            pytest.skip("no procfs")
        table = tmp_path / "t.csv"
        generate_csv(table, rows=20_000, columns=6, seed=4)
        wl = tmp_path / "wl.csv"
        wl.write_text(f"T_ID,Statement\nCOPY,\"COPY t FROM '{table}';\"\n")
        # The marker is in the child's command line only, never in its comm.
        marker = f"insitu-marker-{tmp_path.name}"
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; print('ready', flush=True); sys.stdin.read()",
             marker], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # The COPY returns only once two ticks have sampled the child, so the
        # run spans them however fast the load is.
        sampled = threading.Event()
        seen = []
        read_tick = ProcfsSource.read_tick

        def counted_tick(source):
            tick = read_tick(source)
            seen.extend(tick.processes[:1])
            if len(seen) >= 2:
                sampled.set()
            return tick

        load_table = DbEngine.load_table

        def load_spanning_two_ticks(*args, **kwargs):
            stats = load_table(*args, **kwargs)
            assert sampled.wait(60)
            return stats

        monkeypatch.setattr(ProcfsSource, "read_tick", counted_tick)
        monkeypatch.setattr(DbEngine, "load_table", load_spanning_two_ticks)
        try:
            # The child has started: its command line holds the marker.
            assert child.stdout.readline() == "ready\n"
            comm = open(f"/proc/{child.pid}/comm").read().strip()
            out = tmp_path / "out"
            rc = main(["run", "--workload", str(wl), "--engine", "db",
                       "--source", "procfs", "--freq", "200", "--watched", marker,
                       "--out", str(out)])
        finally:
            child.kill()
            child.wait()
        assert rc == EXIT_OK
        assert marker not in comm
        rows = [r.split(",") for r in (out / "samples.csv").read_text().splitlines()[1:]]
        procs = [r for r in rows if r[2] == "PROC"]
        assert len(procs) >= 2
        assert {r[3] for r in procs} == {comm}

    @pytest.mark.parametrize("source, measured", [
        ("synthetic", False), ("replay", False), ("procfs", True),
    ])
    def test_report_labels_scripted_profiles(self, tmp_path, workload, source, measured):
        import os

        from test_stat_sources import TOP_BLOCK

        if source == "procfs" and not os.path.exists("/proc/stat"):
            pytest.skip("no procfs")
        if source == "replay":
            log = tmp_path / "tools.log"
            log.write_text(TOP_BLOCK * 3)
            source = f"replay:{log}"
        out = tmp_path / "out"
        assert main(["run", "--workload", str(workload), "--engine", "raw",
                     "--source", source, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["monitor"]["measured"] is measured


class TestClassifyCommand:
    def test_classify_output(self, tmp_path, workload, capsys):
        assert main(["classify", "--workload", str(workload)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["Q1"]["kind"] == "sampling"
        assert out["Q0"]["kind"] == "simple"
        assert out["TRUN"] == {"kind": "load"}


class TestAdviseAndPlanRun:
    @pytest.fixture
    def advised(self, tmp_path, dataset):
        wl = tmp_path / "wl.csv"
        side = tmp_path / "dim.csv"
        generate_csv(side, rows=300, columns=3, seed=8)
        wl.write_text(
            "T_ID,Statement\n"
            'Q0,"SELECT objid, ra FROM photoprimary WHERE ra > 100;"\n'
            'Q1,"SELECT dec FROM photoprimary LIMIT 10;"\n'
            'Q2,"SELECT photoprimary.v03, dim.ra FROM photoprimary '
            'JOIN dim ON photoprimary.objid = dim.objid;"\n'
        )
        plan_path = tmp_path / "plan.json"
        rc = main(["advise", "qca", "--workload", str(wl),
                   "--schema-csv", str(dataset), str(side),
                   "--out", str(plan_path)])
        assert rc == EXIT_OK
        return wl, plan_path, side

    def test_qca_plan_contents(self, advised):
        _, plan_path, _ = advised
        plan = json.loads(plan_path.read_text())
        assert plan["technique"] == "QCA"
        assert "photoprimary.objid" in plan["raw_attrs"]
        assert "dim.ra" in plan["db_attrs"]
        assert plan["routing"] == {"Q0": "raw", "Q1": "raw", "Q2": "db"}

    def test_plan_run_routes_and_matches(self, tmp_path, dataset, advised):
        wl, plan_path, side = advised
        out = tmp_path / "out_seq"
        argv = ["run", "--workload", str(wl), "--engine", f"plan:{plan_path}",
                "--source", "synthetic", "--data-dir", str(tmp_path),
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        engines = {t["task_id"]: t.get("engine") for t in report["tasks"]
                   if t["kind"] == "query"}
        assert engines == {"Q0": "raw", "Q1": "raw", "Q2": "db"}
        assert any(t["task_id"] == "PLAN_LOAD" for t in report["tasks"])

        # Results must match a plain raw run over the original data.
        out_raw = tmp_path / "ref_seq"
        assert main(["run", "--workload", str(wl), "--engine", "raw",
                     "--source", "synthetic", "--data-dir", str(tmp_path),
                     "--out", str(out_raw)]) == EXIT_OK
        ref = json.loads((out_raw / "report.json").read_text())
        counts = {t["task_id"]: t["result_rows"] for t in report["tasks"]}
        ref_counts = {t["task_id"]: t["result_rows"] for t in ref["tasks"]}
        for q in ("Q0", "Q1", "Q2"):
            assert counts[q] == ref_counts[q]

    def test_plan_run_on_ragged_table_is_input_error(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b\n1,2\n3\n4,5\n6,7\n")
        wl = tmp_path / "wl.csv"
        wl.write_text('T_ID,Statement\nQ0,"SELECT a, b FROM t WHERE a > 0;"\n')
        plan_path = tmp_path / "plan.json"
        assert main(["advise", "qca", "--workload", str(wl),
                     "--schema-csv", str(tmp_path / "t.csv"),
                     "--out", str(plan_path)]) == EXIT_OK
        for engine in ("raw", f"plan:{plan_path}"):
            rc = main(["run", "--workload", str(wl), "--engine", engine,
                       "--source", "synthetic", "--data-dir", str(tmp_path),
                       "--out", str(tmp_path / "out")])
            assert rc == EXIT_INPUT, engine

    @pytest.mark.parametrize("path", ["raw-scan", "raw-limit", "db-copy", "plan"])
    def test_text_field_not_utf8_is_input_error(self, tmp_path, path, capsys):
        (tmp_path / "t.csv").write_bytes(b"a,b\n1,\xff\xfe\n2,x\n")
        query = "SELECT a, b FROM t WHERE a > 0" + (" LIMIT 1" if path == "raw-limit" else "")
        copy = "L0,\"COPY t FROM 't.csv';\"\n" if path == "db-copy" else ""
        wl = tmp_path / "wl.csv"
        wl.write_text(f'T_ID,Statement\n{copy}Q0,"{query};"\n')
        engine = "db" if path == "db-copy" else "raw"
        if path == "plan":
            plan_path = tmp_path / "plan.json"
            assert main(["advise", "qca", "--workload", str(wl),
                         "--schema-csv", str(tmp_path / "t.csv"),
                         "--out", str(plan_path)]) == EXIT_OK
            engine = f"plan:{plan_path}"
        out = tmp_path / "out"
        rc = main(["run", "--workload", str(wl), "--engine", engine,
                   "--source", "synthetic", "--data-dir", str(tmp_path),
                   "--out", str(out)])
        assert rc == EXIT_INPUT
        assert json.loads((out / "report.json").read_text())["status"] == "error"
        assert "text field b'\\xff\\xfe' is not UTF-8" in capsys.readouterr().err

    def test_plan_load_times_slicing_and_leaves_no_db_slice(
        self, tmp_path, advised, monkeypatch
    ):
        materialize_plan = cli.materialize_plan

        def slow_slices(*args, **kwargs):
            time.sleep(0.05)
            return materialize_plan(*args, **kwargs)

        monkeypatch.setattr(cli, "materialize_plan", slow_slices)
        wl, plan_path, _ = advised
        out = tmp_path / "out"
        assert main(["run", "--workload", str(wl), "--engine", f"plan:{plan_path}",
                     "--source", "synthetic", "--data-dir", str(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        (plan_load,) = [t for t in report["tasks"] if t["task_id"] == "PLAN_LOAD"]
        assert plan_load["duration_ms"] >= 50.0
        assert [p.name for p in (out / "partition").iterdir()] == ["raw_partition"]

    def test_plan_load_phases_cover_its_duration(self, tmp_path, advised):
        wl, plan_path, _ = advised
        out = tmp_path / "out"
        assert main(["run", "--workload", str(wl), "--engine", f"plan:{plan_path}",
                     "--source", "synthetic", "--data-dir", str(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        (plan_load,) = [t for t in report["tasks"] if t["task_id"] == "PLAN_LOAD"]
        phases = plan_load["phases_ms"]
        assert set(phases) == {"raw_slices", "db_side"}
        assert min(phases.values()) > 0.0
        covered = sum(phases.values())
        assert 0.9 * plan_load["duration_ms"] <= covered <= plan_load["duration_ms"]
        slices = list((out / "partition" / "raw_partition").iterdir())
        assert slices and plan_load["slice_bytes"] == sum(p.stat().st_size for p in slices)

    def test_rua_requires_report(self, tmp_path, advised, dataset):
        wl, _, side = advised
        rc = main(["advise", "rua", "--workload", str(wl),
                   "--schema-csv", str(dataset), str(side),
                   "--out", str(tmp_path / "p.json")])
        assert rc == EXIT_CONFIG

    def test_rua_from_measured_run(self, tmp_path, advised, dataset):
        wl, _, side = advised
        out = tmp_path / "measured"
        assert main(["run", "--workload", str(wl), "--engine", "raw",
                     "--source", "synthetic", "--data-dir", str(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        plan_path = tmp_path / "rua.json"
        rc = main(["advise", "rua", "--workload", str(wl),
                   "--schema-csv", str(dataset), str(side),
                   "--report", str(out / "report.json"),
                   "--out", str(plan_path)])
        assert rc == EXIT_OK
        plan = json.loads(plan_path.read_text())
        assert plan["routing"]["Q1"] == "raw"  # tiny LIMIT sampler
        assert plan["routing"]["Q2"] == "db"

    def test_rua_rejects_profile_missing_a_field(self, tmp_path, advised, dataset, capsys):
        wl, _, side = advised
        out = tmp_path / "measured"
        assert main(["run", "--workload", str(wl), "--engine", "raw",
                     "--source", "synthetic", "--data-dir", str(tmp_path),
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        del report["exec_profiles"]["Q1"]["total_read_bytes"]  # read as 0, Q1 would go raw
        (out / "report.json").write_text(json.dumps(report))
        rc = main(["advise", "rua", "--workload", str(wl),
                   "--schema-csv", str(dataset), str(side),
                   "--report", str(out / "report.json"),
                   "--out", str(tmp_path / "rua.json")])
        assert rc == EXIT_INPUT
        assert "total_read_bytes" in capsys.readouterr().err
        assert not (tmp_path / "rua.json").exists()


    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2]",
        '{"profiles": {"Q0": [1, 2]}}',
    ], ids=["not-json", "a-list", "profile-not-an-object"])
    def test_rua_rejects_a_report_that_is_no_report(self, tmp_path, advised, dataset,
                                                    text, capsys):
        wl, _, side = advised
        bad = tmp_path / "report.json"
        bad.write_text(text)
        rc = main(["advise", "rua", "--workload", str(wl),
                   "--schema-csv", str(dataset), str(side),
                   "--report", str(bad), "--out", str(tmp_path / "rua.json")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "rua.json").exists()

    @pytest.mark.parametrize("change", [
        {"schema": None},  # missing keys
        {"raw_attrs": "photoprimary.ra"},  # a string, not a list
        {"routing": ["Q0"]},
        {"routing": {"Q0": "elsewhere"}},
        {"technique": "XYZ"},
        {"technique": 7},
    ], ids=["missing", "attrs-not-a-list", "routing-not-an-object", "unknown-engine",
            "unknown-technique", "technique-not-a-string"])
    def test_plan_run_rejects_a_bad_plan_file(self, tmp_path, advised, change, capsys):
        wl, plan_path, _ = advised
        plan = json.loads(plan_path.read_text())
        if change == {"schema": None}:
            plan = {"technique": "QCA"}
        else:
            plan.update(change)
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(plan))
        rc = main(["run", "--workload", str(wl), "--engine", f"plan:{bad}",
                   "--source", "synthetic", "--data-dir", str(tmp_path),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")


class TestReplayAndReport:
    @pytest.mark.parametrize("command", ["run", "replay"])
    def test_missing_replay_log_is_io_error(self, tmp_path, workload, command, capsys):
        missing = tmp_path / "no-such.log"
        if command == "run":
            argv = ["run", "--workload", str(workload), "--engine", "raw",
                    "--source", f"replay:{missing}", "--out", str(tmp_path / "o")]
        else:
            argv = ["replay", "--file", str(missing), "--out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_ENGINE
        err = capsys.readouterr().err
        assert err.startswith("io error:") and str(missing) in err

    def test_replay_then_report(self, tmp_path, capsys):
        from test_stat_sources import IOTOP_BLOCK, TOP_BLOCK

        log = tmp_path / "tools.log"
        log.write_text(TOP_BLOCK + IOTOP_BLOCK + TOP_BLOCK + IOTOP_BLOCK)
        samples = tmp_path / "samples.csv"
        assert main(["replay", "--file", str(log), "--watched", "postgres",
                     "--out", str(samples)]) == EXIT_OK
        assert samples.read_text().count("\n") > 4

        report = tmp_path / "report.json"
        assert main(["report", "--samples", str(samples),
                     "--out", str(report)]) == EXIT_OK
        data = json.loads(report.read_text())
        assert "IDLE" in data["profiles"]

    def test_report_from_samples_matches_the_run(self, tmp_path, workload):
        # `insitu report` reduces the run's samples.csv with the same reducer,
        # so its profiles equal those the run wrote, bit for bit.
        out = tmp_path / "out"
        assert main(["run", "--workload", str(workload), "--engine", "db",
                     "--source", "synthetic", "--freq", "50", "--seed", "3",
                     "--out", str(out)]) == EXIT_OK
        again = tmp_path / "again.json"
        assert main(["report", "--samples", str(out / "samples.csv"),
                     "--workload", str(workload), "--out", str(again)]) == EXIT_OK
        run_profiles = json.loads((out / "report.json").read_text())["profiles"]
        assert json.loads(again.read_text())["profiles"] == run_profiles
        assert set(run_profiles) == {"TRUN", "COPY", "Q0", "Q1", "Q2"}
