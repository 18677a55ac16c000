"""Which `insitu` functions the traced run wraps, and the per-layer metrics
derived from the spans they produce.

A layer is an `insitu` module. Functions imported by name into other modules
(`scan_csv` into both engines, `run_scripted` into `cli`, ...) are replaced
in every `insitu` namespace that holds them, so each call is seen once,
whichever module makes it.
"""
from __future__ import annotations

import os
import statistics
import sys
from collections import defaultdict

from spans import SpanRecorder, children_index, has_descendant, self_ms

MIB = 1 << 20


def _replace_everywhere(orig, wrapper) -> None:
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "insitu" or name.startswith("insitu.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def install(rec: SpanRecorder):
    """Wrap every traced function; returns the traced `cli.main`."""
    from insitu import (advisor, analyzer, cache, cli, db_engine, monitor,
                        query_model, raw_engine, stat_sources, tabular)

    def fn(module, attr, name, annotate=None):
        orig = getattr(module, attr)
        _replace_everywhere(orig, rec.wrap(name, orig, annotate))

    def method(cls, attr, name, annotate=None):
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), annotate))

    def on_scan(span, args, kwargs, scan):
        span.attrs.update(bytes=scan.file_bytes, cols=len(scan.columns))

    def on_get(span, args, kwargs, col):
        span.attrs["hit"] = col is not None

    def before_put(args, kwargs):
        cache_, key = args[0], args[1]
        return {"entries": len(cache_) + (key not in cache_)}

    def on_put(span, args, kwargs, result):
        cache_ = args[0]
        span.attrs.update(evictions=span.attrs["entries"] - len(cache_),
                          peak=cache_.peak_bytes)

    def on_exec(span, args, kwargs, ret):
        result, stats = ret
        span.attrs.update(
            join=bool(args[1].joins), bytes=stats.bytes_read_from_disk,
            rows_scanned=stats.rows_scanned, rows_out=len(result),
        )

    def on_raw_exec(span, args, kwargs, ret):
        on_exec(span, args, kwargs, ret)
        engine, ast = args[0], args[1]
        if ast.limit is not None and not ast.is_count and not ast.joins:
            files = dict(engine.files)
            files.update(kwargs.get("files") or (args[2] if len(args) > 2 else None) or {})
            span.attrs.update(limit=True, file_bytes=os.path.getsize(files[ast.tables[0]]))

    def on_load(span, args, kwargs, stats):
        span.attrs.update(input_bytes=stats.input_bytes, written=stats.total_written)

    def on_aggregate(span, args, kwargs, result):
        span.attrs["samples_in"] = len(args[0])

    def on_scripted(span, args, kwargs, ret):
        samples, _report = ret
        timeline = args[2] if len(args) > 2 else kwargs.get("timeline", ())
        span.attrs.update(
            held=len(samples), ticks=len({s.ts_ms for s in samples}),
            scheduled=max(1, len(timeline)) * args[0].frequency_hz,
        )
        rec.task = None  # the scripted timeline set tasks ahead of the run

    def on_start(span, args, kwargs, handle):
        span.attrs["freq"] = args[0].frequency_hz

    def on_stop(span, args, kwargs, report):
        span.attrs["held"] = len(args[0].samples)

    def on_script(span, args, kwargs, script):
        span.attrs["ticks"] = len(script)

    register_set = monitor.TaskRegister.set

    def set_task(self, task_id):
        rec.task = task_id
        register_set(self, task_id)

    monitor.TaskRegister.set = set_task

    fn(query_model, "parse_workload", "query_model.parse_workload")
    fn(query_model, "parse_query", "query_model.parse_query")
    fn(tabular, "scan_csv", "tabular.scan_csv", on_scan)
    fn(tabular, "predicate_mask", "tabular.predicate_mask")
    method(tabular.Column, "take", "tabular.take")
    method(cache.ColumnCache, "get", "cache.get", on_get)
    cache.ColumnCache.put = rec.wrap("cache.put", cache.ColumnCache.put, on_put, before_put)
    method(raw_engine.RawEngine, "execute", "raw_engine.execute", on_raw_exec)
    method(db_engine.DbEngine, "execute", "db_engine.execute", on_exec)
    method(db_engine.DbEngine, "load_table", "db_engine.load_table", on_load)
    method(db_engine.DbEngine, "truncate_table", "db_engine.truncate_table")
    os.fsync = rec.wrap("db_engine.fsync", os.fsync)
    fn(advisor, "write_raw_slices", "advisor.write_raw_slices")
    fn(advisor, "load_db_side", "advisor.load_db_side")
    fn(analyzer, "aggregate_profiles", "analyzer.aggregate_profiles", on_aggregate)
    fn(analyzer, "profiles_from_exec_stats", "analyzer.profiles_from_exec_stats")
    fn(analyzer, "write_report", "analyzer.write_report")
    fn(analyzer, "write_series_csv", "analyzer.write_series_csv")
    fn(monitor, "run_scripted", "monitor.run_scripted", on_scripted)
    fn(monitor, "start_monitor", "monitor.start_monitor", on_start)
    method(monitor.MonitorHandle, "stop", "monitor.stop", on_stop)
    method(stat_sources.ProcfsSource, "read_tick", "stat_sources.read_tick")
    method(stat_sources.SyntheticSource, "read_tick", "stat_sources.read_tick")
    fn(stat_sources, "synthetic_script", "stat_sources.synthetic_script", on_script)
    return rec.wrap("cli.main", cli.main)


def layer_metrics(spans, report: dict, store_bytes: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (see README.md for each name)."""
    kids = children_index(spans)
    own = self_ms(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total_ms(spans_):
        return sum(s.ms for s in spans_)

    def ms(name):
        return total_ms(by[name])

    def own_ms(spans_):
        return sum(own[s.id] for s in spans_)

    def attr(spans_, key):
        return sum(s.attrs.get(key, 0) for s in spans_)

    m: dict[str, float] = {}
    m["query_model.parse_ms"] = ms("query_model.parse_workload") + ms("query_model.parse_query")

    scans = by["tabular.scan_csv"]
    m["tabular.scan_ms"] = ms("tabular.scan_csv")
    m["tabular.scan_calls"] = len(scans)
    m["tabular.scan_bytes"] = attr(scans, "bytes")
    m["tabular.scan_cols"] = attr(scans, "cols")
    m["tabular.scan_bytes_per_col"] = (
        m["tabular.scan_bytes"] / m["tabular.scan_cols"] if m["tabular.scan_cols"] else 0.0
    )
    m["tabular.mask_ms"] = ms("tabular.predicate_mask")
    m["tabular.mask_calls"] = len(by["tabular.predicate_mask"])
    m["tabular.take_ms"] = ms("tabular.take")

    gets = by["cache.get"]
    misses = sum(1 for s in gets if not s.attrs.get("hit"))
    m["cache.gets"] = len(gets)
    m["cache.misses"] = misses
    m["cache.hit_rate"] = (len(gets) - misses) / len(gets) if gets else 0.0
    puts = by["cache.put"]
    m["cache.evictions"] = attr(puts, "evictions")
    m["cache.put_ms"] = ms("cache.put")
    m["cache.peak_mb"] = max((s.attrs.get("peak", 0) for s in puts), default=0) / MIB

    raw = by["raw_engine.execute"]
    stream = [s for s in raw if s.attrs.get("limit")
              and not has_descendant(s, kids, "tabular.scan_csv")]
    m["raw_engine.exec_calls"] = len(raw)
    m["raw_engine.exec_ms"] = ms("raw_engine.execute")
    m["raw_engine.self_ms"] = own_ms(raw)
    m["raw_engine.join_self_ms"] = own_ms([s for s in raw if s.attrs.get("join")])
    m["raw_engine.limit_stream_ms"] = total_ms(stream)
    file_bytes = attr(stream, "file_bytes")
    rows_scanned = attr(stream, "rows_scanned")
    m["raw_engine.limit_bytes_frac"] = attr(stream, "bytes") / file_bytes if file_bytes else 0.0
    m["raw_engine.limit_rows_ratio"] = (
        attr(stream, "rows_out") / rows_scanned if rows_scanned else 0.0
    )
    m["raw_engine.bytes_read"] = attr(raw, "bytes")

    loads = by["db_engine.load_table"]
    load_ids = {s.id for s in loads}
    db = by["db_engine.execute"]
    m["db_engine.load_calls"] = len(loads)
    m["db_engine.load_ms"] = ms("db_engine.load_table")
    m["db_engine.load_scan_ms"] = total_ms([s for s in scans if s.parent in load_ids])
    m["db_engine.load_self_ms"] = own_ms(loads)
    m["db_engine.fsyncs"] = len(by["db_engine.fsync"])
    m["db_engine.fsync_ms"] = ms("db_engine.fsync")
    m["db_engine.truncate_ms"] = ms("db_engine.truncate_table")
    m["db_engine.exec_calls"] = len(db)
    m["db_engine.exec_ms"] = ms("db_engine.execute")
    m["db_engine.self_ms"] = own_ms(db)
    m["db_engine.join_self_ms"] = own_ms([s for s in db if s.attrs.get("join")])
    m["db_engine.pruned"] = sum(1 for s in db if not has_descendant(s, kids, "cache.get"))
    m["db_engine.bytes_read"] = attr(db, "bytes") + attr(loads, "input_bytes")
    m["db_engine.bytes_written"] = attr(loads, "written")
    m["db_engine.store_bytes"] = store_bytes["db"]

    m["advisor.raw_slices_ms"] = ms("advisor.write_raw_slices")
    m["advisor.db_side_self_ms"] = own_ms(by["advisor.load_db_side"])
    m["advisor.slice_bytes"] = store_bytes["partition"]

    m["analyzer.aggregate_ms"] = (
        ms("analyzer.aggregate_profiles") + ms("analyzer.profiles_from_exec_stats")
    )
    m["analyzer.report_ms"] = ms("analyzer.write_report") + ms("analyzer.write_series_csv")
    m["analyzer.samples_in"] = attr(by["analyzer.aggregate_profiles"], "samples_in")

    scripted = by["monitor.run_scripted"]
    starts, stops = by["monitor.start_monitor"], by["monitor.stop"]
    ticks = by["stat_sources.read_tick"]
    mon = report.get("monitor", {})
    m["monitor.scripted_ms"] = ms("monitor.run_scripted")
    m["monitor.samples"] = mon.get("samples_total", 0)
    m["monitor.samples_held"] = attr(scripted, "held") + attr(stops, "held")
    m["monitor.flushes"] = mon.get("flush_count", 0)
    m["monitor.max_buffered"] = mon.get("max_buffered", 0)
    m["monitor.stop_ms"] = ms("monitor.stop")
    m["monitor.busy_ms"] = (
        m["monitor.scripted_ms"] + ms("monitor.start_monitor") + m["monitor.stop_ms"]
    )
    if starts and stops:
        live_s = stops[-1].start - starts[0].end
        m["monitor.tick_ratio"] = len(ticks) / (live_s * starts[0].attrs["freq"])
    else:
        m["monitor.tick_ratio"] = (
            attr(scripted, "ticks") / attr(scripted, "scheduled") if scripted else 0.0
        )

    script = by["stat_sources.synthetic_script"]
    m["stat_sources.ticks"] = len(ticks) + attr(script, "ticks")
    m["stat_sources.tick_ms"] = ms("stat_sources.read_tick")
    m["stat_sources.tick_p50_us"] = (
        statistics.median(s.ms for s in ticks) * 1000.0 if ticks else 0.0
    )
    m["stat_sources.script_ms"] = ms("stat_sources.synthetic_script")
    m["stat_sources.busy_ms"] = m["stat_sources.tick_ms"] + m["stat_sources.script_ms"]

    roots = by["cli.main"]
    m["cli.self_ms"] = own_ms(roots)
    return m
