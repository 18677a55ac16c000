"""Partition planning and query routing between the two engines.

Two techniques over a workload's query classes, complexity-aware (QCA)
and utilization-aware (RUA). `_class_keeps_raw` is each technique's class
rule; RUA also requires a minimal measured footprint (little read, tiny
memory). A query kept raw routes raw and its attributes stay raw, every
other query's attributes get loaded, and a query the plan has not seen
routes by the same class rule.

Attributes referenced by both sides are replicated into both partitions.
Metric percentages follow the loaded-side-counts-everything convention:
``db_pct`` counts all loaded attributes, ``raw_only_pct`` the raw-exclusive
ones, ``repl_pct`` the intersection, so ``db_pct + raw_only_pct`` is exactly
the covered share of the schema.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .analyzer import ResourceProfile, SystemSpec, record_dict
from .errors import ConfigError, FormatError, SchemaError, UncoveredQueryError
from .query_model import QueryClass, is_name
from .tabular import CsvReader, LoadStats, cut_rows

TECHNIQUE_QCA = "QCA"
TECHNIQUE_RUA = "RUA"

ENGINE_RAW = "raw"
ENGINE_DB = "db"

DEFAULT_READ_THRESHOLD_BYTES = 2 * 1024 * 1024
DEFAULT_MEM_THRESHOLD_PCT = 0.1
DEFAULT_HEADROOM = 0.9


@dataclass(frozen=True)
class PlanMetrics:
    db_pct: float
    raw_only_pct: float
    repl_pct: float


_PLAN_KEYS = {"technique": str, "schema": list, "raw_attrs": list, "db_attrs": list,
              "routing": dict}


@dataclass
class PartitionPlan:
    technique: str
    schema: tuple[str, ...]
    raw_attrs: frozenset[str]
    db_attrs: frozenset[str]
    routing: dict[str, str] = field(default_factory=dict)

    @property
    def replicated_attrs(self) -> frozenset[str]:
        return self.raw_attrs & self.db_attrs

    @property
    def metrics(self) -> PlanMetrics:
        n = len(self.schema)
        return PlanMetrics(
            db_pct=len(self.db_attrs) / n * 100.0,
            raw_only_pct=len(self.raw_attrs - self.db_attrs) / n * 100.0,
            repl_pct=len(self.replicated_attrs) / n * 100.0,
        )

    def to_dict(self) -> dict:
        return {
            "technique": self.technique,
            "schema": list(self.schema),
            "raw_attrs": sorted(self.raw_attrs),
            "db_attrs": sorted(self.db_attrs),
            "replicated_attrs": sorted(self.replicated_attrs),
            "metrics": record_dict(self.metrics),
            "routing": dict(sorted(self.routing.items())),
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "PartitionPlan":
        """Read a plan saved by `save`. A file that is not one (bad JSON, a
        missing or mistyped key, an unknown technique) is a FormatError."""
        with open(path, encoding="utf-8") as f:
            try:
                d = json.load(f)
            except ValueError as exc:
                raise FormatError(f"{path}: not a JSON plan: {exc}") from exc
        if not isinstance(d, dict):
            raise FormatError(f"{path}: a plan is a JSON object")
        bad = [key for key, kind in _PLAN_KEYS.items()
               if not isinstance(d.get(key), kind)
               or (kind is list and not all(isinstance(a, str) for a in d[key]))]
        if not bad and any(e not in (ENGINE_RAW, ENGINE_DB) for e in d["routing"].values()):
            bad.append("routing")
        if bad:
            raise FormatError(f"{path}: plan key(s) {bad} missing or of the wrong type")
        if d["technique"] not in (TECHNIQUE_QCA, TECHNIQUE_RUA):
            raise FormatError(f"{path}: unknown plan technique {d['technique']!r}")
        return cls(
            technique=d["technique"],
            schema=tuple(d["schema"]),
            raw_attrs=frozenset(d["raw_attrs"]),
            db_attrs=frozenset(d["db_attrs"]),
            routing=dict(d["routing"]),
        )


def _check_schema(classes, schema) -> None:
    known = set(schema)
    for qid, cls in classes.items():
        missing = cls.attrs - known
        if missing:
            raise SchemaError(
                f"query {qid!r} references attributes outside the schema: "
                f"{sorted(missing)}"
            )


def _class_keeps_raw(technique: str, cls: QueryClass) -> bool:
    """The technique's class rule: QCA keeps every 0-join query raw, RUA
    only 0-join sampling queries (and of those, only the ones its profile
    test passes)."""
    return cls.join_count == 0 and (technique == TECHNIQUE_QCA or cls.is_sampling)


def _plan(technique: str, classes: dict[str, QueryClass], schema, keeps_raw) -> PartitionPlan:
    """Each query routes raw when ``keeps_raw(qid, cls)``, else db; each
    side holds the attributes of the queries routed to it."""
    schema = tuple(schema)
    _check_schema(classes, schema)
    routing = {qid: ENGINE_RAW if keeps_raw(qid, cls) else ENGINE_DB
               for qid, cls in classes.items()}
    sides: dict[str, set[str]] = {ENGINE_RAW: set(), ENGINE_DB: set()}
    for qid, engine in routing.items():
        sides[engine] |= classes[qid].attrs
    return PartitionPlan(technique=technique, schema=schema,
                         raw_attrs=frozenset(sides[ENGINE_RAW]),
                         db_attrs=frozenset(sides[ENGINE_DB]), routing=routing)


def qca_partition(classes: dict[str, QueryClass], schema) -> PartitionPlan:
    """Complexity-aware plan: the class rule alone decides."""
    return _plan(TECHNIQUE_QCA, classes, schema,
                 lambda _, cls: _class_keeps_raw(TECHNIQUE_QCA, cls))


def rua_partition(
    classes: dict[str, QueryClass],
    profiles: dict[str, ResourceProfile],
    schema,
    read_threshold_bytes: float = DEFAULT_READ_THRESHOLD_BYTES,
    mem_threshold_pct: float = DEFAULT_MEM_THRESHOLD_PCT,
) -> PartitionPlan:
    """Keep only measured minimal-footprint sampling queries raw.

    A query the class rule keeps raw stays raw when its profile shows less
    than the read threshold pulled from disk and a peak memory share under
    the memory threshold. Empty-profile markers never qualify.
    """
    if read_threshold_bytes <= 0 or mem_threshold_pct <= 0:
        raise ConfigError("RUA thresholds must be positive")

    def keeps_raw(qid, cls):
        profile = profiles.get(qid)
        if profile is None:
            raise ConfigError(f"no resource profile for query {qid!r}")
        return (
            _class_keeps_raw(TECHNIQUE_RUA, cls)
            and not profile.is_empty
            and profile.total_read_bytes < read_threshold_bytes
            and (profile.peak_mem_pct or 0.0) < mem_threshold_pct
        )

    return _plan(TECHNIQUE_RUA, classes, schema, keeps_raw)


@dataclass(frozen=True)
class CapacityCheck:
    fits: bool
    required_bytes: float


def raw_capacity_check(dataset_bytes, spec: SystemSpec,
                       headroom: float = DEFAULT_HEADROOM) -> CapacityCheck:
    """Can the in-situ engine cache this dataset within the RAM budget?

    The in-memory footprint expands by the configured factor relative to
    raw file bytes.
    """
    if dataset_bytes <= 0:
        raise ConfigError("dataset_bytes must be positive")
    required = dataset_bytes * spec.ram_expansion_factor
    return CapacityCheck(fits=required <= spec.ram_bytes * headroom, required_bytes=required)


def route_query(cls: QueryClass, plan: PartitionPlan, query_id: str | None = None) -> str:
    """Engine choice for a query under a plan.

    Known queries use the recorded routing; new ones fall back to the
    technique's class rule, then to whichever side covers their attributes.
    """
    if query_id is not None and query_id in plan.routing:
        return plan.routing[query_id]
    raw_first = _class_keeps_raw(plan.technique, cls)
    order = (ENGINE_RAW, ENGINE_DB) if raw_first else (ENGINE_DB, ENGINE_RAW)
    for engine in order:
        side = plan.raw_attrs if engine == ENGINE_RAW else plan.db_attrs
        if cls.attrs <= side:
            return engine
    raise UncoveredQueryError(
        f"query attributes {sorted(cls.attrs)} are covered by neither partition"
    )


def materialize_plan(plan: PartitionPlan, source_csv, data_dir, db_engine,
                     journal: bool = False):
    """Write the raw-side vertical slice CSV per table and bulk-load each
    table's db-side columns, in one windowed pass per source. Returns the
    slices' paths and the loads' stats, keyed by table, and the time spent
    slicing in ms. ``source_csv`` maps each table to its CSV.

    A source both sides keep is loaded by `DbEngine.load_table`, which hands
    each window to the table's `_Slice` (its `tee`) before cutting its
    columns; a source only the raw side keeps is sliced alone
    (`_write_slice`). Sliced sources go first, in table order, then the
    db-only ones. A pass that fails leaves neither its slice nor its load
    behind. The slicing time is the whole pass of a sliced-only source and
    `_Slice.add` in a shared one.
    """
    sources = {t: Path(p) for t, p in source_csv.items()}
    raw_side = _split_by_table(plan.raw_attrs, sources)
    db_side = _split_by_table(plan.db_attrs, sources)
    raw_dir = Path(data_dir) / "raw_partition" if data_dir is not None else None
    if raw_dir is not None:
        raw_dir.mkdir(parents=True, exist_ok=True)
    raw_paths: dict[str, str] = {}
    stats: dict[str, LoadStats] = {}
    slice_ms = 0.0
    for table in dict.fromkeys([*raw_side, *db_side]):
        out = raw_dir / f"{table}.csv" if table in raw_side else None
        if table not in db_side:
            start = time.perf_counter()
            _write_slice(sources[table], out, raw_side[table])
            slice_ms += (time.perf_counter() - start) * 1000.0
        elif out is None:
            stats[table] = db_engine.load_table(sources[table], table, journal=journal,
                                                columns=db_side[table])
        else:
            with _Slice(out, raw_side[table]) as raw:
                stats[table] = db_engine.load_table(sources[table], table, journal=journal,
                                                    columns=db_side[table], tee=raw)
            slice_ms += raw.ms
        if out is not None:
            raw_paths[table] = str(out)
    return raw_paths, {table: stats[table] for table in db_side}, slice_ms


def write_raw_slices(plan: PartitionPlan, source_csv, data_dir) -> dict[str, str]:
    """The raw side of `materialize_plan` alone: the slice paths."""
    raw_only = replace(plan, db_attrs=frozenset())
    return materialize_plan(raw_only, source_csv, data_dir, None)[0]


def load_db_side(plan: PartitionPlan, source_csv, db_engine,
                 journal: bool = False) -> dict[str, LoadStats]:
    """The db side of `materialize_plan` alone: the loads' stats."""
    db_only = replace(plan, raw_attrs=frozenset())
    return materialize_plan(db_only, source_csv, None, db_engine, journal)[1]


def _split_by_table(attrs, sources) -> dict[str, list[str]]:
    """Group table-qualified attrs into per-table bare names. Both parts
    must be names a query can produce, since they become file names."""
    out: dict[str, list[str]] = {}
    for attr in sorted(attrs):
        table, dot, bare = attr.partition(".")
        if not (dot and is_name(table) and is_name(bare)):
            raise SchemaError(
                f"plan attribute {attr!r} is not a table-qualified name a query can produce"
            )
        if table not in sources:
            raise SchemaError(f"no source file for table {table!r}")
        out.setdefault(table, []).append(bare)
    return out


class _Slice:
    """A raw slice written window by window during a pass over its source:
    `start` checks the kept names and writes the header, `add` each
    window's rows. The slice keeps the CSV contract: header and fields in
    source column order, field bytes verbatim, LF line ends
    (`tabular.cut_rows`, one gather per block of rows). Leaving the `with`
    block on an error removes the part written."""

    def __init__(self, out: Path, attrs):
        self.out, self.attrs, self.file = out, attrs, None
        self.ms = 0.0  # time spent in `add`

    def start(self, reader: CsvReader) -> None:
        self.keep = reader.indices(self.attrs)
        self.file = open(self.out, "wb")
        self.file.write((",".join(reader.header[i] for i in self.keep) + "\n").encode("utf-8"))

    def add(self, buf: bytes, rowmap) -> None:
        start = time.perf_counter()
        self.file.writelines(cut_rows(buf, rowmap, self.keep))
        self.ms += (time.perf_counter() - start) * 1000.0

    def __enter__(self):
        return self

    def __exit__(self, kind, *exc):
        if self.file is not None:
            self.file.close()
            if kind is not None:
                self.out.unlink()


def _write_slice(source: Path, out: Path, attrs) -> None:
    """Project a CSV onto the named columns in one windowed pass; a file
    outside the contract raises what `scan_csv` raises on it, and leaves
    no slice."""
    with CsvReader(source) as reader, _Slice(out, attrs) as raw:
        raw.start(reader)
        for buf, rowmap, _ in reader:
            raw.add(buf, rowmap)
            del buf, rowmap  # so one window is held while the next is read
