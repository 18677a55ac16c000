"""Desk-scale workbench for raw-data query processing.

Two engines over the same data and query subset -- in-situ over CSV and
load-then-query columnar -- plus a per-task resource monitor, tool-output
parsers, derived-metric analysis, and a partition advisor that routes
queries between the engines.
"""

from .advisor import (
    CapacityCheck,
    PartitionPlan,
    qca_partition,
    raw_capacity_check,
    route_query,
    rua_partition,
)
from .analyzer import (
    ResourceProfile,
    SystemSpec,
    aggregate_profiles,
    io_amplification,
    profiles_from_exec_stats,
    wet,
)
from .cache import ColumnCache
from .datagen import generate_csv
from .db_engine import DbEngine, TableStore
from .errors import (
    BudgetExceededError,
    ConfigError,
    DomainError,
    FormatError,
    JoinGuardError,
    LoadError,
    MonitorError,
    NotLoadedError,
    ParseError,
    SchemaError,
    UncoveredQueryError,
    WorkbenchError,
)
from .monitor import (
    FlushReport,
    MonitorConfig,
    Sample,
    SampleColumns,
    TaskRegister,
    run_scripted,
    start_monitor,
)
from .query_model import (
    CopyOp,
    QueryAst,
    QueryClass,
    TruncateOp,
    WorkloadTask,
    classify,
    parse_query,
    parse_workload,
    render,
)
from .raw_engine import RawEngine
from .stat_sources import (
    ProcfsSource,
    SyntheticSource,
    parse_iotop_block,
    parse_top_block,
    replay_script,
)
from .tabular import Column, ExecStats, LoadStats, ResultSet

__all__ = [
    "BudgetExceededError",
    "CapacityCheck",
    "Column",
    "ColumnCache",
    "ConfigError",
    "CopyOp",
    "DbEngine",
    "DomainError",
    "ExecStats",
    "FlushReport",
    "FormatError",
    "JoinGuardError",
    "LoadError",
    "LoadStats",
    "MonitorConfig",
    "MonitorError",
    "NotLoadedError",
    "ParseError",
    "PartitionPlan",
    "ProcfsSource",
    "QueryAst",
    "QueryClass",
    "RawEngine",
    "ResourceProfile",
    "ResultSet",
    "Sample",
    "SampleColumns",
    "SchemaError",
    "SyntheticSource",
    "SystemSpec",
    "TableStore",
    "TaskRegister",
    "TruncateOp",
    "UncoveredQueryError",
    "WorkbenchError",
    "WorkloadTask",
    "aggregate_profiles",
    "classify",
    "generate_csv",
    "io_amplification",
    "parse_iotop_block",
    "parse_query",
    "parse_top_block",
    "parse_workload",
    "profiles_from_exec_stats",
    "qca_partition",
    "raw_capacity_check",
    "render",
    "replay_script",
    "route_query",
    "rua_partition",
    "run_scripted",
    "start_monitor",
    "wet",
]

__version__ = "0.1.0"
