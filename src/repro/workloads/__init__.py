"""Workload generators reproducing the paper's benchmark access patterns."""

from repro.workloads.filebench import (
    APPEND_SYNC,
    CREATE_DIRECTORY,
    CREATE_FILE,
    DELETE_FILE,
    LOG_APPEND,
    READ_FILE,
    RENAME_FILE,
    MetadataOp,
    OpStream,
    repeated_ops,
    varmail_ops,
    webserver_ops,
    workload_by_name,
)
from repro.workloads.graphs import CSRGraph, connected_pairs_graph, power_law_graph
from repro.workloads.gups import GUPSResult, run_gups
from repro.workloads.oltp import (
    TATP,
    TPCB,
    TPCC,
    Transaction,
    TransactionSpec,
    generate_transactions,
)
from repro.engine import TraceRecorder
from repro.workloads.synthetic import (
    random_access,
    sequential_access,
    synthetic_trace,
    warm_up,
)
from repro.workloads.ycsb import (
    RECORD_SIZE,
    YCSB_A,
    YCSB_B,
    YCSB_C,
    YCSB_D,
    OpType,
    YCSBWorkload,
    generate_ops,
)
from repro.workloads.zipfian import LatestGenerator, ZipfianGenerator

__all__ = [
    "sequential_access",
    "random_access",
    "warm_up",
    "run_gups",
    "GUPSResult",
    "ZipfianGenerator",
    "LatestGenerator",
    "CSRGraph",
    "power_law_graph",
    "connected_pairs_graph",
    "MetadataOp",
    "OpStream",
    "CREATE_FILE",
    "RENAME_FILE",
    "CREATE_DIRECTORY",
    "DELETE_FILE",
    "APPEND_SYNC",
    "READ_FILE",
    "LOG_APPEND",
    "repeated_ops",
    "varmail_ops",
    "webserver_ops",
    "workload_by_name",
    "TPCC",
    "TPCB",
    "TATP",
    "Transaction",
    "TransactionSpec",
    "generate_transactions",
    "OpType",
    "YCSBWorkload",
    "YCSB_A",
    "YCSB_B",
    "YCSB_C",
    "YCSB_D",
    "RECORD_SIZE",
    "generate_ops",
    "TraceRecorder",
    "synthetic_trace",
]
