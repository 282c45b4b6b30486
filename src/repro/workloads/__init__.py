"""Table I workloads: six benchmarks, each on Spark and Hadoop."""

from repro.workloads.base import Workload, WorkloadInput
from repro.workloads.registry import (
    WORKLOADS,
    all_labels,
    get_workload,
    label_of,
    run_workload,
    run_workload_stream,
)

__all__ = [
    "WORKLOADS",
    "Workload",
    "WorkloadInput",
    "all_labels",
    "get_workload",
    "label_of",
    "run_workload",
    "run_workload_stream",
]
