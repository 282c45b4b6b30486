"""Workload registry (Table I) and the one-call runner."""

from __future__ import annotations

from typing import Any

from repro.jvm.job import JobTrace
from repro.workloads.base import Workload, WorkloadInput
from repro.workloads.bayes import NaiveBayes
from repro.workloads.connected_components import ConnectedComponents
from repro.workloads.grep import Grep
from repro.workloads.pagerank import PageRank
from repro.workloads.sort import Sort
from repro.workloads.wordcount import WordCount

__all__ = [
    "WORKLOADS",
    "get_workload",
    "label_of",
    "all_labels",
    "run_workload",
    "run_workload_stream",
]

#: Table I, keyed by abbreviation.
WORKLOADS: dict[str, type[Workload]] = {
    cls.abbrev: cls
    for cls in (Sort, WordCount, Grep, NaiveBayes, ConnectedComponents, PageRank)
}

_FRAMEWORK_SUFFIX = {"hadoop": "hp", "spark": "sp"}


def get_workload(name: str) -> Workload:
    """Instantiate a workload by abbreviation or full name."""
    key = name.lower()
    if key in WORKLOADS:
        return WORKLOADS[key]()
    for cls in WORKLOADS.values():
        if cls.name == key:
            return cls()
    raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOADS)}")


def label_of(workload: str, framework: str) -> str:
    """Paper-style label, e.g. ``wc_hp`` / ``cc_sp``."""
    w = get_workload(workload)
    return f"{w.abbrev}_{_FRAMEWORK_SUFFIX[framework]}"


def all_labels() -> list[str]:
    """The twelve evaluated configurations, Hadoop first (as in Fig. 7)."""
    out = []
    for fw in ("hadoop", "spark"):
        for abbrev in WORKLOADS:
            out.append(f"{abbrev}_{_FRAMEWORK_SUFFIX[fw]}")
    return out


def run_workload(
    name: str,
    framework: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    input_name: str = "default",
    graph: Any = None,
    params: dict[str, Any] | None = None,
    spark_config: Any = None,
    hadoop_config: Any = None,
    faults: Any = None,
) -> JobTrace:
    """Synthesise the input, run the workload, return the job trace.

    Parameters
    ----------
    name:
        Workload abbreviation or full name (Table I).
    framework:
        ``"spark"`` or ``"hadoop"``.
    scale:
        Input volume multiplier (1.0 = calibrated default).
    seed:
        Drives input synthesis and all simulator randomness.
    graph:
        Optional :class:`~repro.datagen.seeds.GraphInput` for the graph
        workloads (defaults to the Table II training input).
    params:
        Workload-specific input knobs (e.g. ``zipf_s`` for text).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`; cluster faults
        are injected deterministically, recoveries leave the job
        results unchanged, and ``meta["fault_report"]`` records what
        happened.
    """
    workload = get_workload(name)
    inp = WorkloadInput(
        name=input_name,
        scale=scale,
        seed=seed,
        graph=graph,
        params=params or {},
    )
    return workload.execute(
        framework,
        inp,
        spark_config=spark_config,
        hadoop_config=hadoop_config,
        faults=faults,
    )


def run_workload_stream(
    name: str,
    framework: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    input_name: str = "default",
    graph: Any = None,
    params: dict[str, Any] | None = None,
    spark_config: Any = None,
    hadoop_config: Any = None,
    faults: Any = None,
) -> Any:
    """Streaming twin of :func:`run_workload`.

    Same parameters, but the run executes lazily: the returned
    :class:`~repro.jvm.stream.TraceStream` produces trace events while
    the workload runs on a worker thread, and segments are not retained
    after emission.  Feed it to ``SimProf.analyze_stream`` (bit-identical
    to the batch path under the same seed) or materialise it with
    ``JobTrace.from_stream``.  A :class:`~repro.faults.plan.FaultPlan`
    in ``faults`` injects the same cluster faults as in
    :func:`run_workload`.
    """
    workload = get_workload(name)
    inp = WorkloadInput(
        name=input_name,
        scale=scale,
        seed=seed,
        graph=graph,
        params=params or {},
    )
    return workload.execute_stream(
        framework,
        inp,
        spark_config=spark_config,
        hadoop_config=hadoop_config,
        faults=faults,
    )
