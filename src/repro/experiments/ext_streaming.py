"""Extension experiment: the streaming pipeline vs the batch pipeline.

The streaming refactor claims three things: (1) ``analyze_stream`` is
*bit-identical* to ``analyze`` under the same seed while the trace is
consumed live, (2) it does so with a smaller peak footprint because the
job trace is never materialised, and (3) the online mode can classify
units against an existing phase model while the job is still running.
This driver measures all three on one benchmark and renders the
evidence as a table for the report.  The table prints only what two
runs agree on: the measured peaks and throughput stay fields of the
result, and the table says only whether the streaming peak is below
the batch one.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import SimProf
from repro.experiments.common import ExperimentConfig, format_table
from repro.hdfs import SimulatedHDFS
from repro.runtime.instrument import get_instrumentation
from repro.workloads import (
    WorkloadInput,
    get_workload,
    run_workload,
    run_workload_stream,
)

__all__ = ["StreamingComparisonResult", "run_streaming_comparison"]


@dataclass
class StreamingComparisonResult:
    """Batch-vs-streaming evidence for one benchmark."""

    label: str
    n_units: int
    n_phases: int
    batch_peak_kb: float
    stream_peak_kb: float
    identical_points: bool
    identical_assignments: bool
    live_agreement: float
    units_per_second: float

    def to_text(self) -> str:
        """Render the comparison table (deterministic rows only)."""
        rows = [
            ("units profiled", self.n_units),
            ("phases formed", self.n_phases),
            ("streaming peak below batch peak",
             "yes" if self.stream_peak_kb < self.batch_peak_kb else "NO"),
            ("simulation points identical",
             "yes" if self.identical_points else "NO"),
            ("phase assignments identical",
             "yes" if self.identical_assignments else "NO"),
            ("live classification agreement", f"{self.live_agreement:.1%}"),
        ]
        return format_table(
            ["measure", "value"],
            rows,
            title=f"Extension: streaming pipeline ({self.label})",
        )


def run_streaming_comparison(
    cfg: ExperimentConfig | None = None,
    *,
    workload: str = "wc",
    framework: str = "spark",
    n_points: int = 20,
) -> StreamingComparisonResult:
    """Run one benchmark through both pipelines and compare.

    The batch side materialises the trace and analyzes it; the streaming
    side re-runs the identical workload as a live :class:`TraceStream`.
    Peak memory is ``tracemalloc``'s high-water mark over run+analysis,
    so the batch number includes the materialised :class:`JobTrace` the
    streaming path never allocates.  A text input is synthesised once,
    before either window, and the text memo serves it to both runs:
    at small scales its synthesis outweighs the trace, and whether an
    earlier stage of the process had already built it would otherwise
    decide which peak is larger.
    """
    cfg = cfg or ExperimentConfig()
    tool: SimProf = cfg.simprof_tool()
    run_kwargs = dict(scale=cfg.scale, seed=cfg.seed)

    get_workload(workload).prepare_input(SimulatedHDFS(), WorkloadInput(**run_kwargs))
    tracemalloc.start()
    trace = run_workload(workload, framework, **run_kwargs)
    batch = tool.analyze(trace, n_points=n_points)
    _, batch_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del trace

    tracemalloc.start()
    with get_instrumentation().capture() as delta:
        stream = run_workload_stream(workload, framework, **run_kwargs)
        streamed = tool.analyze_stream(stream, n_points=n_points)
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    stage = delta.get("stream-profiling")
    units_per_second = 0.0
    if stage is not None:
        secs = stage.counters.get("unit_seconds", 0.0)
        if secs > 0:
            units_per_second = stage.counters.get("units", 0.0) / secs

    # Live mode: classify the training thread's units against the batch
    # model while a fresh run streams, and score agreement with the
    # batch assignments (exact classification of identical units).
    thread_id = batch.job.profile.thread_id
    live_stream = run_workload_stream(workload, framework, **run_kwargs)
    live_phases = [
        phase
        for _tid, _unit, phase in tool.classify_stream(
            batch.model, live_stream, thread_id=thread_id
        )
    ]
    batch_assignments = np.asarray(batch.model.assignments)
    agreement = (
        float(np.mean(np.asarray(live_phases) == batch_assignments))
        if len(live_phases) == len(batch_assignments) else 0.0
    )

    suffix = "sp" if framework == "spark" else "hp"
    return StreamingComparisonResult(
        label=f"{workload}_{suffix}",
        n_units=batch.job.n_units,
        n_phases=batch.model.k,
        batch_peak_kb=batch_peak / 1024.0,
        stream_peak_kb=stream_peak / 1024.0,
        identical_points=bool(
            np.array_equal(batch.points.selected, streamed.points.selected)
        ),
        identical_assignments=bool(
            np.array_equal(batch.model.assignments, streamed.model.assignments)
        ),
        live_agreement=agreement,
        units_per_second=units_per_second,
    )
