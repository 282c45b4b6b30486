"""Job-level trace container shared by both framework simulators.

A :class:`JobTrace` is everything one workload run leaves behind: the
per-thread segment traces, the interned method/stack tables, stage
metadata, and the machine configuration the trace was priced against.
It is the boundary between the substrates (which produce it) and the
SimProf core (which consumes it only through the JVMTI/perf-style
interfaces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.jvm.machine import MachineConfig
from repro.jvm.methods import MethodRegistry, StackTable
from repro.jvm.threads import ThreadTrace

__all__ = ["StageInfo", "JobTrace"]


@dataclass(frozen=True, slots=True)
class StageInfo:
    """Metadata for one execution stage of the job."""

    stage_id: int
    name: str
    n_tasks: int


@dataclass
class JobTrace:
    """The complete execution record of one workload run."""

    framework: str  # "spark" | "hadoop"
    workload: str
    input_name: str
    registry: MethodRegistry
    stack_table: StackTable
    machine: MachineConfig
    traces: list[ThreadTrace] = field(default_factory=list)
    stages: list[StageInfo] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    # id → trace index, keyed by the trace-list length so appends
    # invalidate it.  thread() sits in per-unit profiler loops, where a
    # linear scan per lookup multiplies out to O(units · threads).
    _thread_index: tuple[int, dict[int, ThreadTrace]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_stream(cls, stream: Any) -> "JobTrace":
        """Materialise a :class:`~repro.jvm.stream.TraceStream`.

        The adapter that keeps every batch caller working: consume the
        whole stream (driving the underlying run if it is live) and
        assemble the classic in-memory trace.  Thread order follows
        ``ThreadStart`` order, which each substrate emits to match its
        batch ``job_trace()``.  Each batch's packed rows are appended to
        its thread's row buffer; no segment objects are built.
        """
        # Local import: repro.jvm.stream imports this module.
        from repro.jvm.stream import JobEnd, SegmentBatch, StageEvent, ThreadStart

        job = cls(
            framework=stream.framework,
            workload=stream.workload,
            input_name=stream.input_name,
            registry=stream.registry,
            stack_table=stream.stack_table,
            machine=stream.machine,
        )
        by_id: dict[int, ThreadTrace] = {}
        for event in stream:
            if isinstance(event, SegmentBatch):
                trace = by_id.get(event.thread_id)
                if trace is None:
                    raise ValueError(
                        f"segment batch for unknown thread {event.thread_id} "
                        "(no ThreadStart seen)"
                    )
                trace.extend(event.data)
            elif isinstance(event, ThreadStart):
                trace = ThreadTrace(
                    thread_id=event.thread_id,
                    core_id=event.core_id,
                    start_cycle=event.start_cycle,
                )
                by_id[event.thread_id] = trace
                job.traces.append(trace)
            elif isinstance(event, StageEvent):
                job.stages.append(event.info)
            elif isinstance(event, JobEnd):
                job.meta.update(event.meta)
        return job

    @property
    def label(self) -> str:
        """Short label, e.g. ``wc_sp`` style ``wordcount_spark``."""
        return f"{self.workload}_{self.framework}"

    @property
    def n_threads(self) -> int:
        """Number of (merged) executor threads in the trace."""
        return len(self.traces)

    @property
    def total_instructions(self) -> int:
        """Instructions across all threads (per-thread totals cached)."""
        return sum(t.total_instructions for t in self.traces)

    @property
    def total_cycles(self) -> int:
        """Cycles across all threads (per-thread totals cached)."""
        return sum(t.total_cycles for t in self.traces)

    def thread(self, thread_id: int = 0) -> ThreadTrace:
        """The trace of one executor thread (SimProf profiles one)."""
        index = self._thread_index
        if index is None or index[0] != len(self.traces):
            by_id: dict[int, ThreadTrace] = {}
            for t in self.traces:
                by_id.setdefault(t.thread_id, t)  # first wins, like the scan
            index = (len(self.traces), by_id)
            self._thread_index = index
        try:
            return index[1][thread_id]
        except KeyError:
            raise KeyError(f"no thread {thread_id} in job trace") from None
