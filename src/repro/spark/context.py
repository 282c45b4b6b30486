"""SparkContext: the entry point tying the simulator together.

A context owns the shared substrate objects — method registry, stack
table, hardware model, simulated HDFS, shuffle store — plus the executor
pool and the DAG scheduler.  After running one or more jobs, the
accumulated executor traces are packaged into a
:class:`~repro.jvm.job.JobTrace` for SimProf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.faults.inject import ClusterFaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultReport
from repro.hdfs.filesystem import SimulatedHDFS
from repro.jvm.job import JobTrace, StageInfo
from repro.jvm.stream import (
    JobEnd,
    SegmentBatch,
    StageEvent,
    ThreadStart,
    TraceEvent,
    TraceStream,
    pump_events,
)
from repro.jvm.machine import HardwareModel, MachineConfig
from repro.jvm.methods import MethodRegistry, StackTable
from repro.spark.blockstore import BlockStore
from repro.spark.executor import Executor
from repro.spark.rdd import HadoopRDD, ParallelCollectionRDD, RDD
from repro.spark.scheduler import DAGScheduler
from repro.spark.shuffle import ShuffleManager
from repro.spark.stacks import SparkFrames

__all__ = ["SparkConfig", "SparkContext"]


@dataclass(frozen=True, slots=True)
class SparkConfig:
    """Simulator knobs.

    ``n_executors`` defaults to the testbed's 8 hardware threads.
    Per-byte IO instruction costs model deserialisation + copy overhead
    of the respective path; ``max_segment_inst`` bounds trace-segment
    size so segments stay well below the profiler's snapshot period.
    """

    n_executors: int = 8
    default_parallelism: int = 8
    seed: int = 0
    machine: MachineConfig = field(default_factory=MachineConfig)
    io_read_inst_per_byte: float = 250.0
    io_write_inst_per_byte: float = 300.0
    shuffle_inst_per_byte: float = 300.0
    format_inst_per_record: float = 90_000.0
    gc_threshold_bytes: float = 48e6
    gc_inst: float = 2.5e6
    max_segment_inst: float = 4e6
    # Memory-store (RDD.cache) path costs: far cheaper than recompute
    # or disk, but not free (deserialisation-free iteration + copy).
    cache_read_inst_per_byte: float = 3.0
    cache_write_inst_per_byte: float = 6.0

    def __post_init__(self) -> None:
        if self.n_executors <= 0:
            raise ValueError("need at least one executor")
        if self.default_parallelism <= 0:
            raise ValueError("default_parallelism must be positive")


class SparkContext:
    """Driver-side handle: create RDDs, run jobs, export the trace."""

    def __init__(
        self,
        config: SparkConfig | None = None,
        fs: SimulatedHDFS | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.config = config or SparkConfig()
        self.fs = fs or SimulatedHDFS()
        # Null plans stay None so the fault-free path is untouched.
        self.faults: ClusterFaultInjector | None = None
        if faults is not None and faults.cluster_active:
            self.faults = ClusterFaultInjector(faults, "spark")
        self.registry = MethodRegistry()
        self.stack_table = StackTable(self.registry)
        self.frames = SparkFrames(self.registry)
        self.hardware = HardwareModel(self.config.machine)
        self.shuffle = ShuffleManager()
        self.block_store = BlockStore()
        self.scheduler = DAGScheduler(self)
        self._stages: list[StageInfo] = []
        self._rdd_counter = 0
        self._shuffle_counter = 0
        self._silent_counter = 0
        # Streaming mode: when set, the scheduler flushes executor
        # segments through this callback instead of accumulating them.
        self._stream_emit: Callable[[TraceEvent], None] | None = None

        seeds = np.random.SeedSequence(self.config.seed).spawn(
            self.config.n_executors
        )
        machine = self.config.machine
        self.executors: list[Executor] = [
            Executor(
                self,
                thread_id=i,
                core_id=(i % machine.cores),
                rng=np.random.default_rng(seeds[i]),
            )
            for i in range(self.config.n_executors)
        ]

    # -- id allocation (used by RDD constructors) ---------------------------

    def _next_rdd_id(self) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    def _next_shuffle_id(self) -> int:
        self._shuffle_counter += 1
        return self._shuffle_counter

    def record_stage(self, info: StageInfo) -> None:
        """Log stage metadata for the job trace."""
        self._stages.append(info)
        if self._stream_emit is not None:
            self._stream_emit(StageEvent(info))

    def make_silent_executor(self) -> Executor:
        """An executor that computes without tracing (sampling passes)."""
        self._silent_counter += 1
        ex = Executor(
            self,
            thread_id=-self._silent_counter,
            core_id=0,
            rng=np.random.default_rng(self.config.seed + 7_777 + self._silent_counter),
        )
        ex.silent = True
        return ex

    # -- RDD creation ---------------------------------------------------------

    def text_file(self, path: str) -> HadoopRDD:
        """RDD over a simulated-HDFS file, one partition per block."""
        return HadoopRDD(self, path)

    def parallelize(self, data: list[Any], n_partitions: int | None = None) -> RDD:
        """RDD over a driver-side collection."""
        n = (
            self.config.default_parallelism
            if n_partitions is None
            else n_partitions
        )
        return ParallelCollectionRDD(self, list(data), n)

    # -- trace export -----------------------------------------------------------

    def _trace_meta(self) -> dict[str, Any]:
        """Job-level metadata shared by the batch and streaming exports."""
        meta = {
            "n_executors": self.config.n_executors,
            "hdfs_bytes_read": self.fs.bytes_read,
            "hdfs_bytes_written": self.fs.bytes_written,
            "shuffle_bytes": self.shuffle.bytes_written,
        }
        if self.faults is not None:
            FaultReport.merged_meta(meta, self.faults.report)
        return meta

    def job_trace(self, workload: str, input_name: str = "default") -> JobTrace:
        """Package everything the executors recorded into a JobTrace."""
        return JobTrace(
            framework="spark",
            workload=workload,
            input_name=input_name,
            registry=self.registry,
            stack_table=self.stack_table,
            machine=self.config.machine,
            traces=[ex.builder.trace for ex in self.executors],
            stages=list(self._stages),
            meta=self._trace_meta(),
        )

    def stop(self) -> None:
        """Release the executors and the scheduler (``sc.stop()``).

        Both point back at the context, so until this breaks the cycles
        a finished job (its trace segments, its input and shuffle
        data) lives on until the garbage collector's next full pass.
        Call it once the trace is exported; the context runs nothing
        after.
        """
        self.executors = []
        self.scheduler = None

    def flush_trace_events(self) -> None:
        """Ship segments accumulated since the last flush (streaming).

        No-op outside streaming mode.  The scheduler calls this after
        every task, so executor builders never hold more than one task's
        segments — the substrate-side half of the O(active-unit) memory
        bound.
        """
        emit = self._stream_emit
        if emit is None:
            return
        for ex in self.executors:
            trace = ex.builder.trace
            if len(trace):
                # Pack-and-clear in one step: the batch goes out as a
                # columnar array, no per-segment objects cross the wire.
                emit(SegmentBatch(trace.thread_id, trace.drain_structured()))

    def stream_trace(
        self,
        run: Callable[[], None],
        workload: str,
        input_name: str = "default",
        *,
        max_queue: int = 256,
    ) -> TraceStream:
        """Run ``run()`` while streaming its trace as events.

        The workload executes on a worker thread as the returned stream
        is consumed; segments are dropped after emission, so a
        subsequent :meth:`job_trace` sees empty traces.  Thread and
        stage event order matches the batch export, so
        ``JobTrace.from_stream`` reproduces :meth:`job_trace` exactly.
        """
        if self._stream_emit is not None:
            raise RuntimeError("a trace stream is already active on this context")

        def produce(emit: Callable[[TraceEvent], None]) -> None:
            self._stream_emit = emit
            try:
                for ex in self.executors:
                    t = ex.builder.trace
                    emit(ThreadStart(t.thread_id, t.core_id, t.start_cycle))
                run()
                self.flush_trace_events()
                emit(JobEnd(self._trace_meta()))
            finally:
                self._stream_emit = None

        return TraceStream(
            framework="spark",
            workload=workload,
            input_name=input_name,
            registry=self.registry,
            stack_table=self.stack_table,
            machine=self.config.machine,
            events=pump_events(produce, max_queue=max_queue),
        )
