"""Workload abstraction.

A workload (Table I row) knows how to synthesise its input, run on the
Spark simulator, and run on the Hadoop simulator.  ``scale`` multiplies
the default input volume: 1.0 is calibrated so the profiled executor
thread retires a few hundred 100 M-instruction sampling units (the same
order as the paper's setup) while a run completes offline in seconds.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.datagen.seeds import GraphInput
from repro.jvm.job import JobTrace

if TYPE_CHECKING:
    from repro.hadoop.runtime import HadoopCluster
    from repro.spark.context import SparkContext

__all__ = ["WorkloadInput", "Workload"]


@dataclass(frozen=True, slots=True)
class WorkloadInput:
    """Input selector for a workload run.

    ``scale`` stretches/shrinks the default volume; ``graph`` picks a
    Table II input for the graph workloads (defaults to the training
    input); ``seed`` drives the data synthesiser.
    """

    name: str = "default"
    scale: float = 1.0
    seed: int = 0
    graph: GraphInput | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")


class Workload(abc.ABC):
    """One benchmark: input synthesis + a Spark and a Hadoop dataflow."""

    #: full name, e.g. ``"wordcount"``
    name: str = ""
    #: paper abbreviation, e.g. ``"wc"``
    abbrev: str = ""
    #: Table I type column
    workload_type: str = ""
    #: Table I input-size column (the paper's full-scale input)
    paper_input: str = ""
    #: whether this workload consumes a Table II graph input
    is_graph: bool = False
    #: per-workload calibration of ``MachineConfig.instruction_scale``:
    #: chosen so the profiled executor thread of a scale-1.0 run retires
    #: on the order of a thousand 100 M-instruction sampling units (the
    #: job must span far more than the 10-second SECOND baseline window)
    spark_inst_scale: float = 1.0
    hadoop_inst_scale: float = 1.0
    #: per-workload overrides of SparkConfig / HadoopClusterConfig
    #: fields (e.g. an IO-bound workload raising the per-byte IO cost)
    spark_config_overrides: dict[str, Any] = {}
    hadoop_config_overrides: dict[str, Any] = {}
    #: per-workload overrides of HadoopJobConf cost fields, applied by
    #: the workload's own run_hadoop via ``self.hadoop_job_overrides``
    hadoop_job_overrides: dict[str, Any] = {}

    @abc.abstractmethod
    def prepare_input(self, fs: Any, inp: WorkloadInput) -> dict[str, Any]:
        """Synthesise the input onto ``fs``; returns input metadata."""

    @abc.abstractmethod
    def run_spark(self, ctx: SparkContext, meta: dict[str, Any]) -> None:
        """Execute the Spark dataflow (jobs run eagerly on actions)."""

    @abc.abstractmethod
    def run_hadoop(self, cluster: HadoopCluster, meta: dict[str, Any]) -> None:
        """Execute the Hadoop job chain."""

    # -- common entry point -------------------------------------------------

    def _spark_config(self, inp: WorkloadInput, spark_config: Any) -> Any:
        """The Spark config for a run (default: calibrated per workload)."""
        if spark_config is not None:
            return spark_config
        from dataclasses import replace

        from repro.jvm.machine import MachineConfig
        from repro.spark.context import SparkConfig

        machine = replace(MachineConfig(), instruction_scale=self.spark_inst_scale)
        return SparkConfig(
            seed=inp.seed, machine=machine, **self.spark_config_overrides
        )

    def _hadoop_config(self, inp: WorkloadInput, hadoop_config: Any) -> Any:
        """The Hadoop config for a run (default: calibrated per workload)."""
        if hadoop_config is not None:
            return hadoop_config
        from dataclasses import replace

        from repro.hadoop.runtime import HadoopClusterConfig
        from repro.jvm.machine import MachineConfig

        machine = replace(MachineConfig(), instruction_scale=self.hadoop_inst_scale)
        return HadoopClusterConfig(
            seed=inp.seed, machine=machine, **self.hadoop_config_overrides
        )

    def execute(
        self,
        framework: str,
        inp: WorkloadInput,
        *,
        spark_config: Any = None,
        hadoop_config: Any = None,
        faults: Any = None,
    ) -> JobTrace:
        """Run on the chosen framework and return the job trace.

        ``faults`` takes a :class:`~repro.faults.plan.FaultPlan`; the
        substrate injects its cluster faults (task failures, stragglers,
        GC pauses) deterministically.  ``None`` or a null plan leaves
        the run byte-identical to before.
        """
        from repro.hadoop.runtime import HadoopCluster
        from repro.spark.context import SparkContext

        if framework == "spark":
            ctx = SparkContext(self._spark_config(inp, spark_config), faults=faults)
            meta = self.prepare_input(ctx.fs, inp)
            self.run_spark(ctx, meta)
            trace = ctx.job_trace(self.name, input_name=inp.name)
            ctx.stop()
            return trace
        if framework == "hadoop":
            cluster = HadoopCluster(
                self._hadoop_config(inp, hadoop_config), faults=faults
            )
            meta = self.prepare_input(cluster.fs, inp)
            self.run_hadoop(cluster, meta)
            return cluster.job_trace(self.name, input_name=inp.name)
        raise ValueError(f"unknown framework {framework!r} (spark|hadoop)")

    def execute_stream(
        self,
        framework: str,
        inp: WorkloadInput,
        *,
        spark_config: Any = None,
        hadoop_config: Any = None,
        faults: Any = None,
    ) -> Any:
        """Run on the chosen framework, streaming the trace live.

        Returns a :class:`~repro.jvm.stream.TraceStream` whose events
        are produced while the workload executes on a worker thread —
        consuming the stream drives the run.  Segments are dropped
        after emission, so the substrate's ``job_trace()`` is empty
        afterwards; materialise with
        :meth:`~repro.jvm.job.JobTrace.from_stream` when the full trace
        is needed.

        ``faults`` takes a :class:`~repro.faults.plan.FaultPlan`, whose
        cluster faults the substrate injects exactly as :meth:`execute`
        does, so a streamed run records the same trace and fault report
        as a batch one.
        """
        from repro.hadoop.runtime import HadoopCluster
        from repro.spark.context import SparkContext

        if framework == "spark":
            ctx = SparkContext(self._spark_config(inp, spark_config), faults=faults)
            meta = self.prepare_input(ctx.fs, inp)
            return ctx.stream_trace(
                lambda: self.run_spark(ctx, meta), self.name, input_name=inp.name
            )
        if framework == "hadoop":
            cluster = HadoopCluster(
                self._hadoop_config(inp, hadoop_config), faults=faults
            )
            meta = self.prepare_input(cluster.fs, inp)
            return cluster.stream_trace(
                lambda: self.run_hadoop(cluster, meta),
                self.name,
                input_name=inp.name,
            )
        raise ValueError(f"unknown framework {framework!r} (spark|hadoop)")
