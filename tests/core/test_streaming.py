"""Streaming pipeline: bit-exact parity with the batch path.

The contract the refactor promises: under one configuration and seed,
``analyze_stream`` over a live run produces byte-identical unit
vectors, phase assignments and simulation points to ``analyze`` over
the materialised trace of the same run — on every substrate.  Plus the
O(active-unit) memory guarantee and the online (approximate) mode.
"""

from __future__ import annotations

import tracemalloc
from typing import Iterator

import numpy as np
import pytest

from repro.core.clustering import OnlineKMeans
from repro.core.features import FeatureSpace, UnitFeaturizer
from repro.core.phases import PhaseModel
from repro.core.profiler import ProfilerConfig, SimProfProfiler, StreamingProfiler
from repro.faults import FaultPlan
from repro.jvm.job import JobTrace
from repro.jvm.machine import MachineConfig, OpKind
from repro.jvm.methods import CallStack, MethodRegistry, StackTable
from repro.jvm.stream import (
    JobEnd,
    SegmentBatch,
    ThreadStart,
    TraceStream,
    trace_to_stream,
)
from repro.jvm.threads import TraceSegment
from repro.workloads import run_workload, run_workload_stream
from tests.conftest import TEST_SCALE, TEST_SIMPROF_CONFIG
from tests.helpers import PhaseSpec, busiest_thread, make_synthetic_profile


def _assert_units_identical(batch_profile, stream_profile):
    assert stream_profile.thread_id == batch_profile.thread_id
    assert len(stream_profile.units) == len(batch_profile.units)
    for b, s in zip(batch_profile.units, stream_profile.units):
        assert b.index == s.index
        assert b.instructions == s.instructions  # exact float equality
        assert b.cycles == s.cycles
        assert b.l1d_misses == s.l1d_misses
        assert b.llc_misses == s.llc_misses
        assert np.array_equal(b.stack_ids, s.stack_ids)
        assert np.array_equal(b.stack_counts, s.stack_counts)


def _assert_results_identical(batch, streamed):
    _assert_units_identical(batch.job.profile, streamed.job.profile)
    assert streamed.model.space.method_fqns == batch.model.space.method_fqns
    assert np.array_equal(streamed.model.centers, batch.model.centers)
    assert np.array_equal(streamed.model.assignments, batch.model.assignments)
    assert streamed.model.silhouette_by_k == batch.model.silhouette_by_k
    assert np.array_equal(streamed.points.selected, batch.points.selected)
    assert streamed.points.estimate == batch.points.estimate


class TestAnalyzeStreamParity:
    """analyze_stream == analyze, bit for bit, per substrate."""

    @pytest.mark.parametrize(
        "workload,framework,trace_fixture",
        [
            ("wc", "spark", "wc_spark_trace"),
            ("wc", "hadoop", "wc_hadoop_trace"),
            ("grep", "spark", "grep_spark_trace"),
        ],
    )
    def test_live_substrates(
        self, request, simprof_tool, workload, framework, trace_fixture
    ):
        trace = request.getfixturevalue(trace_fixture)
        batch = simprof_tool.analyze(trace)
        stream = run_workload_stream(
            workload, framework, scale=TEST_SCALE, seed=0
        )
        streamed = simprof_tool.analyze_stream(stream)
        _assert_results_identical(batch, streamed)

    def test_synthetic_replay_substrate(self, wc_spark_trace, simprof_tool):
        """The third substrate: any materialised trace replayed as a stream."""
        batch = simprof_tool.analyze(wc_spark_trace)
        streamed = simprof_tool.analyze_stream(trace_to_stream(wc_spark_trace))
        _assert_results_identical(batch, streamed)

    def test_explicit_thread_parity(self, wc_spark_trace, simprof_tool):
        tid = busiest_thread(wc_spark_trace).thread_id
        batch = simprof_tool.analyze(wc_spark_trace, thread_id=tid)
        streamed = simprof_tool.analyze_stream(
            trace_to_stream(wc_spark_trace), thread_id=tid
        )
        _assert_results_identical(batch, streamed)

    def test_substrate_stream_rebuilds_batch_trace(self, wc_spark_trace):
        """from_stream over a live run equals the batch trace exactly."""
        stream = run_workload_stream("wc", "spark", scale=TEST_SCALE, seed=0)
        rebuilt = JobTrace.from_stream(stream)
        assert rebuilt.n_threads == wc_spark_trace.n_threads
        assert rebuilt.stages == wc_spark_trace.stages
        for orig, copy in zip(wc_spark_trace.traces, rebuilt.traces):
            assert copy.thread_id == orig.thread_id
            assert copy.start_cycle == orig.start_cycle
            assert copy.segments == orig.segments


#: Cluster faults only: with no stream-side faults left, ``--faults``
#: must mean the same run with or without ``--stream``.
_CLUSTER_PLAN = FaultPlan(
    seed=7, task_failure_rate=0.1, straggler_rate=0.1, gc_pause_rate=0.1
)


class TestParityUnderClusterFaults:
    @pytest.mark.parametrize(
        "workload,framework,fires",
        [
            ("wc", "spark", True),
            ("wc", "hadoop", True),
            ("grep", "hadoop", False),  # too few tasks for a fault to fire
            ("sort", "hadoop", True),
        ],
    )
    def test_same_thread_units_and_fault_report(self, workload, framework, fires):
        kwargs = dict(scale=0.01, seed=0, faults=_CLUSTER_PLAN)
        batch = SimProfProfiler().profile(
            run_workload(workload, framework, **kwargs)
        )
        streamed = StreamingProfiler().consume(
            run_workload_stream(workload, framework, **kwargs)
        )
        assert ("fault_report" in batch.meta) == fires
        assert streamed.meta.get("fault_report") == batch.meta.get("fault_report")
        _assert_units_identical(batch.profile, streamed.profile)


class TestEmittedBuffersStayIntact:
    """A producer must not touch a batch's buffer after emitting it.

    Batches travel by reference, so a substrate that reused or refilled
    a drained buffer would silently rewrite batches the consumer still
    holds.  Keeping every batch until ``JobEnd`` and only then comparing
    each thread's concatenation with the batch trace catches that.
    """

    @pytest.mark.parametrize("workload,framework", [("wc", "spark"), ("sort", "hadoop")])
    def test_held_batches_equal_the_batch_trace(self, workload, framework):
        held: dict[int, list[np.ndarray]] = {}
        for event in run_workload_stream(
            workload, framework, scale=TEST_SCALE, seed=0
        ):
            if isinstance(event, ThreadStart):
                held[event.thread_id] = []
            elif isinstance(event, SegmentBatch):
                held[event.thread_id].append(event.data)
        trace = run_workload(workload, framework, scale=TEST_SCALE, seed=0)
        assert list(held) == [t.thread_id for t in trace.traces]
        for t in trace.traces:
            streamed = np.concatenate(held[t.thread_id])
            assert streamed.tobytes() == t.to_structured().tobytes()


# -- streaming error paths (messages match the batch path) --------------------


def _tiny_stream(total_instructions: int) -> TraceStream:
    registry = MethodRegistry()
    table = StackTable(registry)
    sid = table.intern(CallStack((registry.intern("a.B", "c"),)))

    def events() -> Iterator:
        yield ThreadStart(5, 0, 0)
        yield SegmentBatch(
            5,
            (
                TraceSegment(
                    sid, OpKind.MAP, total_instructions,
                    total_instructions, 0, 0
                ),
            ),
        )
        yield JobEnd({})

    return TraceStream(
        framework="spark",
        workload="tiny",
        input_name="default",
        registry=registry,
        stack_table=table,
        machine=MachineConfig(),
        events=events(),
    )


class TestStreamingErrors:
    def test_too_short_thread_matches_batch_message(self):
        cfg = ProfilerConfig(unit_size=1_000_000, snapshot_period=1_000)
        with pytest.raises(ValueError, match="fewer than one sampling unit"):
            StreamingProfiler(cfg).consume(_tiny_stream(999))

    def test_unknown_thread_id_matches_batch_message(self):
        cfg = ProfilerConfig(
            unit_size=1_000, snapshot_period=100, thread_id=99
        )
        with pytest.raises(KeyError, match="no thread 99 in job trace"):
            StreamingProfiler(cfg).consume(_tiny_stream(10_000))

    def test_orphan_segment_batch_rejected(self):
        stream = _tiny_stream(10_000)

        def events() -> Iterator:
            yield SegmentBatch(3, ())

        stream.events = events()
        cfg = ProfilerConfig(unit_size=1_000, snapshot_period=100)
        with pytest.raises(ValueError, match="unknown thread 3"):
            StreamingProfiler(cfg).consume(stream)


# -- memory guard -------------------------------------------------------------


def _lazy_stream(n_units: int, unit_size: int = 200_000) -> TraceStream:
    """A synthetic stream whose segments materialise only when consumed."""
    registry = MethodRegistry()
    table = StackTable(registry)
    root = registry.intern("synthetic.Worker", "run")
    sids = [
        table.intern(CallStack((root, registry.intern("synthetic.Worker", n))))
        for n in ("scan", "hash", "merge")
    ]
    seg_insts = 2_000
    n_segments = n_units * (unit_size // seg_insts)

    def events() -> Iterator:
        yield ThreadStart(1, 0, 0)
        for i in range(n_segments):
            yield SegmentBatch(
                1,
                (
                    TraceSegment(
                        sids[i % 3], OpKind.MAP, seg_insts,
                        seg_insts * (60 + i % 5) // 100, 8, 1
                    ),
                ),
            )
        yield JobEnd({})

    return TraceStream(
        framework="synthetic",
        workload="synth",
        input_name="default",
        registry=registry,
        stack_table=table,
        machine=MachineConfig(),
        events=events(),
    )


class TestStreamingMemory:
    def test_peak_independent_of_stream_length(self):
        """O(active-unit): a 10x longer stream must not move the peak."""
        cfg = ProfilerConfig(
            unit_size=200_000, snapshot_period=10_000, seed=0
        )

        def peak_of(n_units: int) -> int:
            profiler = StreamingProfiler(cfg)
            tracemalloc.start()
            count = sum(1 for _ in profiler.units(_lazy_stream(n_units)))
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert count == n_units
            return peak

        short = peak_of(5)
        long = peak_of(50)
        assert long < 2 * short


# -- online mode (approximate, documented as non-bit-identical) ---------------


class TestOnlineKMeans:
    def test_warms_up_then_labels(self):
        rng = np.random.default_rng(0)
        okm = OnlineKMeans(2, seed=0, init_size=8)
        rows = np.vstack(
            [rng.normal(0, 0.05, (20, 3)), rng.normal(1, 0.05, (20, 3))]
        )
        rng.shuffle(rows)
        labels = [okm.learn_one(x) for x in rows]
        assert labels[:7] == [None] * 7  # buffering
        assert okm.ready
        init_labels = okm.take_init_labels()
        assert init_labels is not None and len(init_labels) == 8
        assert okm.take_init_labels() is None  # handed out once
        assert all(lb in (0, 1) for lb in labels[8:])
        # The two blobs must separate.
        pred = okm.predict(np.array([[0.0] * 3, [1.0] * 3]))
        assert pred[0] != pred[1]

    def test_centers_before_data_raises(self):
        with pytest.raises(ValueError, match="no data"):
            _ = OnlineKMeans(3).centers

    def test_caps_k_at_row_count(self):
        okm = OnlineKMeans(5, init_size=4)
        okm.partial_fit(np.eye(3))
        assert len(okm.centers) == 3

    def test_fit_stream_builds_valid_model(self):
        job = make_synthetic_profile(
            [
                PhaseSpec(30, 0.6, 0.02, 0),
                PhaseSpec(30, 1.2, 0.02, 1),
            ],
            seed=0,
        )
        space, X = FeatureSpace.fit(job, top_k=50)
        model = PhaseModel.fit_stream(space, iter(X), k=2, seed=0)
        assert model.k >= 1
        assert len(model.assignments) == len(X)
        assert model.centers.shape[1] == X.shape[1]
        # Phase structure this crisp must be recovered even online.
        cpi = job.profile.cpi()
        means = [cpi[model.assignments == p].mean() for p in range(model.k)]
        assert max(means) - min(means) > 0.3


class TestLiveClassification:
    def test_classify_stream_matches_batch_assignments(
        self, wc_spark_trace, wc_spark_profile, wc_spark_model, simprof_tool
    ):
        tid = wc_spark_profile.profile.thread_id
        live = [
            phase
            for _tid, _unit, phase in simprof_tool.classify_stream(
                wc_spark_model,
                trace_to_stream(wc_spark_trace),
                thread_id=tid,
            )
        ]
        assert np.array_equal(live, wc_spark_model.assignments)

    def test_unit_featurizer_matches_project_job(
        self, wc_spark_profile, wc_spark_model
    ):
        space = wc_spark_model.space
        X = space.project_job(wc_spark_profile)
        featurizer = UnitFeaturizer(
            space, wc_spark_profile.registry, wc_spark_profile.stack_table
        )
        for i, unit in enumerate(wc_spark_profile.profile.units):
            assert np.array_equal(featurizer.row(unit), X[i])


class TestStreamingInstrumentation:
    def test_profile_stream_records_throughput(self, wc_spark_trace):
        from repro.core.pipeline import SimProf
        from repro.runtime.instrument import get_instrumentation

        tool = SimProf(TEST_SIMPROF_CONFIG)
        with get_instrumentation().capture() as delta:
            job = tool.profile_stream(trace_to_stream(wc_spark_trace))
        stage = delta["stream-profiling"]
        assert stage.calls == 1
        # The meter ticks for every emitted unit of every thread; the
        # profile keeps only the selected thread's units.
        assert stage.counters["units"] >= job.n_units
        assert stage.counters["unit_seconds"] > 0.0

    def test_throughput_meter_accumulates(self):
        from repro.runtime.instrument import StageRecord, ThroughputMeter

        rec = StageRecord()
        meter = ThroughputMeter(rec)
        for _ in range(5):
            meter.tick()
        assert meter.items == 5
        assert rec.counters["units"] == 5
        assert rec.counters["unit_seconds"] >= 0.0
        assert meter.items_per_second >= 0.0


class TestCliStreaming:
    def test_profile_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["profile", "wc_sp", "--stream"])
        assert args.stream is True
        assert args.points == 20
        assert args.unit_size == 100_000_000
        args = build_parser().parse_args(["profile", "wc_sp"])
        assert args.stream is False
