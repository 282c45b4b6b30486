"""TraceStream protocol: replay adapter, event pumping, trace caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.jvm.job import JobTrace, StageInfo
from repro.jvm.machine import MachineConfig, OpKind
from repro.jvm.segments import SEGMENT_DTYPE
from repro.jvm.stream import (
    JobEnd,
    SegmentBatch,
    StageEvent,
    StreamClosed,
    ThreadStart,
    pump_events,
    trace_to_stream,
)
from repro.jvm.threads import ThreadTrace, TraceSegment
from tests.helpers import make_registry_with_stacks, make_trace


def _small_job(n_threads: int = 2, n_segments: int = 10) -> JobTrace:
    registry, table, stacks = make_registry_with_stacks(n_stacks=3)
    job = JobTrace(
        framework="spark",
        workload="synthetic",
        input_name="default",
        registry=registry,
        stack_table=table,
        machine=MachineConfig(),
        stages=[StageInfo(0, "map", 4), StageInfo(1, "reduce", 2)],
        meta={"elapsed": 1.5},
    )
    for tid in range(n_threads):
        segments = [
            (stacks[i % len(stacks)], 1000 + 10 * i, 0.6 + 0.01 * i)
            for i in range(n_segments)
        ]
        job.traces.append(make_trace(segments, table, thread_id=tid))
    return job


class TestTraceToStream:
    def test_round_trip(self):
        job = _small_job()
        rebuilt = JobTrace.from_stream(trace_to_stream(job))
        assert rebuilt.framework == job.framework
        assert rebuilt.workload == job.workload
        assert rebuilt.input_name == job.input_name
        assert rebuilt.registry is job.registry
        assert rebuilt.stack_table is job.stack_table
        assert rebuilt.stages == job.stages
        assert rebuilt.meta == job.meta
        assert len(rebuilt.traces) == len(job.traces)
        for orig, copy in zip(job.traces, rebuilt.traces):
            assert copy.thread_id == orig.thread_id
            assert copy.core_id == orig.core_id
            assert copy.start_cycle == orig.start_cycle
            assert copy.segments == orig.segments

    def test_batching_splits_segments(self):
        job = _small_job(n_threads=1, n_segments=10)
        events = list(trace_to_stream(job, batch_size=3))
        batches = [e for e in events if isinstance(e, SegmentBatch)]
        assert [len(b.segments) for b in batches] == [3, 3, 3, 1]
        # Event ordering: ThreadStart first, JobEnd last.
        assert isinstance(events[0], ThreadStart)
        assert isinstance(events[-1], JobEnd)

    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            trace_to_stream(_small_job(), batch_size=0)

    def test_from_stream_rejects_orphan_batch(self):
        job = _small_job(n_threads=1)
        seg = job.traces[0].segments[0]

        def events():
            yield SegmentBatch(42, (seg,))

        stream = trace_to_stream(job)
        stream.events = events()
        with pytest.raises(ValueError, match="unknown thread 42"):
            JobTrace.from_stream(stream)


class TestPumpEvents:
    def test_delivers_in_order(self):
        def producer(emit):
            for i in range(100):
                emit(ThreadStart(i, 0))

        received = [e.thread_id for e in pump_events(producer)]
        assert received == list(range(100))

    def test_propagates_producer_exception(self):
        def producer(emit):
            emit(ThreadStart(0, 0))
            raise RuntimeError("substrate failed")

        it = pump_events(producer)
        assert next(it).thread_id == 0
        with pytest.raises(RuntimeError, match="substrate failed"):
            next(it)

    def test_early_close_unwinds_producer(self):
        state = {}

        def producer(emit):
            try:
                for i in range(10_000):
                    emit(ThreadStart(i, 0))
                state["outcome"] = "completed"
            except StreamClosed:
                state["outcome"] = "closed"
                raise

        it = pump_events(producer, max_queue=4)
        next(it)
        it.close()  # consumer abandons the stream
        # The worker observes the closed flag on its next emit and
        # unwinds; close() drains until the worker exits.
        assert state["outcome"] == "closed"

    def test_backpressure_bounds_queue(self):
        def producer(emit):
            for i in range(50):
                emit(ThreadStart(i, 0))

        assert len(list(pump_events(producer, max_queue=2))) == 50

    def test_zero_length_stream(self):
        def producer(emit):
            pass

        assert list(pump_events(producer)) == []

    def test_exception_before_first_emit(self):
        def producer(emit):
            raise ValueError("substrate died on startup")

        with pytest.raises(ValueError, match="died on startup"):
            next(pump_events(producer))

    def test_empty_batches_flow_through(self):
        def producer(emit):
            emit(ThreadStart(0, 0))
            emit(SegmentBatch(0, ()))
            emit(SegmentBatch(0, np.empty(0, dtype=SEGMENT_DTYPE)))

        events = list(pump_events(producer))
        batches = [e for e in events if isinstance(e, SegmentBatch)]
        assert [len(b) for b in batches] == [0, 0]
        assert all(b.segments == () for b in batches)


class TestColumnarBatch:
    def test_payload_is_packed_array(self):
        job = _small_job(n_threads=1, n_segments=5)
        batches = [
            e for e in trace_to_stream(job) if isinstance(e, SegmentBatch)
        ]
        assert all(b.data.dtype == SEGMENT_DTYPE for b in batches)

    def test_replay_batches_are_zero_copy_slices(self):
        # trace_to_stream must slice the thread's packed array, not
        # copy per batch: every batch view shares the same base buffer.
        job = _small_job(n_threads=1, n_segments=10)
        packed = job.traces[0].to_structured()
        batches = [
            e
            for e in trace_to_stream(job, batch_size=3)
            if isinstance(e, SegmentBatch)
        ]
        assert all(b.data.base is packed for b in batches)

    def test_segments_property_is_lazy_and_cached(self):
        job = _small_job(n_threads=1, n_segments=4)
        batch = SegmentBatch(0, job.traces[0].to_structured())
        first = batch.segments
        assert first == tuple(job.traces[0].segments)
        assert batch.segments is first

    def test_object_constructor_round_trips(self):
        job = _small_job(n_threads=1, n_segments=4)
        segs = tuple(job.traces[0].segments)
        batch = SegmentBatch(0, segs)
        assert batch.segments == segs

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError, match="SEGMENT_DTYPE"):
            SegmentBatch(0, np.zeros(3, dtype=np.int64))

    def test_cold_survives_the_wire(self):
        registry, table, stacks = make_registry_with_stacks(n_stacks=1)
        sid = table.intern(stacks[0])
        cold = TraceSegment(sid, OpKind.MAP, 100, 60, 1, 0, cold=True)
        warm = TraceSegment(sid, OpKind.MAP, 100, 60, 1, 0, cold=False)
        batch = SegmentBatch(0, (cold, warm))
        assert [s.cold for s in batch.segments] == [True, False]


class TestTraceCaching:
    def test_totals_cache_tracks_appends(self):
        registry, table, stacks = make_registry_with_stacks(n_stacks=1)
        sid = table.intern(stacks[0])
        trace = ThreadTrace(thread_id=0, core_id=0)
        trace.append(TraceSegment(sid, OpKind.MAP, 100, 60, 1, 0))
        assert trace.total_instructions == 100
        trace.append(TraceSegment(sid, OpKind.MAP, 50, 40, 1, 0))
        # The totals are running sums over the appended rows.
        assert trace.total_instructions == 150
        assert trace.total_cycles == 100

    def test_clear_segments_bumps_epoch(self):
        registry, table, stacks = make_registry_with_stacks(n_stacks=1)
        sid = table.intern(stacks[0])
        trace = ThreadTrace(thread_id=0, core_id=0)
        trace.append(TraceSegment(sid, OpKind.MAP, 100, 60, 1, 0))
        assert trace.total_instructions == 100
        assert trace.segments[0].instructions == 100
        trace.clear_segments()
        assert len(trace) == 0
        # Refill to the same length with different values: clearing
        # must restart the totals and drop the cached object view.
        trace.append(TraceSegment(sid, OpKind.MAP, 999, 777, 1, 0))
        assert trace.total_instructions == 999
        assert trace.total_cycles == 777
        assert trace.segments[0].instructions == 999

    def test_thread_lookup_cached_and_first_wins(self):
        job = _small_job(n_threads=3)
        assert job.thread(1) is job.traces[1]
        # Duplicate thread id appended later: first occurrence wins,
        # matching the linear scan the cache replaced.
        dup = ThreadTrace(thread_id=1, core_id=9)
        job.traces.append(dup)
        assert job.thread(1) is job.traces[1]
        assert job.thread(1) is not dup

    def test_thread_lookup_missing_raises(self):
        job = _small_job(n_threads=1)
        with pytest.raises(KeyError, match="no thread 7 in job trace"):
            job.thread(7)
