"""A thread trace at rest: narrowed packed columns, segments built lazily."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.pipeline import SimProf, SimProfConfig
from repro.experiments.common import all_label_pairs
from repro.jvm import segments as segments_mod
from repro.jvm.job import JobTrace
from repro.jvm.machine import OpKind
from repro.jvm.segments import SEGMENT_DTYPE, pack_columns
from repro.jvm.threads import ThreadTrace, TraceSegment
from repro.runtime.store import ArtifactStore, _dumps
from repro.workloads import run_workload


def _roundtrip(obj):
    return pickle.loads(_dumps(obj))


def _assert_same_trace(loaded: ThreadTrace, fresh: ThreadTrace) -> None:
    assert loaded._view is None  # nothing built on load
    assert loaded.to_structured().dtype == SEGMENT_DTYPE
    assert loaded.to_structured().tobytes() == fresh.to_structured().tobytes()
    assert (loaded.thread_id, loaded.core_id, loaded.start_cycle) == (
        fresh.thread_id,
        fresh.core_id,
        fresh.start_cycle,
    )
    assert len(loaded) == len(fresh)
    assert loaded.total_instructions == fresh.total_instructions
    assert loaded.total_cycles == fresh.total_cycles
    assert loaded.segments == fresh.segments
    assert loaded == fresh


@pytest.fixture(scope="module")
def fig7_jobs() -> list[JobTrace]:
    """The twelve Figure 7 job traces at ``--scale 0.01``, seed 0."""
    return [
        run_workload(name, framework, scale=0.01, seed=0)
        for name, framework in all_label_pairs()
    ]


class TestFig7RoundTrip:
    def test_every_trace_round_trips(self, fig7_jobs):
        for job in fig7_jobs:
            loaded = _roundtrip(job)
            assert loaded.total_instructions == job.total_instructions
            assert len(loaded.traces) == len(job.traces)
            for back, fresh in zip(loaded.traces, job.traces):
                _assert_same_trace(back, fresh)

    def test_loaded_trace_pickles_to_the_same_bytes(self, fig7_jobs):
        for job in fig7_jobs:
            blob = _dumps(job)
            assert _dumps(pickle.loads(blob)) == blob

    def test_columns_are_narrowed(self, fig7_jobs):
        columns = pack_columns(fig7_jobs[0].traces[0].to_structured())
        widths = dict(zip(SEGMENT_DTYPE.names, (c.dtype.itemsize for c in columns)))
        assert widths["op_kind"] == 1 and widths["cold"] == 1
        assert widths["instructions"] < 8


def _trace(rows: list[TraceSegment], *, start_cycle: int = 5) -> ThreadTrace:
    return ThreadTrace(thread_id=3, core_id=1, segments=rows, start_cycle=start_cycle)


class TestEdgeCases:
    def test_empty_thread(self):
        fresh = _trace([])
        loaded = _roundtrip(fresh)
        _assert_same_trace(loaded, fresh)
        assert loaded.total_instructions == 0 and len(loaded) == 0

    def test_column_beyond_int32_stays_int64(self):
        big = 2**40 + 3
        fresh = _trace([TraceSegment(0, OpKind.MAP, big, 2 * big, 1, 0)])
        columns = pack_columns(fresh.to_structured())
        by_name = dict(zip(SEGMENT_DTYPE.names, columns))
        assert by_name["instructions"].dtype == np.dtype("<i8")
        assert by_name["cycles"].dtype == np.dtype("<i8")
        assert by_name["l1d_misses"].dtype == np.dtype("<i1")
        loaded = _roundtrip(fresh)
        _assert_same_trace(loaded, fresh)
        assert loaded.total_cycles == 2 * big

    def test_negative_ids_and_cold_flags(self):
        fresh = _trace(
            [
                TraceSegment(0, OpKind.GC, 10, 20, 1, 0, cold=True),
                TraceSegment(300, OpKind.MAP, 70_000, 90_000, 5, 2, 4, 17),
                TraceSegment(1, OpKind.IO, 30, 31, 0, 0, -1, -1, cold=True),
            ]
        )
        loaded = _roundtrip(fresh)
        _assert_same_trace(loaded, fresh)
        assert [s.cold for s in loaded.segments] == [True, False, True]
        assert [s.stage_id for s in loaded.segments] == [-1, 4, -1]
        by_name = dict(zip(SEGMENT_DTYPE.names, pack_columns(fresh.to_structured())))
        assert by_name["stage_id"].dtype == np.dtype("<i1")
        assert by_name["stack_id"].dtype == np.dtype("<i2")

    def test_loaded_trace_grows_like_a_fresh_one(self):
        fresh = _trace([TraceSegment(0, OpKind.MAP, 10, 20, 1, 0)])
        loaded = _roundtrip(fresh)
        extra = TraceSegment(1, OpKind.IO, 5, 6, 0, 0)
        loaded.append(extra)
        fresh.append(extra)
        _assert_same_trace(_roundtrip(loaded), fresh)
        assert loaded.total_instructions == 15
        loaded.clear_segments()
        assert len(loaded) == 0 and loaded.to_structured().size == 0


class TestLazySegments:
    def test_load_and_profile_builds_no_segments(self, tmp_path, monkeypatch):
        job = run_workload("wc", "spark", scale=0.01, seed=0)
        key = "stage-test-trace"
        ArtifactStore(tmp_path).put(key, job, kind="stage")
        calls = []
        real = segments_mod.array_to_segments

        def counting(data):
            calls.append(len(data))
            return real(data)

        monkeypatch.setattr(segments_mod, "array_to_segments", counting)
        loaded = ArtifactStore(tmp_path).get(key)
        tool = SimProf(SimProfConfig(unit_size=10_000_000, snapshot_period=500_000))
        profile = tool.profile(loaded)
        assert profile.n_units > 0
        assert calls == []
        # The first read of .segments is what builds them.
        assert len(loaded.traces[0].segments) == len(job.traces[0])
        assert len(calls) == 1
