"""Unit tests for the thread profiler (Section III-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiler import (
    ProfilerConfig,
    SimProfProfiler,
    _UnitCutter,
    select_thread,
)
from repro.jvm.job import JobTrace
from repro.jvm.machine import MachineConfig
from tests.helpers import make_registry_with_stacks, make_trace


def _make_job(trace_segments, table, registry, traces=None):
    trace = make_trace(trace_segments, table)
    return JobTrace(
        framework="spark",
        workload="t",
        input_name="default",
        registry=registry,
        stack_table=table,
        machine=MachineConfig(),
        traces=traces or [trace],
    )


@pytest.fixture()
def parts():
    registry, table, stacks = make_registry_with_stacks(n_stacks=3)
    return registry, table, stacks


class TestProfilerConfig:
    def test_defaults_follow_paper_unit(self):
        cfg = ProfilerConfig()
        assert cfg.unit_size == 100_000_000
        assert cfg.unit_size % cfg.snapshot_period == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProfilerConfig(unit_size=0)
        with pytest.raises(ValueError):
            ProfilerConfig(snapshot_period=0)
        with pytest.raises(ValueError):
            ProfilerConfig(unit_size=10, snapshot_period=20)
        with pytest.raises(ValueError):
            ProfilerConfig(snapshot_jitter=1.0)


class TestProfileThread:
    def test_unit_count_drops_partial_tail(self, parts):
        registry, table, stacks = parts
        # 2.5 units of 100 instructions each.
        trace = make_trace([(stacks[0], 250, 1.0)], table)
        profiler = SimProfProfiler(
            ProfilerConfig(unit_size=100, snapshot_period=10, snapshot_jitter=0.0)
        )
        profile = profiler.profile_thread(trace)
        assert profile.n_units == 2

    def test_too_short_thread_raises(self, parts):
        registry, table, stacks = parts
        trace = make_trace([(stacks[0], 50, 1.0)], table)
        profiler = SimProfProfiler(ProfilerConfig(unit_size=100, snapshot_period=10))
        with pytest.raises(ValueError):
            profiler.profile_thread(trace)

    def test_unit_cpi_from_counters(self, parts):
        registry, table, stacks = parts
        trace = make_trace(
            [(stacks[0], 100, 1.0), (stacks[1], 100, 3.0)], table
        )
        profiler = SimProfProfiler(
            ProfilerConfig(unit_size=100, snapshot_period=10, snapshot_jitter=0.0)
        )
        profile = profiler.profile_thread(trace)
        assert profile.units[0].cpi == pytest.approx(1.0)
        assert profile.units[1].cpi == pytest.approx(3.0)

    def test_snapshots_assigned_to_units(self, parts):
        registry, table, stacks = parts
        trace = make_trace(
            [(stacks[0], 100, 1.0), (stacks[1], 100, 1.0)], table
        )
        profiler = SimProfProfiler(
            ProfilerConfig(unit_size=100, snapshot_period=10, snapshot_jitter=0.0)
        )
        profile = profiler.profile_thread(trace)
        unit0, unit1 = profile.units
        assert unit0.n_snapshots > 0
        assert unit1.n_snapshots > 0
        # Unit 0's snapshots all see stack 0; unit 1 sees stack 1.
        assert list(unit0.stack_ids) == [table.intern(stacks[0])]
        assert table.intern(stacks[1]) in list(unit1.stack_ids)

    def test_poll_semantics_on_segment_ends(self, parts):
        registry, table, stacks = parts
        # stack0 for 100, stack1 for 50, stack0 for 50 instructions.
        trace = make_trace(
            [(stacks[0], 100, 1.0), (stacks[1], 50, 1.0), (stacks[0], 50, 1.0)],
            table,
        )
        profiler = SimProfProfiler(
            ProfilerConfig(unit_size=200, snapshot_period=10, snapshot_jitter=0.0)
        )
        (unit,) = profiler.profile_thread(trace).units
        # Polls fire at 10, 20, ..., 190: the first one period in, none
        # at the total (200).  A poll on a segment end (100, 150) sees
        # the next segment's stack: 9 + 5 polls on stack0, 5 on stack1.
        counts = dict(zip(unit.stack_ids.tolist(), unit.stack_counts.tolist()))
        assert counts == {table.intern(stacks[0]): 14, table.intern(stacks[1]): 5}

    def test_jitter_determinism_per_seed(self, parts):
        registry, table, stacks = parts
        trace = make_trace([(stacks[0], 1000, 1.0)], table)
        cfg = ProfilerConfig(unit_size=100, snapshot_period=10,
                             snapshot_jitter=0.5, seed=3)
        p1 = SimProfProfiler(cfg).profile_thread(trace)
        p2 = SimProfProfiler(cfg).profile_thread(trace)
        assert [u.n_snapshots for u in p1.units] == [
            u.n_snapshots for u in p2.units
        ]


class TestProfileJob:
    def test_profiles_longest_thread_by_default(self, parts):
        registry, table, stacks = parts
        short = make_trace([(stacks[0], 100, 1.0)], table, thread_id=0)
        long = make_trace([(stacks[1], 500, 2.0)], table, thread_id=1)
        job = JobTrace(
            framework="spark",
            workload="t",
            input_name="default",
            registry=registry,
            stack_table=table,
            machine=MachineConfig(),
            traces=[short, long],
        )
        profiler = SimProfProfiler(
            ProfilerConfig(unit_size=100, snapshot_period=10)
        )
        profile = profiler.profile(job)
        assert profile.profile.thread_id == 1
        assert profile.n_units == 5

    def test_explicit_thread_selection(self, parts):
        registry, table, stacks = parts
        t0 = make_trace([(stacks[0], 300, 1.0)], table, thread_id=0)
        t1 = make_trace([(stacks[1], 500, 2.0)], table, thread_id=1)
        job = JobTrace(
            framework="spark",
            workload="t",
            input_name="default",
            registry=registry,
            stack_table=table,
            machine=MachineConfig(),
            traces=[t0, t1],
        )
        profiler = SimProfProfiler(
            ProfilerConfig(unit_size=100, snapshot_period=10, thread_id=0)
        )
        assert profiler.profile(job).profile.thread_id == 0

    def test_metadata_carried_over(self, parts):
        registry, table, stacks = parts
        job = _make_job([(stacks[0], 200, 1.0)], table, registry)
        job.meta["n_executors"] = 8
        profiler = SimProfProfiler(
            ProfilerConfig(unit_size=100, snapshot_period=10)
        )
        profile = profiler.profile(job)
        assert profile.workload == "t"
        assert profile.meta["n_executors"] == 8
        assert profile.label == "t_sp"


class TestSelectThread:
    """One rule picks the profiled thread for batch and stream alike."""

    CFG = ProfilerConfig(unit_size=100, snapshot_period=10)

    def test_explicit_thread_must_exist(self):
        cfg = ProfilerConfig(unit_size=100, snapshot_period=10, thread_id=7)
        with pytest.raises(KeyError, match="no thread 7 in job trace"):
            select_thread({0: 500, 1: 900}, cfg)

    @pytest.mark.parametrize("total", [0, 1, 99, 100, 101, 199, 200])
    def test_one_unit_rule_is_the_cutters(self, total):
        # select_thread rejects a thread exactly when the cutter would
        # complete no unit for it (the old batch-path condition).
        registry, table, stacks = make_registry_with_stacks(n_stacks=1)
        trace = make_trace([(stacks[0], total, 1.0)], table)
        cutter = _UnitCutter(0, self.CFG)
        units = cutter.feed_array(trace.to_structured()) + cutter.flush()
        try:
            select_thread({0: total}, self.CFG)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == bool(units)


class TestThreadProfileAccessors:
    def test_oracle_cpi_is_mean_of_units(self, parts):
        registry, table, stacks = parts
        trace = make_trace(
            [(stacks[0], 100, 1.0), (stacks[1], 100, 3.0)], table
        )
        profile = SimProfProfiler(
            ProfilerConfig(unit_size=100, snapshot_period=10, snapshot_jitter=0.0)
        ).profile_thread(trace)
        assert profile.oracle_cpi() == pytest.approx(2.0)
        assert profile.cpi().tolist() == pytest.approx([1.0, 3.0])
        assert profile.ipc().tolist() == pytest.approx([1.0, 1 / 3])
        assert profile.llc_mpki().shape == (2,)
