"""Tests for sample stage coverage (the SECOND criticism, measured)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import SecondSampler, SimProfSampler
from repro.core.coverage import stage_coverage, unit_stage_matrix
from repro.jvm.job import JobTrace
from repro.jvm.machine import MachineConfig, OpKind
from repro.jvm.methods import MethodRegistry, StackTable
from repro.jvm.threads import ThreadTrace, TraceSegment


def two_stage_trace() -> ThreadTrace:
    """Stage 0 for 300 instructions, stage 1 for 100."""
    trace = ThreadTrace(thread_id=0, core_id=0)
    trace.append(TraceSegment(0, OpKind.MAP, 300, 300, 0, 0, stage_id=0))
    trace.append(TraceSegment(1, OpKind.REDUCE, 100, 300, 0, 0, stage_id=1))
    return trace


def as_job(trace: ThreadTrace) -> JobTrace:
    registry = MethodRegistry()
    return JobTrace(
        framework="hadoop",
        workload="t",
        input_name="default",
        registry=registry,
        stack_table=StackTable(registry),
        machine=MachineConfig(),
        traces=[trace],
    )


class TestUnitStageMatrix:
    def test_shapes_and_mass(self):
        stage_ids, matrix = unit_stage_matrix(two_stage_trace(), unit_size=100)
        assert list(stage_ids) == [0, 1]
        assert matrix.shape == (4, 2)
        # Units 0-2 are pure stage 0; unit 3 pure stage 1.
        np.testing.assert_allclose(matrix[:3, 0], 100)
        np.testing.assert_allclose(matrix[3], [0, 100])

    def test_straddling_unit_split(self):
        trace = ThreadTrace(thread_id=0, core_id=0)
        trace.append(TraceSegment(0, OpKind.MAP, 150, 150, 0, 0, stage_id=0))
        trace.append(TraceSegment(1, OpKind.MAP, 50, 50, 0, 0, stage_id=1))
        _ids, matrix = unit_stage_matrix(trace, unit_size=100)
        np.testing.assert_allclose(matrix[1], [50, 50])


class TestStageCoverage:
    def test_full_sample_covers_everything(self):
        job = as_job(two_stage_trace())
        cov = stage_coverage(job, 0, np.arange(4), unit_size=100)
        assert cov.n_covered == cov.n_stages == 2
        assert cov.covered_weight == pytest.approx(1.0)
        assert cov.missed_stages == []

    def test_early_sample_misses_late_stage(self):
        """The SECOND failure mode: a contiguous early window never sees
        the reduce stage."""
        job = as_job(two_stage_trace())
        cov = stage_coverage(job, 0, np.array([0, 1]), unit_size=100)
        assert cov.missed_stages == [1]
        assert cov.covered_weight == pytest.approx(0.75)

    def test_min_fraction_filters_stray_segments(self):
        trace = ThreadTrace(thread_id=0, core_id=0)
        trace.append(TraceSegment(0, OpKind.MAP, 99, 99, 0, 0, stage_id=0))
        trace.append(TraceSegment(1, OpKind.MAP, 1, 1, 0, 0, stage_id=1))
        trace.append(TraceSegment(1, OpKind.MAP, 100, 100, 0, 0, stage_id=1))
        job = as_job(trace)
        cov = stage_coverage(job, 0, np.array([0]), unit_size=100,
                             min_fraction=0.05)
        # The 1% sliver of stage 1 inside unit 0 does not count.
        assert cov.missed_stages == [1]

    def test_out_of_task_work_excluded(self):
        trace = two_stage_trace()
        trace.append(TraceSegment(2, OpKind.GC, 100, 100, 0, 0, stage_id=-1))
        job = as_job(trace)
        cov = stage_coverage(job, 0, np.arange(5), unit_size=100)
        assert -1 not in list(cov.stage_ids)


class TestOnRealWorkload:
    def test_simprof_covers_more_stages_than_tiny_window(
        self, wc_hadoop_trace, simprof_tool
    ):
        job = simprof_tool.profile(wc_hadoop_trace)
        model = simprof_tool.form_phases(job)
        unit = job.profile.unit_size

        simprof_sel = SimProfSampler(20).sample(
            job, model, np.random.default_rng(0)
        ).selected
        # A window far too small to span the map and reduce stages.
        second_sel = SecondSampler(seconds=0.02).sample(job).selected

        cov_simprof = stage_coverage(
            wc_hadoop_trace, job.profile.thread_id, simprof_sel, unit
        )
        cov_second = stage_coverage(
            wc_hadoop_trace, job.profile.thread_id, second_sel, unit
        )
        assert cov_simprof.n_covered >= cov_second.n_covered
        assert cov_simprof.covered_weight >= 0.99
