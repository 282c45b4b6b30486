"""Cluster fault injection: transparency, determinism, null-plan identity.

These run real (small) workloads, so the whole class carries the
``slow`` marker like the other integration drivers.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.faults import FaultPlan, perturb_trace
from repro.workloads import run_workload, run_workload_stream
from tests.helpers import busiest_thread

SCALE = 0.05
SEED = 0


def _run(framework: str, faults=None, workload: str = "grep"):
    return run_workload(
        workload, framework, scale=SCALE, seed=SEED, faults=faults
    )


def _trace_bytes(trace) -> bytes:
    """Canonical bytes: thread traces + meta (timestamps excluded)."""
    return pickle.dumps(
        (sorted(trace.traces, key=lambda t: t.thread_id), trace.meta),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


@pytest.mark.slow
@pytest.mark.parametrize("framework", ["spark", "hadoop"])
class TestClusterFaults:
    def test_null_plan_bit_identical(self, framework):
        clean = _run(framework)
        nulled = _run(framework, faults=FaultPlan(seed=5))
        assert _trace_bytes(clean) == _trace_bytes(nulled)
        assert "fault_report" not in nulled.meta

    def test_same_plan_replays_bit_identically(self, framework):
        plan = FaultPlan.uniform(0.2, seed=3)
        first = _run(framework, faults=plan)
        second = _run(framework, faults=plan)
        assert _trace_bytes(first) == _trace_bytes(second)
        assert first.meta["fault_report"]["n_events"] > 0

    def test_recoveries_leave_results_unchanged(self, framework):
        clean = _run(framework)
        faulted = _run(framework, faults=FaultPlan.uniform(0.2, seed=3))
        # The workload's outputs — bytes written to HDFS and shuffled —
        # must not move: failed attempts commit nothing.
        assert (
            faulted.meta["hdfs_bytes_written"]
            == clean.meta["hdfs_bytes_written"]
        )
        assert faulted.meta["shuffle_bytes"] == clean.meta["shuffle_bytes"]

    def test_faults_add_work_not_remove(self, framework):
        clean = _run(framework)
        faulted = _run(
            framework,
            faults=FaultPlan(
                seed=3, straggler_rate=0.5, gc_pause_rate=0.5
            ),
        )
        total = lambda tr: sum(  # noqa: E731
            seg.instructions for t in tr.traces for seg in t.segments
        )
        assert total(faulted) > total(clean)


@pytest.mark.slow
class TestStreamedClusterFaults:
    def test_streamed_run_carries_fault_report(self, simprof_tool):
        plan = FaultPlan.uniform(0.1, seed=3)
        stream = run_workload_stream(
            "grep", "spark", scale=SCALE, seed=SEED, faults=plan
        )
        profile = simprof_tool.profile_stream(stream)
        report = profile.meta.get("fault_report", {})
        # Cluster faults injected by the substrate surface in the
        # profile metadata even on the streaming path.
        assert report.get("n_events", 0) > 0


class TestPerfPerturbations:
    def test_counter_glitches_rescale_cycles_only(self, wc_spark_trace):
        plan = FaultPlan(seed=4, counter_glitch_rate=0.3)
        perturbed, report = perturb_trace(wc_spark_trace, plan)
        assert len(report) > 0
        assert perturbed.meta["fault_report"]["counts"][
            "glitch/absorbed"
        ] == len(report)
        base = busiest_thread(wc_spark_trace)
        pert = perturbed.thread(base.thread_id)
        inst = lambda t: sum(s.instructions for s in t.segments)  # noqa: E731
        cyc = lambda t: sum(s.cycles for s in t.segments)  # noqa: E731
        assert inst(pert) == inst(base)  # instruction clock untouched
        assert cyc(pert) != cyc(base)

    def test_perturbation_deterministic(self, wc_spark_trace):
        plan = FaultPlan(seed=4, counter_glitch_rate=0.3)
        a, _ = perturb_trace(wc_spark_trace, plan)
        b, _ = perturb_trace(wc_spark_trace, plan)
        assert pickle.dumps(a.traces) == pickle.dumps(b.traces)

    def test_null_rate_returns_equivalent_trace(self, wc_spark_trace):
        perturbed, report = perturb_trace(
            wc_spark_trace, FaultPlan(seed=4)
        )
        assert not report
        assert np.array_equal(
            [s.cycles for s in busiest_thread(perturbed).segments],
            [s.cycles for s in busiest_thread(wc_spark_trace).segments],
        )
