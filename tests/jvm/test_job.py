"""Unit tests for the job-trace container."""

from __future__ import annotations

import pytest

from repro.core.profiler import ProfilerConfig, select_thread
from repro.jvm.job import JobTrace, StageInfo
from repro.jvm.machine import MachineConfig, OpKind
from repro.jvm.methods import MethodRegistry, StackTable
from repro.jvm.threads import ThreadTrace, TraceSegment


_ONE_INSTRUCTION_UNITS = ProfilerConfig(unit_size=1, snapshot_period=1)


def _job_with_threads(instr_per_thread: list[int]) -> JobTrace:
    registry = MethodRegistry()
    table = StackTable(registry)
    traces = []
    for tid, insts in enumerate(instr_per_thread):
        trace = ThreadTrace(
            thread_id=tid,
            core_id=tid,
            segments=[TraceSegment(0, OpKind.MAP, insts, insts * 2, 0, 0)],
        )
        traces.append(trace)
    return JobTrace(
        framework="spark",
        workload="wc",
        input_name="default",
        registry=registry,
        stack_table=table,
        machine=MachineConfig(),
        traces=traces,
        stages=[StageInfo(0, "shuffleMap:map", 4)],
    )


class TestJobTrace:
    def test_label(self):
        job = _job_with_threads([10])
        assert job.label == "wc_spark"

    def test_totals(self):
        job = _job_with_threads([10, 20, 30])
        assert job.total_instructions == 60
        assert job.total_cycles == 120
        assert job.n_threads == 3

    def test_thread_lookup(self):
        job = _job_with_threads([10, 20])
        assert job.thread(1).total_instructions == 20
        with pytest.raises(KeyError):
            job.thread(99)

    def test_longest_thread(self):
        job = _job_with_threads([10, 50, 20, 50])
        totals = {t.thread_id: t.total_instructions for t in job.traces}
        # The busiest thread, the first one winning a tie.
        assert select_thread(totals, _ONE_INSTRUCTION_UNITS) == 1

    def test_longest_thread_empty_raises(self):
        with pytest.raises(ValueError, match="no threads"):
            select_thread({}, _ONE_INSTRUCTION_UNITS)
