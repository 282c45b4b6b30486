"""Unit tests for the job-trace container."""

from __future__ import annotations

import pytest

from repro.jvm.job import JobTrace, StageInfo
from repro.jvm.machine import MachineConfig, OpKind
from repro.jvm.methods import MethodRegistry, StackTable
from repro.jvm.threads import ThreadTrace, TraceSegment


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
        job = _job_with_threads([10, 50, 20])
        assert job.longest_thread().thread_id == 1

    def test_longest_thread_empty_raises(self):
        job = _job_with_threads([])
        with pytest.raises(ValueError):
            job.longest_thread()
