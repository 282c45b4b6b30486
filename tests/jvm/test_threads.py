"""Unit tests for trace segments, thread traces, and the trace builder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jvm.machine import AccessPattern, HardwareModel, MachineConfig, OpKind
from repro.jvm.methods import CallStack, MethodRegistry, StackTable
from repro.jvm.threads import ThreadTrace, TraceBuilder, TraceSegment


@pytest.fixture()
def builder_parts():
    registry = MethodRegistry()
    table = StackTable(registry)
    stack = CallStack((registry.intern("a.A", "run"),))
    hw = HardwareModel(MachineConfig(noise_sigma=0.0, migration_probability=0.0))
    rng = np.random.default_rng(0)
    builder = TraceBuilder(table, hw, rng, thread_id=0, core_id=0)
    return builder, stack


class TestTraceSegment:
    def test_cpi(self):
        seg = TraceSegment(0, OpKind.MAP, 100, 250, 1, 1)
        assert seg.cpi == 2.5

    def test_cpi_zero_instructions(self):
        seg = TraceSegment(0, OpKind.MAP, 0, 10, 0, 0)
        assert seg.cpi == 0.0


class TestTraceBuilder:
    def test_emit_appends_segment(self, builder_parts):
        builder, stack = builder_parts
        builder.emit(stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6)
        seg = builder.trace.segments[-1]
        assert len(builder.trace) == 1
        assert seg.instructions == 1_000_000

    def test_emit_applies_instruction_scale(self):
        registry = MethodRegistry()
        table = StackTable(registry)
        stack = CallStack((registry.intern("a.A", "run"),))
        hw = HardwareModel(
            MachineConfig(noise_sigma=0.0, migration_probability=0.0,
                          instruction_scale=4.0)
        )
        builder = TraceBuilder(table, hw, np.random.default_rng(0), 0, 0)
        builder.emit(stack, OpKind.MAP, AccessPattern.sequential(1e4), 1000)
        seg = builder.trace.segments[-1]
        assert seg.instructions == 4000

    def test_emit_chunked_respects_max_segment(self, builder_parts):
        builder, stack = builder_parts
        n = builder.emit_chunked(
            stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e7, max_segment=4e6
        )
        assert n == 3
        sizes = [s.instructions for s in builder.trace.segments]
        assert max(sizes) <= 4_000_000
        assert sum(sizes) == 10_000_000

    def test_emit_chunked_scales_before_chunking(self):
        registry = MethodRegistry()
        table = StackTable(registry)
        stack = CallStack((registry.intern("a.A", "run"),))
        hw = HardwareModel(
            MachineConfig(noise_sigma=0.0, migration_probability=0.0,
                          instruction_scale=10.0)
        )
        builder = TraceBuilder(table, hw, np.random.default_rng(0), 0, 0)
        builder.emit_chunked(
            stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6, max_segment=4e6
        )
        sizes = [s.instructions for s in builder.trace.segments]
        assert sum(sizes) == 10_000_000  # 1e6 abstract * scale 10
        assert max(sizes) <= 4_000_000

    def test_emit_chunked_rejects_bad_max(self, builder_parts):
        builder, stack = builder_parts
        with pytest.raises(ValueError):
            builder.emit_chunked(
                stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6, max_segment=0
            )

    def test_migration_marks_next_segment_cold(self):
        registry = MethodRegistry()
        table = StackTable(registry)
        stack = CallStack((registry.intern("a.A", "run"),))
        hw = HardwareModel(
            MachineConfig(noise_sigma=0.0, migration_probability=1.0)
        )
        builder = TraceBuilder(table, hw, np.random.default_rng(0), 0, 0)
        builder.emit(stack, OpKind.MAP, AccessPattern.random(1e6), 1e6)
        builder.emit(stack, OpKind.MAP, AccessPattern.random(1e6), 1e6)
        first, second = builder.trace.segments
        assert not first.cold
        assert second.cold
        assert builder.migrations >= 1

    def test_contention_increases_cycles(self):
        registry = MethodRegistry()
        table = StackTable(registry)
        stack = CallStack((registry.intern("a.A", "run"),))
        hw = HardwareModel(MachineConfig(noise_sigma=0.0, migration_probability=0.0))
        access = AccessPattern.random(4e6)
        b1 = TraceBuilder(table, hw, np.random.default_rng(0), 0, 0)
        b1.set_contention(1)
        b1.emit(stack, OpKind.MAP, access, 1e6)
        alone = b1.trace.segments[-1].cycles
        b8 = TraceBuilder(table, hw, np.random.default_rng(0), 1, 0)
        b8.set_contention(8)
        b8.emit(stack, OpKind.MAP, access, 1e6)
        shared = b8.trace.segments[-1].cycles
        assert shared > alone


class TestThreadTrace:
    def test_totals(self, builder_parts):
        builder, stack = builder_parts
        for _ in range(3):
            builder.emit(stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6)
        trace = builder.trace
        assert trace.total_instructions == 3_000_000
        assert trace.total_cycles > 0
        assert trace.end_cycle == trace.start_cycle + trace.total_cycles

    def test_to_arrays_matches_segments(self, builder_parts):
        builder, stack = builder_parts
        builder.emit(stack, OpKind.MAP, AccessPattern.sequential(1e4), 1e6)
        builder.emit(stack, OpKind.IO, AccessPattern.sequential(1e4), 2e6)
        arrays = builder.trace.to_arrays()
        assert list(arrays["instructions"]) == [1_000_000, 2_000_000]
        assert arrays["op_kind"][0] != arrays["op_kind"][1]

    def test_merged_orders_by_start_cycle(self):
        t1 = ThreadTrace(thread_id=1, core_id=0, start_cycle=100)
        t1.append(TraceSegment(0, OpKind.MAP, 10, 10, 0, 0))
        t2 = ThreadTrace(thread_id=2, core_id=0, start_cycle=0)
        t2.append(TraceSegment(1, OpKind.MAP, 20, 20, 0, 0))
        merged = ThreadTrace.merged([t1, t2], thread_id=7)
        assert merged.thread_id == 7
        assert [s.stack_id for s in merged.segments] == [1, 0]

    def test_merged_rejects_mixed_cores(self):
        t1 = ThreadTrace(thread_id=1, core_id=0)
        t2 = ThreadTrace(thread_id=2, core_id=1)
        with pytest.raises(ValueError):
            ThreadTrace.merged([t1, t2], thread_id=0)

    def test_merged_rejects_empty(self):
        with pytest.raises(ValueError):
            ThreadTrace.merged([], thread_id=0)


_SEGMENT_REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(list(OpKind)),
        st.sampled_from(["sequential", "random", "pointer"]),
        st.floats(0.0, 1e9),  # working set, bytes
        st.integers(1, 8),  # contention
        st.booleans(),  # cold
        st.floats(0.0, 1e7),  # unscaled instructions
    ),
    min_size=1,
    max_size=12,
)


class TestBuilderPricing:
    """The builder's row path prices exactly as ``HardwareModel.cost``."""

    @given(
        requests=_SEGMENT_REQUESTS,
        jit=st.sampled_from([0.0, 0.8]),
        sigma=st.sampled_from([0.0, 0.03]),
        scale=st.sampled_from([1.0, 0.37, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_cost(self, requests, jit, sigma, scale, seed):
        config = MachineConfig(
            noise_sigma=sigma,
            jit_warmup_penalty=jit,
            jit_warmup_scale=5e6,
            instruction_scale=scale,
            migration_probability=0.3,
        )
        registry = MethodRegistry()
        stack = CallStack((registry.intern("a.A", "run"),))
        builder = TraceBuilder(
            StackTable(registry),
            HardwareModel(config),
            np.random.default_rng(seed),
            0,
            0,
        )
        model = HardwareModel(config)
        rng = np.random.default_rng(seed)
        for op_kind, kind, ws, contention, cold, insts in requests:
            access = AccessPattern(kind, ws)
            builder.set_contention(contention)
            builder._cold_next = cold
            retired = builder.retired
            builder.emit(stack, op_kind, access, insts)
            expected = model.cost(
                op_kind,
                access,
                insts * scale,
                rng,
                contention=contention,
                cold=cold,
                retired_instructions=retired,
            )
            model.migration_occurs(rng)
            seg = builder.trace.segments[-1]
            assert (
                seg.instructions,
                seg.cycles,
                seg.l1d_misses,
                seg.llc_misses,
            ) == tuple(expected)
            assert seg.op_kind is op_kind and seg.cold == cold
            assert builder.retired == retired + expected.instructions
            # Same draws in the same order: the streams stay in step.
            assert (
                builder.rng.bit_generator.state == rng.bit_generator.state
            )
