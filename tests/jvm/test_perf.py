"""Unit tests for the perf_event-like counter reader."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.jvm.perf import PerfCounterReader, apply_counter_glitches
from repro.jvm.threads import ThreadTrace
from tests.helpers import busiest_thread, make_registry_with_stacks, make_trace


def _reference_counter_glitches(trace, *, rate, scale, rng):
    """The per-segment object loop the columnar rescale replaced."""
    if rate == 0.0 or not trace.segments:
        return trace, 0
    n = len(trace.segments)
    hits = rng.random(n) < rate
    factors = 1.0 + scale * (2.0 * rng.random(n) - 1.0)
    segments = list(trace.segments)
    glitched = 0
    for i in np.nonzero(hits)[0]:
        s = segments[i]
        f = max(0.0, float(factors[i]))
        segments[i] = dataclasses.replace(
            s,
            cycles=max(0, int(round(s.cycles * f))),
            l1d_misses=max(0, int(round(s.l1d_misses * f))),
            llc_misses=max(0, int(round(s.llc_misses * f))),
        )
        glitched += 1
    out = ThreadTrace(
        thread_id=trace.thread_id,
        core_id=trace.core_id,
        segments=segments,
        start_cycle=trace.start_cycle,
    )
    return out, glitched


@pytest.fixture()
def two_phase_trace():
    """100 instructions at CPI 1.0, then 100 at CPI 3.0."""
    registry, table, stacks = make_registry_with_stacks(n_stacks=2)
    return make_trace(
        [(stacks[0], 100, 1.0), (stacks[1], 100, 3.0)], table
    )


class TestRead:
    def test_full_window_totals(self, two_phase_trace):
        reader = PerfCounterReader(two_phase_trace)
        win = reader.read(0, 200)
        assert win.instructions == 200
        assert win.cycles == pytest.approx(100 + 300)

    def test_interpolates_within_segment(self, two_phase_trace):
        reader = PerfCounterReader(two_phase_trace)
        win = reader.read(0, 50)  # half of the CPI-1.0 segment
        assert win.cycles == pytest.approx(50)

    def test_straddling_window(self, two_phase_trace):
        reader = PerfCounterReader(two_phase_trace)
        win = reader.read(50, 150)  # 50 @ CPI1 + 50 @ CPI3
        assert win.cycles == pytest.approx(50 + 150)
        assert win.cpi == pytest.approx(2.0)

    def test_out_of_range_raises(self, two_phase_trace):
        reader = PerfCounterReader(two_phase_trace)
        with pytest.raises(ValueError):
            reader.read(-1, 10)
        with pytest.raises(ValueError):
            reader.read(0, 1000)


class TestCounterWindow:
    def test_ipc_and_mpki(self, two_phase_trace):
        reader = PerfCounterReader(two_phase_trace)
        win = reader.read(0, 100)
        assert win.ipc == pytest.approx(1.0 / win.cpi)
        assert win.llc_mpki >= 0


class TestTimeMapping:
    def test_time_of_instruction_roundtrip(self, two_phase_trace):
        reader = PerfCounterReader(two_phase_trace)
        clock = 1e9
        t = reader.time_of_instruction(100, clock)
        assert t == pytest.approx(100 / clock)
        back = reader.instruction_at_time(t, clock)
        assert back == pytest.approx(100)


class TestCounterGlitches:
    @pytest.mark.parametrize(
        "rate, scale, seed",
        [(0.3, 0.25, 4), (1.0, 0.5, 0), (0.05, 1.7, 11), (0.5, 0.0, 3)],
    )
    def test_columnar_rescale_matches_object_loop(
        self, wc_spark_trace, rate, scale, seed
    ):
        trace = busiest_thread(wc_spark_trace)
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        out, n = apply_counter_glitches(trace, rate=rate, scale=scale, rng=rng)
        ref, ref_n = _reference_counter_glitches(
            trace, rate=rate, scale=scale, rng=ref_rng
        )
        assert n == ref_n and n > 0
        assert out.to_structured().tobytes() == ref.to_structured().tobytes()
        assert (out.thread_id, out.core_id, out.start_cycle) == (
            ref.thread_id,
            ref.core_id,
            ref.start_cycle,
        )
        assert out.total_cycles == ref.total_cycles
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_rounds_half_to_even(self):
        registry, table, stacks = make_registry_with_stacks(n_stacks=1)
        # Cycles 5 and 7 scaled by 0.5 land on 2.5 and 3.5.
        trace = make_trace([(stacks[0], 5, 1.0), (stacks[0], 7, 1.0)], table)

        class Halving:
            def random(self, n):
                return np.full(n, 0.25)  # hits at rate 0.5; factor 0.5

        out, n = apply_counter_glitches(trace, rate=0.5, scale=1.0, rng=Halving())
        assert n == 2
        assert [s.cycles for s in out.segments] == [2, 4]

    def test_input_untouched_and_zero_rate_is_identity(self, two_phase_trace):
        before = two_phase_trace.to_structured().tobytes()
        rng = np.random.default_rng(0)
        out, n = apply_counter_glitches(two_phase_trace, rate=1.0, scale=0.5, rng=rng)
        assert n == 2 and out is not two_phase_trace
        assert two_phase_trace.to_structured().tobytes() == before
        same, zero = apply_counter_glitches(
            two_phase_trace, rate=0.0, scale=0.5, rng=rng
        )
        assert same is two_phase_trace and zero == 0
