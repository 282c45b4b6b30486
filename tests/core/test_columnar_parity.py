"""Columnar trace plane vs the ``_reference`` object path, bit for bit.

The columnar refactor replaced the per-segment Python loops of the
streaming unit cutter and the substrate flush with packed-array code.
These tests hold the cutter to the ``_reference`` oracle byte-for-byte
— same sampling units (stack histograms and interpolated counters) for
any batch partition of the same segment sequence — and check that the
object/columnar adapters round-trip every segment field.
"""

from __future__ import annotations

import numpy as np

from repro.core._reference import ReferenceUnitCutter
from repro.core.profiler import ProfilerConfig, _UnitCutter
from repro.jvm.machine import OpKind
from repro.jvm.segments import (
    array_to_segments,
    empty_segment_array,
    segments_to_array,
)
from repro.jvm.threads import OP_KINDS_BY_CODE, TraceSegment


def _random_segments(
    rng: np.random.Generator, n: int, *, max_inst: int = 5000
) -> tuple[TraceSegment, ...]:
    """Arbitrary but reproducible segments, cold flags included."""
    return tuple(
        TraceSegment(
            stack_id=int(rng.integers(0, 40)),
            op_kind=OP_KINDS_BY_CODE[int(rng.integers(0, len(OP_KINDS_BY_CODE)))],
            instructions=int(rng.integers(0, max_inst)),
            cycles=int(rng.integers(0, 3 * max_inst)),
            l1d_misses=int(rng.integers(0, max_inst // 10 + 1)),
            llc_misses=int(rng.integers(0, max_inst // 100 + 1)),
            stage_id=int(rng.integers(-1, 4)),
            task_id=int(rng.integers(-1, 16)),
            cold=bool(rng.integers(0, 2)),
        )
        for _ in range(n)
    )


class TestWireFormat:
    def test_round_trip_preserves_everything(self):
        rng = np.random.default_rng(np.random.SeedSequence([2024, 5]))
        segs = _random_segments(rng, 50)
        assert array_to_segments(segments_to_array(segs)) == segs


def _phase_segments(
    rng: np.random.Generator,
    *,
    n: int,
    inst: int,
    with_zero_runs: bool = False,
) -> tuple[TraceSegment, ...]:
    """A segment sequence with varied CPI and optional 0-length runs."""
    out = []
    for i in range(n):
        insts = inst if not (with_zero_runs and i % 7 == 3) else 0
        cpi = 0.5 + (i % 5) * 0.3
        out.append(
            TraceSegment(
                stack_id=i % 6,
                op_kind=OpKind.MAP,
                instructions=insts,
                cycles=max(1, int(insts * cpi)) if insts else int(rng.integers(0, 50)),
                l1d_misses=insts // 90,
                llc_misses=insts // 800,
            )
        )
    return tuple(out)


def _units_identical(a, b) -> None:
    assert len(a) == len(b)
    for ua, ub in zip(a, b):
        assert ua.index == ub.index
        assert np.array_equal(ua.stack_ids, ub.stack_ids)
        assert np.array_equal(ua.stack_counts, ub.stack_counts)
        # Bitwise, not approximate: the cutters must share every float op.
        assert ua.instructions == ub.instructions
        assert ua.cycles == ub.cycles
        assert ua.l1d_misses == ub.l1d_misses
        assert ua.llc_misses == ub.llc_misses


def _run_both(
    segments: tuple[TraceSegment, ...],
    cfg: ProfilerConfig,
    batch_sizes: tuple[int, ...],
) -> None:
    """Feed identical content through both cutters, any batch split."""
    data = segments_to_array(segments)
    for bs in batch_sizes:
        fast = _UnitCutter(0, cfg)
        ref = ReferenceUnitCutter(0, cfg)
        fast_units = []
        ref_units = []
        for i in range(0, len(data), bs):
            fast_units.extend(fast.feed_array(data[i : i + bs]))
        for seg in segments:
            ref_units.extend(ref.feed(seg))
        fast_units.extend(fast.flush())
        ref_units.extend(ref.flush())
        assert fast.total == ref.total
        _units_identical(fast_units, ref_units)


class TestCutterParity:
    CFG = ProfilerConfig(unit_size=10_000, snapshot_period=500, seed=7)

    def test_jittered_snapshots(self):
        rng = np.random.default_rng(np.random.SeedSequence([99, 1]))
        segs = _phase_segments(rng, n=400, inst=173)
        _run_both(segs, self.CFG, (1, 3, 64, 400))

    def test_jitter_disabled(self):
        rng = np.random.default_rng(np.random.SeedSequence([99, 2]))
        segs = _phase_segments(rng, n=300, inst=211)
        cfg = ProfilerConfig(
            unit_size=10_000, snapshot_period=500, snapshot_jitter=0.0, seed=7
        )
        _run_both(segs, cfg, (1, 7, 300))

    def test_exact_multiple_boundary_flush(self):
        rng = np.random.default_rng(np.random.SeedSequence([99, 3]))
        # 50 segments x 200 instructions = exactly one 10_000 unit.
        segs = _phase_segments(rng, n=50, inst=200)
        _run_both(segs, self.CFG, (1, 8, 50))

    def test_zero_instruction_segments_on_boundaries(self):
        rng = np.random.default_rng(np.random.SeedSequence([99, 4]))
        segs = _phase_segments(rng, n=420, inst=250, with_zero_runs=True)
        _run_both(segs, self.CFG, (1, 5, 420))

    def test_units_spanning_many_batches(self):
        rng = np.random.default_rng(np.random.SeedSequence([99, 5]))
        # Tiny batches vs a big unit: every unit spans dozens of
        # feed_array calls and the carry state does the bookkeeping.
        segs = _phase_segments(rng, n=600, inst=97)
        cfg = ProfilerConfig(unit_size=20_000, snapshot_period=333, seed=3)
        _run_both(segs, cfg, (2, 11))

    def test_segment_larger_than_unit(self):
        rng = np.random.default_rng(np.random.SeedSequence([99, 6]))
        # One segment streams several boundaries past at once.
        segs = _phase_segments(rng, n=30, inst=25_000)
        _run_both(segs, self.CFG, (1, 4, 30))

    def test_empty_batches_are_noops(self):
        rng = np.random.default_rng(np.random.SeedSequence([99, 7]))
        segs = _phase_segments(rng, n=120, inst=199)
        data = segments_to_array(segs)
        cfg = self.CFG
        fast = _UnitCutter(0, cfg)
        interleaved = []
        empty = empty_segment_array()
        for i in range(0, len(data), 10):
            interleaved.extend(fast.feed_array(empty))
            interleaved.extend(fast.feed_array(data[i : i + 10]))
        interleaved.extend(fast.flush())
        ref = ReferenceUnitCutter(0, cfg)
        ref_units = []
        for seg in segs:
            ref_units.extend(ref.feed(seg))
        ref_units.extend(ref.flush())
        _units_identical(interleaved, ref_units)
