"""Streaming trace-plane benchmark: columnar throughput, flat memory.

Three claims of the columnar trace plane, measured on the same
deterministic synthetic stream (packed ``SEGMENT_DTYPE`` batches built
vectorised, no per-segment Python objects on the producer side):

* **Parity** — the streaming profiler's units are bit-identical to the
  batch profiler's on the identical stream: both run the same unit
  cutter, fed ``ROWS_PER_BATCH``-row batches in one case and the whole
  thread as one batch in the other, so this checks that the cutter's
  output does not depend on the batch split.
* **Throughput** — the columnar consumer (``StreamingProfiler`` over
  ``feed_array``) beats the pre-columnar object path
  (:class:`repro.core._reference.ReferenceUnitCutter` fed one
  ``TraceSegment`` at a time, objects materialised exactly as the old
  wire format carried them) by at least ``RATIO_FLOOR``.
* **Scale** — a 10× longer job (10⁶ sampling units ≈ 10⁷ segments in
  the full run) moves sustained units/s and peak traced memory by
  less than 2×: the stream holds one in-flight unit, never the trace.

The scale test doubles as the CI regression gate: with
``benchmarks/baselines/streaming_baseline.json`` present, sustained
units/s may not fall below baseline / ``REGRESSION_FACTOR``.

Writes the evidence to ``BENCH_streaming.json`` for the CI artifact.
``SIMPROF_BENCH_SMOKE=1`` shrinks every scale for the CI smoke job.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from pathlib import Path
from typing import Iterator

import numpy as np
from conftest import emit

from repro.core._reference import ReferenceUnitCutter
from repro.core.profiler import ProfilerConfig, SimProfProfiler, StreamingProfiler
from repro.jvm.job import JobTrace
from repro.jvm.machine import MachineConfig, OpKind
from repro.jvm.methods import CallStack, MethodRegistry, StackTable
from repro.jvm.segments import SEGMENT_DTYPE
from repro.jvm.stream import (
    JobEnd,
    SegmentBatch,
    ThreadStart,
    TraceStream,
)
from repro.jvm.threads import OP_KIND_CODES
from repro.runtime.store import default_store

SMOKE = os.environ.get("SIMPROF_BENCH_SMOKE") == "1"
UNIT_SIZE = 1_000_000
SNAPSHOT_PERIOD = 50_000
SEGMENT_INSTRUCTIONS = 100_000  # 10 segments per sampling unit
ROWS_PER_BATCH = 10_000  # segments per SegmentBatch on the wire

BASE_UNITS = 8 if SMOKE else 40  # memory sweep base length
SWEEP = (1, 3, 10)
REF_UNITS = 50 if SMOKE else 500  # object-path comparison length
RATIO_FLOOR = 2.0 if SMOKE else 5.0
SCALE_UNITS = 10_000 if SMOKE else 1_000_000  # sustained-throughput length

BASELINE_PATH = Path(__file__).parent / "baselines" / "streaming_baseline.json"
REGRESSION_FACTOR = 2.0

CONFIG = ProfilerConfig(
    unit_size=UNIT_SIZE, snapshot_period=SNAPSHOT_PERIOD, seed=0
)

# Accumulated by the tests in definition order; the last one writes the
# JSON artifact.
RESULTS: dict = {}


def _shared_context() -> tuple[MethodRegistry, StackTable, list[int]]:
    """One registry/stack table reused by every stream of the sweep."""
    registry = MethodRegistry()
    table = StackTable(registry)
    root = registry.intern("bench.Worker", "run")
    stacks = []
    for name in ("scan", "hash", "merge", "spill", "emit", "flush"):
        mid = registry.intern("bench.Worker", name)
        stacks.append(table.intern(CallStack((root, mid))))
    return registry, table, stacks


def _batch_rows(start: int, n: int, stacks: list[int]) -> np.ndarray:
    """Rows ``start .. start+n`` of the synthetic trace, packed columnar.

    Deterministic CPI/stack patterns (pure index arithmetic, no RNG) so
    every invocation with the same indices produces identical bytes.
    """
    idx = np.arange(start, start + n, dtype=np.int64)
    data = np.zeros(n, dtype=SEGMENT_DTYPE)
    data["stack_id"] = np.asarray(stacks, dtype=np.int64)[
        (idx // 40) % len(stacks)
    ]
    data["op_kind"] = OP_KIND_CODES[OpKind.MAP]
    data["instructions"] = SEGMENT_INSTRUCTIONS
    data["cycles"] = SEGMENT_INSTRUCTIONS * (55 + (idx % 7) * 9) // 100
    data["l1d_misses"] = 64
    data["llc_misses"] = 8
    data["stage_id"] = -1
    data["task_id"] = -1
    return data


def make_stream(
    n_units: int,
    registry: MethodRegistry,
    table: StackTable,
    stacks: list[int],
    *,
    rows_per_batch: int = ROWS_PER_BATCH,
) -> TraceStream:
    """A lazy columnar stream: batches materialise only when consumed.

    Peak consumer memory is O(``rows_per_batch``), not O(trace): the
    memory-flatness sweep pins a small constant batch so the sweep
    lengths, not the wire granularity, are what vary.
    """
    n_segments = n_units * (UNIT_SIZE // SEGMENT_INSTRUCTIONS)

    def events() -> Iterator:
        yield ThreadStart(1, 0, 0)
        for start in range(0, n_segments, rows_per_batch):
            n = min(rows_per_batch, n_segments - start)
            yield SegmentBatch(1, _batch_rows(start, n, stacks))
        yield JobEnd({})

    return TraceStream(
        framework="synthetic",
        workload="synth",
        input_name="default",
        registry=registry,
        stack_table=table,
        machine=MachineConfig(),
        events=events(),
    )


def _stream_run(
    n_units: int, ctx, *, rows_per_batch: int = ROWS_PER_BATCH
) -> tuple[float, int, float]:
    """(peak KiB, units emitted, units/s) for the columnar path.

    Consumes ``StreamingProfiler.units`` with aggregation only — the
    O(active-unit) mode a live monitor would use — so the peak reflects
    in-flight state, not a retained profile.
    """
    profiler = StreamingProfiler(CONFIG)
    tracemalloc.start()
    count = 0
    instructions = 0.0
    start = time.perf_counter()
    stream = make_stream(n_units, *ctx, rows_per_batch=rows_per_batch)
    for _tid, unit in profiler.units(stream):
        count += 1
        instructions += unit.instructions
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert instructions == float(n_units * UNIT_SIZE)
    return peak / 1024.0, count, count / elapsed if elapsed > 0 else 0.0


def _batch_run(
    n_units: int, ctx, *, rows_per_batch: int = ROWS_PER_BATCH
) -> tuple[float, int]:
    """(peak KiB, units) for the batch path on the same stream."""
    tracemalloc.start()
    trace = JobTrace.from_stream(
        make_stream(n_units, *ctx, rows_per_batch=rows_per_batch)
    )
    job = SimProfProfiler(CONFIG).profile(trace)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / 1024.0, job.n_units


def _reference_run(n_units: int, ctx) -> tuple[list, float]:
    """(units, units/s) for the pre-columnar object path.

    Batches arrive columnar off the wire either way; the object path's
    first act was always to materialise per-segment objects, so that
    conversion is charged to it.
    """
    cutter = ReferenceUnitCutter(1, CONFIG)
    units = []
    start = time.perf_counter()
    for event in make_stream(n_units, *ctx):
        if isinstance(event, SegmentBatch):
            for seg in event.segments:
                units.extend(cutter.feed(seg))
    units.extend(cutter.flush())
    elapsed = time.perf_counter() - start
    return units, len(units) / elapsed if elapsed > 0 else 0.0


def test_stream_profile_matches_batch():
    """Bit-exact parity on the synthetic stream at the base length."""
    ctx = _shared_context()
    trace = JobTrace.from_stream(make_stream(BASE_UNITS, *ctx))
    batch = SimProfProfiler(CONFIG).profile(trace)
    streamed = StreamingProfiler(CONFIG).consume(make_stream(BASE_UNITS, *ctx))
    assert streamed.profile.thread_id == batch.profile.thread_id
    assert len(streamed.profile.units) == len(batch.profile.units)
    for b, s in zip(batch.profile.units, streamed.profile.units):
        assert b.index == s.index
        assert b.instructions == s.instructions
        assert b.cycles == s.cycles
        assert b.l1d_misses == s.l1d_misses
        assert b.llc_misses == s.llc_misses
        assert np.array_equal(b.stack_ids, s.stack_ids)
        assert np.array_equal(b.stack_counts, s.stack_counts)


def test_columnar_beats_object_path():
    """Columnar consumer vs the reference object path: same units, faster."""
    ctx = _shared_context()
    ref_units, ref_rate = _reference_run(REF_UNITS, ctx)

    profiler = StreamingProfiler(CONFIG)
    col_units = []
    start = time.perf_counter()
    for _tid, unit in profiler.units(make_stream(REF_UNITS, *ctx)):
        col_units.append(unit)
    elapsed = time.perf_counter() - start
    col_rate = len(col_units) / elapsed if elapsed > 0 else 0.0

    assert len(col_units) == len(ref_units) == REF_UNITS
    for c, r in zip(col_units, ref_units):
        assert c.index == r.index
        assert c.instructions == r.instructions
        assert c.cycles == r.cycles
        assert np.array_equal(c.stack_ids, r.stack_ids)
        assert np.array_equal(c.stack_counts, r.stack_counts)

    speedup = col_rate / ref_rate if ref_rate > 0 else float("inf")
    RESULTS["throughput"] = {
        "units": REF_UNITS,
        "reference_units_per_sec": round(ref_rate, 1),
        "columnar_units_per_sec": round(col_rate, 1),
        "speedup": round(speedup, 1),
        "ratio_floor": RATIO_FLOOR,
    }
    emit(
        "Columnar vs object-path throughput",
        f"  reference {ref_rate:>10,.1f} units/s | "
        f"columnar {col_rate:>10,.1f} units/s | {speedup:.1f}x "
        f"(floor {RATIO_FLOOR:.0f}x, {REF_UNITS} units)",
    )
    assert speedup >= RATIO_FLOOR, (
        f"columnar path only {speedup:.1f}x the object path "
        f"(floor {RATIO_FLOOR:.0f}x)"
    )


def test_columnar_scale_sustains_throughput():
    """The 10⁶-unit job: sustained units/s, flat peak, regression gate."""
    ctx = _shared_context()
    base_peak, _, _ = _stream_run(SCALE_UNITS // 10, ctx)
    scale_peak, scale_units, scale_rate = _stream_run(SCALE_UNITS, ctx)
    assert scale_units == SCALE_UNITS
    # One in-flight unit per thread: 10x the job length must not
    # meaningfully move the peak.
    assert scale_peak < 2.0 * base_peak

    RESULTS["scale"] = {
        "units": SCALE_UNITS,
        "segments": SCALE_UNITS * (UNIT_SIZE // SEGMENT_INSTRUCTIONS),
        "units_per_sec": round(scale_rate, 1),
        "peak_kib_tenth": round(base_peak, 1),
        "peak_kib_full": round(scale_peak, 1),
    }
    emit(
        "Columnar scale run",
        f"  {scale_units:,} units ({RESULTS['scale']['segments']:,} "
        f"segments): {scale_rate:>10,.1f} units/s | peak "
        f"{scale_peak:,.1f} KiB (vs {base_peak:,.1f} KiB at 1/10 length)",
    )

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        floor = baseline["smoke_units_per_sec"] / REGRESSION_FACTOR
        if SMOKE:
            assert scale_rate >= floor, (
                f"REGRESSION: columnar throughput {scale_rate:,.1f} units/s "
                f"< baseline {baseline['smoke_units_per_sec']:,.1f} / "
                f"{REGRESSION_FACTOR:.0f}"
            )
        RESULTS["scale"]["baseline_units_per_sec"] = baseline[
            "smoke_units_per_sec"
        ]


def test_streaming_memory_stays_flat(benchmark):
    """The headline sweep: batch peak grows ~linearly, stream peak flat."""
    ctx = _shared_context()
    rows = []
    # A constant 4-unit wire batch: in-flight state is identical at
    # every sweep length, so only the retained trace can move the peak.
    sweep_batch = 4 * (UNIT_SIZE // SEGMENT_INSTRUCTIONS)
    for factor in SWEEP:
        n = BASE_UNITS * factor
        stream_peak, stream_units, units_per_sec = _stream_run(
            n, ctx, rows_per_batch=sweep_batch
        )
        batch_peak, batch_units = _batch_run(n, ctx, rows_per_batch=sweep_batch)
        assert stream_units == batch_units == n
        rows.append(
            {
                "factor": factor,
                "units": n,
                "segments": n * (UNIT_SIZE // SEGMENT_INSTRUCTIONS),
                "stream_peak_kib": round(stream_peak, 1),
                "batch_peak_kib": round(batch_peak, 1),
                "units_per_sec": round(units_per_sec, 1),
                "us_per_unit": round(1e6 / units_per_sec, 1)
                if units_per_sec > 0 else None,
            }
        )

    base, top = rows[0], rows[-1]
    # Streaming holds one in-flight unit: a 10x longer trace must not
    # meaningfully move the peak.  Batch holds the whole trace: the
    # peak must scale with length.
    assert top["stream_peak_kib"] < 2.0 * base["stream_peak_kib"]
    assert top["batch_peak_kib"] > 5.0 * base["batch_peak_kib"]

    # Time the streaming kernel itself on a fresh base-length stream
    # (streams are single-shot, so each round gets its own).
    benchmark.pedantic(
        lambda s: sum(1 for _ in StreamingProfiler(CONFIG).units(s)),
        setup=lambda: ((make_stream(BASE_UNITS, *ctx),), {}),
        rounds=3,
        iterations=1,
    )

    store_stats = default_store().stats
    payload = {
        "benchmark": "streaming-profiler",
        "smoke": SMOKE,
        "unit_size": UNIT_SIZE,
        "snapshot_period": SNAPSHOT_PERIOD,
        "segment_instructions": SEGMENT_INSTRUCTIONS,
        "rows_per_batch": ROWS_PER_BATCH,
        "sweep": rows,
        **RESULTS,
        "store": {
            "memory_hits": store_stats.memory_hits,
            "disk_hits": store_stats.disk_hits,
            "misses": store_stats.misses,
            "puts": store_stats.puts,
        },
    }
    with open("BENCH_streaming.json", "w") as fh:
        json.dump(payload, fh, indent=2)

    emit(
        "Streaming profiler: peak memory vs trace length",
        "\n".join(
            f"  {r['factor']:>3}x ({r['units']:>4} units): "
            f"stream {r['stream_peak_kib']:>9,.1f} KiB | "
            f"batch {r['batch_peak_kib']:>10,.1f} KiB | "
            f"{r['units_per_sec']:>8,.1f} units/s"
            for r in rows
        )
        + f"\n  batch grows {top['batch_peak_kib'] / base['batch_peak_kib']:.1f}x, "
        f"stream {top['stream_peak_kib'] / base['stream_peak_kib']:.2f}x "
        "across a 10x length sweep (wrote BENCH_streaming.json)",
    )
