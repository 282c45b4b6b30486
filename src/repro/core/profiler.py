"""Thread profiling (Section III-A).

Cuts an executor thread's instruction stream into the sampling units
SimProf works with, reading the thread only as a real JVMTI/perf_event
agent could — the live call stack at each poll point and the hardware
counters at each unit boundary:

* the thread's instruction stream is cut into fixed-size units
  (default 100 M instructions; a trailing partial unit is dropped),
* the call stack is snapshotted every ``snapshot_period`` instructions
  (``ProfilerConfig.snapshot_period``, default 2 M — see the field
  comment for why this repo deviates from the paper's 10 M),
* hardware counters are read per unit.

For Hadoop jobs the incoming trace has already been merged per core by
the runtime, so the profiler is framework-agnostic here.

One incremental cutter, :class:`_UnitCutter`, does the cutting for
both consumption modes:

* :class:`SimProfProfiler` — over a fully materialised
  :class:`~repro.jvm.job.JobTrace`, fed to the cutter as one batch;
* :class:`StreamingProfiler` — over a
  :class:`~repro.jvm.stream.TraceStream`, emitting each
  :class:`~repro.core.units.SamplingUnit` the moment its closing
  boundary streams past, holding only O(active-unit) state per thread.

The cutter's output does not depend on how the segments are chunked
into batches, so under the same seed both modes give bit-identical
units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

from repro.core.units import JobProfile, SamplingUnit, ThreadProfile
from repro.jvm.job import JobTrace, StageInfo
from repro.jvm.stream import (
    JobEnd,
    SegmentBatch,
    StageEvent,
    ThreadStart,
    TraceEvent,
    TraceStream,
)
from repro.jvm.threads import ThreadTrace
from repro.runtime.instrument import ThroughputMeter, stage_timer
from repro.runtime.snapshot import restore_rng, rng_state

__all__ = [
    "ProfilerConfig",
    "ProfilerSession",
    "SimProfProfiler",
    "StreamingProfiler",
    "profile_trace",
    "select_thread",
]


@dataclass(frozen=True, slots=True)
class ProfilerConfig:
    """Profiling knobs.

    ``thread_id=None`` profiles the busiest executor thread (the paper
    samples a single executor thread; the busiest one covers every
    stage).  ``unit_size`` keeps the paper's 100 M-instruction units;
    ``snapshot_period`` defaults to 2 M rather than the paper's 10 M
    (see the field comment below).
    """

    unit_size: int = 100_000_000
    # The paper polls every 10 M instructions.  With the simulator's
    # narrower stack vocabulary, 10 samples per unit quantise mixture
    # fractions into a coarse lattice that manufactures phantom phases,
    # so the default here is 2 M (50 samples/unit); the ablation bench
    # covers the paper's 10 M setting.
    snapshot_period: int = 2_000_000
    thread_id: int | None = None
    # Relative jitter of the poll timer: real JVMTI sampling is not
    # phase-locked to the instruction counter, so the stack mixture a
    # unit sees carries multinomial sampling noise.
    snapshot_jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.unit_size <= 0:
            raise ValueError("unit_size must be positive")
        if self.snapshot_period <= 0:
            raise ValueError("snapshot_period must be positive")
        if self.snapshot_period > self.unit_size:
            raise ValueError("snapshot_period cannot exceed unit_size")
        if not 0.0 <= self.snapshot_jitter < 1.0:
            raise ValueError("snapshot_jitter must be in [0, 1)")


def _require_one_unit(thread_id: int, total: int, unit_size: int) -> None:
    """Reject a thread too short to complete a single sampling unit.

    The cutter completes a unit exactly when ``total >= unit_size``
    (the trailing partial unit is dropped), so this is the "no units"
    condition, checked before any cutting.
    """
    if total < unit_size:
        raise ValueError(
            f"thread {thread_id} retired {total} instructions, "
            f"fewer than one sampling unit ({unit_size})"
        )


def select_thread(totals: Mapping[int, int], config: ProfilerConfig) -> int:
    """The id of the thread SimProf profiles, for batch and stream alike.

    ``totals`` maps each thread id to the instructions it retired, in
    ``ThreadStart`` (trace) order.  ``config.thread_id`` names the
    thread when set (``KeyError`` if the job has no such thread);
    otherwise the busiest thread is chosen — the paper samples one
    executor thread, and the busiest covers every stage — with the
    first thread winning ties.  A thread that retired fewer than
    ``config.unit_size`` instructions raises ``ValueError``.
    """
    selected = config.thread_id
    if selected is None:
        if not totals:
            raise ValueError("job trace has no threads")
        selected = max(totals, key=totals.__getitem__)
    elif selected not in totals:
        raise KeyError(f"no thread {selected} in job trace")
    _require_one_unit(selected, totals[selected], config.unit_size)
    return selected


class SimProfProfiler:
    """Builds :class:`JobProfile` objects from job traces."""

    def __init__(self, config: ProfilerConfig | None = None) -> None:
        self.config = config or ProfilerConfig()

    def profile_thread(self, trace: ThreadTrace) -> ThreadProfile:
        """Profile one executor thread into sampling units."""
        cfg = self.config
        _require_one_unit(trace.thread_id, trace.total_instructions, cfg.unit_size)
        cutter = _UnitCutter(trace.thread_id, cfg)
        units = cutter.feed_array(trace.to_structured()) + cutter.flush()
        return ThreadProfile(
            thread_id=trace.thread_id,
            unit_size=cfg.unit_size,
            snapshot_period=cfg.snapshot_period,
            units=units,
        )

    def profile(self, job: JobTrace) -> JobProfile:
        """Profile the configured (default: busiest) executor thread."""
        totals: dict[int, int] = {}
        for t in job.traces:
            totals.setdefault(t.thread_id, t.total_instructions)
        trace = job.thread(select_thread(totals, self.config))
        return JobProfile(
            workload=job.workload,
            framework=job.framework,
            input_name=job.input_name,
            profile=self.profile_thread(trace),
            registry=job.registry,
            stack_table=job.stack_table,
            machine=job.machine,
            stages=list(job.stages),
            meta=dict(job.meta),
        )


def profile_trace(trace: JobTrace, config: ProfilerConfig) -> JobProfile:
    """Stage 1: profile a job trace's configured (default: busiest) thread."""
    profiler = SimProfProfiler(config)
    with stage_timer("profiling") as rec:
        job = profiler.profile(trace)
        rec.add(units=job.n_units)
    return job


class _UnitCutter:
    """Incremental columnar unit cutter for one thread.

    Consumes whole :data:`~repro.jvm.segments.SEGMENT_DTYPE` batches
    (:meth:`feed_array`); the units it emits do not depend on how the
    segment sequence is split into batches:

    * the chained ``np.cumsum`` over each batch's float64 counter
      columns equals one cumsum over the whole thread bit for bit
      (both are sequential left-to-right accumulation, and the carry is
      the exact running value);
    * poll points come from one PCG64 stream seeded by
      ``(seed, thread_id)`` — chunked ``uniform(size=n)`` draws consume
      the generator exactly like ``n`` scalar draws, and the buffered
      leftovers are the next draws in order;
    * snapshot→segment assignment is ``searchsorted(cum_end, points,
      side="right")`` — a poll point belongs to the first segment whose
      cumulative count strictly exceeds it, the consume-when-passed
      rule — and only points below the instructions retired so far
      fire;
    * boundary counters come from one ``np.interp`` per column over the
      batch-local chained cumsum, which selects the same bracketing
      interval (and the same last-duplicate resolution for exact
      matches) as one call over the whole thread.

    Two ordering rules keep the duplicate-abscissa semantics of
    ``np.interp`` (exact matches resolve to the *last* duplicate): a
    unit boundary is processed only once the integer instruction
    counter strictly exceeds it, so zero-instruction segments sitting
    exactly on a boundary fold their counters into the left endpoint
    first; and a boundary equal to the thread's final total is flushed
    at finalisation with the final cumulative values.  All snapshots of
    a unit land in segments at or before the unit's closing boundary's
    crossing segment, so bucketing a batch's snapshots before emitting
    its boundaries preserves the per-segment interleaving.

    The scalar per-segment original lives on as
    :class:`repro.core._reference.ReferenceUnitCutter`, which sees one
    segment per call; the parity suite feeds both the same streams
    under arbitrary batch splits and holds the units bit-identical,
    which is what pins the chunking invariance.
    """

    __slots__ = (
        "thread_id",
        "_cfg",
        "total",
        "_cum_i",
        "_cum_c",
        "_cum_l1",
        "_cum_llc",
        "_prev_b",
        "_prev_c",
        "_prev_l1",
        "_prev_llc",
        "_next_boundary",
        "_rng",
        "_first",
        "_gap_sum",
        "_point_int",
        "_counts",
        "_gap_buf",
        "_gap_pos",
    )

    def __init__(self, thread_id: int, cfg: ProfilerConfig) -> None:
        self.thread_id = thread_id
        self._cfg = cfg
        self.total = 0  # integer instruction counter (the JVMTI clock)
        self._cum_i = 0.0  # float64 cumulative counters (the perf columns)
        self._cum_c = 0.0
        self._cum_l1 = 0.0
        self._cum_llc = 0.0
        # Counter values interpolated at the last processed boundary.
        self._prev_b = 0
        self._prev_c = 0.0
        self._prev_l1 = 0.0
        self._prev_llc = 0.0
        # Boundary 0 goes through the same deferred machinery so a
        # zero-instruction prefix folds into its left endpoint exactly
        # as np.interp's last-duplicate rule would have it.
        self._next_boundary = 0
        # Poll timer state: the first poll fires one period in, each
        # later one period * U(1 - jitter, 1 + jitter) after the last.
        self._first = cfg.snapshot_period
        if cfg.snapshot_jitter == 0.0:
            self._rng = None
        else:
            self._rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, thread_id & 0x7FFFFFFF])
            )
        self._gap_sum = 0.0
        self._point_int = self._first
        # unit index -> {stack_id: count}; only units whose closing
        # boundary has not streamed past yet are resident.
        self._counts: dict[int, dict[int, int]] = {}
        # Buffered jitter gaps: chunked uniform draws, consumed in draw
        # order so the stream position always matches the scalar path.
        self._gap_buf = np.empty(0, dtype=np.float64)
        self._gap_pos = 0

    def _peek_gaps(self, n: int) -> np.ndarray:
        """The next ``n`` poll gaps, without committing the timer to them."""
        avail = len(self._gap_buf) - self._gap_pos
        if avail < n:
            cfg = self._cfg
            fresh = cfg.snapshot_period * self._rng.uniform(
                1.0 - cfg.snapshot_jitter,
                1.0 + cfg.snapshot_jitter,
                size=max(n - avail, 1024),
            )
            self._gap_buf = np.concatenate(
                [self._gap_buf[self._gap_pos :], fresh]
            )
            self._gap_pos = 0
        return self._gap_buf[self._gap_pos : self._gap_pos + n]

    def _consume_points(self, total_new: int) -> np.ndarray | None:
        """Poll points in ``[self._point_int, total_new)``; advance the timer.

        Returns the consumed points in firing order (``None`` when the
        batch ends before the next point), leaving ``_point_int`` at
        the first point ``>= total_new`` and ``_gap_sum`` at the chained
        float sum after exactly one draw per consumed point — the same
        generator state the scalar one-draw-per-advance loop reaches.
        """
        p = self._point_int
        if p >= total_new:
            return None
        period = self._cfg.snapshot_period
        if self._rng is None:
            n = (total_new - 1 - p) // period + 1
            pts = p + period * np.arange(n, dtype=np.int64)
            self._point_int = int(p + period * n)
            return pts
        first = float(self._first)
        parts = [np.array([p], dtype=np.int64)]
        while True:
            span = total_new - p
            want = int(span // period) + 2
            gaps = self._peek_gaps(want)
            # Chained cumsum: gsums[j] is _gap_sum after j+1 sequential
            # += draws, bit for bit.
            gsums = np.cumsum(np.concatenate(([self._gap_sum], gaps)))[1:]
            cands = (first + gsums).astype(np.int64)
            stop = int(np.searchsorted(cands, total_new, side="left"))
            if stop < want:
                # cands[stop] is the first point past the batch: it and
                # every earlier candidate consumed one draw each.
                parts.append(cands[:stop])
                self._gap_pos += stop + 1
                self._gap_sum = float(gsums[stop])
                self._point_int = int(cands[stop])
                return np.concatenate(parts)
            parts.append(cands)
            self._gap_pos += want
            self._gap_sum = float(gsums[-1])
            p = int(cands[-1])

    def _bucket_points(self, points: np.ndarray, stacks: np.ndarray) -> None:
        """Fold ``(point, stack)`` pairs into the per-unit count dicts."""
        units = points // self._cfg.unit_size
        order = np.lexsort((stacks, units))
        u = units[order]
        s = stacks[order]
        group_start = np.empty(len(u), dtype=bool)
        group_start[0] = True
        group_start[1:] = (u[1:] != u[:-1]) | (s[1:] != s[:-1])
        starts = np.flatnonzero(group_start)
        counts = np.diff(np.append(starts, len(u)))
        for at, cnt in zip(starts, counts):
            bucket = self._counts.setdefault(int(u[at]), {})
            sid = int(s[at])
            bucket[sid] = bucket.get(sid, 0) + int(cnt)

    def _emit_unit(self, b: int, c_b: float, l1_b: float, llc_b: float) -> SamplingUnit:
        unit_size = self._cfg.unit_size
        index = b // unit_size - 1
        counts = self._counts.pop(index, None)
        if counts:
            items = sorted(counts.items())
            ids = np.array([k for k, _ in items], dtype=np.int64)
            cnt = np.array([v for _, v in items], dtype=np.int64)
        else:
            ids = np.array([], dtype=np.int64)
            cnt = np.array([], dtype=np.int64)
        unit = SamplingUnit(
            index=index,
            stack_ids=ids,
            stack_counts=cnt,
            instructions=float(b) - float(self._prev_b),
            cycles=c_b - self._prev_c,
            l1d_misses=l1_b - self._prev_l1,
            llc_misses=llc_b - self._prev_llc,
        )
        self._prev_b = b
        self._prev_c = c_b
        self._prev_l1 = l1_b
        self._prev_llc = llc_b
        self._next_boundary = b + unit_size
        return unit

    def feed_array(self, data: np.ndarray) -> list[SamplingUnit]:
        """Account one packed segment batch; return the units it completed.

        ``data`` is a :data:`~repro.jvm.segments.SEGMENT_DTYPE` array;
        the cutter touches only its columns and never materialises
        per-segment objects.
        """
        n = len(data)
        if n == 0:
            return []
        cfg = self._cfg
        inst = data["instructions"]
        # Integer JVMTI clock per segment end (exact), and the chained
        # float64 perf columns — np.cumsum accumulates left to right, so
        # seeding it with the carry reproduces sequential += bit for bit.
        cum_end = self.total + np.cumsum(inst)
        total_new = int(cum_end[-1])
        ci = np.cumsum(
            np.concatenate(([self._cum_i], inst.astype(np.float64)))
        )
        cc = np.cumsum(
            np.concatenate(
                ([self._cum_c], data["cycles"].astype(np.float64))
            )
        )
        cl1 = np.cumsum(
            np.concatenate(
                ([self._cum_l1], data["l1d_misses"].astype(np.float64))
            )
        )
        cllc = np.cumsum(
            np.concatenate(
                ([self._cum_llc], data["llc_misses"].astype(np.float64))
            )
        )
        self.total = total_new
        self._cum_i = float(ci[-1])
        self._cum_c = float(cc[-1])
        self._cum_l1 = float(cl1[-1])
        self._cum_llc = float(cllc[-1])

        # Snapshots: searchsorted(side="right") hands each poll point to
        # the first segment whose cumulative count strictly exceeds it
        # (consume-when-passed); points at or beyond the batch total
        # stay pending, so no poll fires at the thread's final count.
        points = self._consume_points(total_new)
        if points is not None:
            seg_of_point = np.searchsorted(cum_end, points, side="right")
            self._bucket_points(points, data["stack_id"][seg_of_point])

        if total_new <= self._next_boundary:
            return []
        # Unit boundaries this batch streamed past.  One np.interp per
        # column over the batch-local chained cumsum selects the same
        # bracketing interval — and the same last-duplicate resolution
        # for boundaries sitting exactly on a segment end — as one call
        # over the whole trace.
        bs = np.arange(self._next_boundary, total_new, cfg.unit_size)
        fbs = bs.astype(np.float64)
        c_bs = np.interp(fbs, ci, cc)
        l1_bs = np.interp(fbs, ci, cl1)
        llc_bs = np.interp(fbs, ci, cllc)
        out: list[SamplingUnit] = []
        for k, b in enumerate(bs):
            b = int(b)
            if b == 0:
                # Boundary 0 opens the first unit; it emits nothing.
                self._prev_c = float(c_bs[k])
                self._prev_l1 = float(l1_bs[k])
                self._prev_llc = float(llc_bs[k])
                self._next_boundary = cfg.unit_size
            else:
                out.append(
                    self._emit_unit(
                        b, float(c_bs[k]), float(l1_bs[k]), float(llc_bs[k])
                    )
                )
        return out

    def flush(self) -> list[SamplingUnit]:
        """Emit a boundary sitting exactly on the final total, if any."""
        out: list[SamplingUnit] = []
        if self.total > 0 and self._next_boundary == self.total:
            # Exact-multiple trace: global interpolation at the last
            # abscissa returns the final cumulative values.
            out.append(
                self._emit_unit(
                    self._next_boundary, self._cum_c, self._cum_l1, self._cum_llc
                )
            )
        self._counts.clear()  # trailing partial unit is dropped
        return out

    # -- snapshot protocol -------------------------------------------

    def snapshot(self) -> dict:
        """Capture the full cutter state, PCG64 position included.

        The jitter buffer is normalised to its unconsumed tail, so the
        state a restore produces re-snapshots identically.
        """
        return {
            "kind": "unit-cutter",
            "thread_id": self.thread_id,
            "total": self.total,
            "cum": [self._cum_i, self._cum_c, self._cum_l1, self._cum_llc],
            "prev": [self._prev_b, self._prev_c, self._prev_l1, self._prev_llc],
            "next_boundary": self._next_boundary,
            "first": self._first,
            "gap_sum": self._gap_sum,
            "point_int": self._point_int,
            "rng": None if self._rng is None else rng_state(self._rng),
            "counts": [
                [unit, sorted(bucket.items())]
                for unit, bucket in sorted(self._counts.items())
            ],
            "gap_buf": self._gap_buf[self._gap_pos :].copy(),
        }

    def restore(self, state: dict) -> None:
        """Rebuild from :meth:`snapshot` output (same thread and config)."""
        if state.get("kind") != "unit-cutter":
            raise ValueError(f"not a unit-cutter snapshot: {state.get('kind')!r}")
        if int(state["thread_id"]) != self.thread_id:
            raise ValueError(
                f"snapshot is for thread {state['thread_id']}, "
                f"cutter is thread {self.thread_id}"
            )
        self.total = int(state["total"])
        cum = state["cum"]
        self._cum_i = float(cum[0])
        self._cum_c = float(cum[1])
        self._cum_l1 = float(cum[2])
        self._cum_llc = float(cum[3])
        prev = state["prev"]
        self._prev_b = int(prev[0])
        self._prev_c = float(prev[1])
        self._prev_l1 = float(prev[2])
        self._prev_llc = float(prev[3])
        self._next_boundary = int(state["next_boundary"])
        self._first = int(state["first"])
        self._gap_sum = float(state["gap_sum"])
        self._point_int = int(state["point_int"])
        self._rng = None if state["rng"] is None else restore_rng(state["rng"])
        self._counts = {
            int(unit): {int(sid): int(cnt) for sid, cnt in bucket}
            for unit, bucket in state["counts"]
        }
        self._gap_buf = np.asarray(state["gap_buf"], dtype=np.float64).copy()
        self._gap_pos = 0


def _unit_state(unit: SamplingUnit) -> dict:
    return {
        "index": unit.index,
        "stack_ids": unit.stack_ids,
        "stack_counts": unit.stack_counts,
        "instructions": unit.instructions,
        "cycles": unit.cycles,
        "l1d_misses": unit.l1d_misses,
        "llc_misses": unit.llc_misses,
    }


def _unit_from_state(state: dict) -> SamplingUnit:
    return SamplingUnit(
        index=int(state["index"]),
        stack_ids=np.asarray(state["stack_ids"], dtype=np.int64),
        stack_counts=np.asarray(state["stack_counts"], dtype=np.int64),
        instructions=float(state["instructions"]),
        cycles=float(state["cycles"]),
        l1d_misses=float(state["l1d_misses"]),
        llc_misses=float(state["llc_misses"]),
    )


class ProfilerSession:
    """Push-mode streaming profiler: feed events, harvest units.

    Owns the per-thread :class:`_UnitCutter` fleet and the
    stage/meta/totals bookkeeping (:class:`_StreamSink`).  Where
    :meth:`StreamingProfiler.units` pulls from a stream, a session is
    *fed* one event at a time — which is what makes the pipeline
    suspendable: between any two ``feed`` calls, :meth:`snapshot`
    captures the complete mutable state (cutter carries, PCG64
    positions, collected units) and :meth:`restore` on a fresh session
    resumes bit-identically.

    ``collect=True`` retains emitted units per thread so
    :meth:`result` can assemble a :class:`JobProfile` (the
    :meth:`StreamingProfiler.consume` mode); ``collect=False`` keeps
    the O(active-unit) memory guarantee for pure generators.
    """

    def __init__(
        self,
        config: ProfilerConfig,
        stream: TraceStream,
        *,
        sink: "_StreamSink | None" = None,
        collect: bool = False,
    ) -> None:
        self.config = config
        self.stream = stream
        self.sink = sink if sink is not None else _StreamSink()
        self.collect = collect
        self.batches_fed = 0
        self._cutters: dict[int, _UnitCutter] = {}
        self._seen: set[int] = set()
        self._units: dict[int, list[SamplingUnit]] = {}
        self._finished = False

    # -- event pump --------------------------------------------------

    def feed(self, event: TraceEvent) -> list[tuple[int, SamplingUnit]]:
        """Feed one stream event; returns the units it completed."""
        emitted: list[tuple[int, SamplingUnit]] = []
        if isinstance(event, SegmentBatch):
            self.batches_fed += 1
            cutter = self._cutters.get(event.thread_id)
            if cutter is None:
                if event.thread_id not in self._seen:
                    raise ValueError(
                        f"segment batch for unknown thread {event.thread_id} "
                        "(no ThreadStart seen)"
                    )
                return emitted  # thread deliberately not cut
            tid = event.thread_id
            units = cutter.feed_array(event.data)
            if units:
                if self.collect:
                    self._units.setdefault(tid, []).extend(units)
                emitted.extend((tid, unit) for unit in units)
        elif isinstance(event, ThreadStart):
            self._seen.add(event.thread_id)
            only = self.config.thread_id
            if only is None or event.thread_id == only:
                self._cutters[event.thread_id] = _UnitCutter(
                    event.thread_id, self.config
                )
        elif isinstance(event, StageEvent):
            self.sink.stages.append(event.info)
        elif isinstance(event, JobEnd):
            self.sink.meta.update(event.meta)
        return emitted

    def finish(self) -> list[tuple[int, SamplingUnit]]:
        """End of stream: flush every cutter and seal the sink."""
        if self._finished:
            return []
        self._finished = True
        emitted: list[tuple[int, SamplingUnit]] = []
        for tid, cutter in self._cutters.items():
            units = cutter.flush()
            if units:
                if self.collect:
                    self._units.setdefault(tid, []).extend(units)
                emitted.extend((tid, unit) for unit in units)
            self.sink.totals[tid] = cutter.total
        return emitted

    # -- result assembly ---------------------------------------------

    def result(self) -> JobProfile:
        """Assemble the :class:`JobProfile` (after :meth:`finish`).

        The profiled thread is the one :func:`select_thread` picks from
        the cut threads' totals (kept in ThreadStart order), exactly as
        on the batch path.
        """
        if not self._finished:
            raise ValueError("session is still streaming; call finish() first")
        cfg = self.config
        sink = self.sink
        selected = select_thread(sink.totals, cfg)
        stream = self.stream
        return JobProfile(
            workload=stream.workload,
            framework=stream.framework,
            input_name=stream.input_name,
            profile=ThreadProfile(
                thread_id=selected,
                unit_size=cfg.unit_size,
                snapshot_period=cfg.snapshot_period,
                units=self._units.get(selected, []),
            ),
            registry=stream.registry,
            stack_table=stream.stack_table,
            machine=stream.machine,
            stages=sink.stages,
            meta=sink.meta,
        )

    # -- snapshot protocol -------------------------------------------

    def snapshot(self) -> dict:
        """Capture the complete session state as a codec-safe dict."""
        return {
            "kind": "profiler-session",
            "collect": self.collect,
            "batches_fed": self.batches_fed,
            "seen": sorted(self._seen),
            # Insertion order is ThreadStart order — the busiest-thread
            # tie-break depends on it, so cutters ride as an ordered list.
            "cutters": [
                [tid, cutter.snapshot()] for tid, cutter in self._cutters.items()
            ],
            "sink": self.sink.snapshot(),
            "units": [
                [tid, [_unit_state(unit) for unit in units]]
                for tid, units in self._units.items()
            ],
        }

    def restore(self, state: dict) -> None:
        """Rebuild session state; the stream binding stays fresh."""
        if state.get("kind") != "profiler-session":
            raise ValueError(
                f"not a profiler-session snapshot: {state.get('kind')!r}"
            )
        if bool(state["collect"]) != self.collect:
            raise ValueError("snapshot collect mode does not match session")
        self.batches_fed = int(state["batches_fed"])
        self._seen = {int(tid) for tid in state["seen"]}
        self._cutters = {}
        for tid, cutter_state in state["cutters"]:
            cutter = _UnitCutter(int(tid), self.config)
            cutter.restore(cutter_state)
            self._cutters[int(tid)] = cutter
        self.sink.restore(state["sink"])
        self._units = {
            int(tid): [_unit_from_state(u) for u in units]
            for tid, units in state["units"]
        }
        self._finished = False


class StreamingProfiler:
    """Incremental profiler over a :class:`~repro.jvm.stream.TraceStream`.

    Where :class:`SimProfProfiler` needs the whole trace in memory,
    this consumes segment events as they arrive — each thread carries a
    constant-size :class:`_UnitCutter` — and emits every completed
    sampling unit immediately.  The batch path feeds the same cutter
    the whole thread at once, so with the same :class:`ProfilerConfig`
    (seed included) the produced units are bit-identical.
    """

    def __init__(self, config: ProfilerConfig | None = None) -> None:
        self.config = config or ProfilerConfig()

    # -- live unit emission -------------------------------------------------

    def units(
        self,
        stream: TraceStream,
        *,
        sink: "_StreamSink | None" = None,
    ) -> Iterator[tuple[int, SamplingUnit]]:
        """Yield ``(thread_id, unit)`` pairs as units complete.

        When ``config.thread_id`` is set only that thread is cut (other
        threads' events are skipped, keeping memory constant); otherwise
        every thread is cut and the caller filters.  Pass a ``sink`` to
        additionally collect stage/meta/total bookkeeping (used by
        :meth:`consume`; plain callers can ignore it).

        """
        session = ProfilerSession(self.config, stream, sink=sink, collect=False)
        for event in stream:
            yield from session.feed(event)
        yield from session.finish()

    # -- batch-compatible consumption ---------------------------------------

    def consume(
        self,
        stream: TraceStream,
        *,
        meter: ThroughputMeter | None = None,
        checkpoint: "Any | None" = None,
    ) -> JobProfile:
        """Drive the stream to completion and build a :class:`JobProfile`.

        Thread selection matches the batch path (:func:`select_thread`).
        ``meter`` ticks once per emitted
        unit so streaming throughput lands in the instrumentation
        counters.

        ``checkpoint`` is an optional
        :class:`~repro.runtime.checkpoint.CheckpointPolicy`: the
        session state is persisted every ``policy.every`` batches, a
        prior checkpoint is resumed from when ``policy.resume`` is set,
        and the result is bit-identical to an uninterrupted run.  When
        it is ``None`` (the default) the consume loop below contains
        no checkpoint logic at all — the non-resumable path costs
        nothing extra.
        """
        session = ProfilerSession(self.config, stream, collect=True)
        if checkpoint is None:
            for event in stream:
                emitted = session.feed(event)
                if meter is not None and emitted:
                    meter.tick(len(emitted))
            emitted = session.finish()
            if meter is not None and emitted:
                meter.tick(len(emitted))
        else:
            # Local import: the checkpoint layer lives in runtime and
            # imports the store; pulling it in lazily keeps the plain
            # streaming path free of that dependency.
            from repro.runtime.checkpoint import drive_session

            drive_session(session, stream, checkpoint, meter=meter)
        return session.result()


class _StreamSink:
    """Side-channel bookkeeping collected while a stream is consumed."""

    __slots__ = ("stages", "meta", "totals")

    def __init__(self) -> None:
        self.stages: list[StageInfo] = []
        self.meta: dict[str, Any] = {}
        self.totals: dict[int, int] = {}

    # -- snapshot protocol -------------------------------------------

    def snapshot(self) -> dict:
        return {
            "kind": "stream-sink",
            "stages": [[s.stage_id, s.name, s.n_tasks] for s in self.stages],
            "meta": self.meta,
            "totals": [[tid, total] for tid, total in self.totals.items()],
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "stream-sink":
            raise ValueError(f"not a stream-sink snapshot: {state.get('kind')!r}")
        self.stages = [
            StageInfo(stage_id=int(sid), name=str(name), n_tasks=int(n))
            for sid, name, n in state["stages"]
        ]
        self.meta = dict(state["meta"])
        self.totals = {int(tid): int(total) for tid, total in state["totals"]}
