"""Executor-thread traces.

Framework executors do two things at once: they *really compute* (count
words, sort keys, propagate labels) and, for every batch of work, they
emit a :class:`TraceSegment` describing what the simulated hardware did
during that batch — the call stack that was live, the operation kind,
and the counter values from :class:`~repro.jvm.machine.HardwareModel`.

A :class:`ThreadTrace` is the full segment sequence of one executor
thread; the SimProf profiler consumes traces only through the
JVMTI/perf-like interfaces in :mod:`repro.jvm.jvmti` and
:mod:`repro.jvm.perf`, never through the segments directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jvm.machine import AccessPattern, HardwareModel, OpKind
from repro.jvm.methods import CallStack, StackTable

__all__ = ["TraceSegment", "ThreadTrace", "TraceBuilder"]

# Stable integer coding of OpKind for the packed arrays.
OP_KIND_CODES: dict[OpKind, int] = {kind: i for i, kind in enumerate(OpKind)}
OP_KINDS_BY_CODE: tuple[OpKind, ...] = tuple(OpKind)


@dataclass(frozen=True, slots=True)
class TraceSegment:
    """One contiguous batch of work on one thread.

    ``stack_id`` refers to the job's :class:`~repro.jvm.methods.StackTable`.
    ``stage_id``/``task_id`` are framework metadata (−1 when outside any
    task) used by analysis code, not by SimProf itself.
    """

    stack_id: int
    op_kind: OpKind
    instructions: int
    cycles: int
    l1d_misses: int
    llc_misses: int
    stage_id: int = -1
    task_id: int = -1
    cold: bool = False

    @property
    def cpi(self) -> float:
        """Cycles per instruction of the segment."""
        return self.cycles / self.instructions if self.instructions else 0.0


class ThreadTrace:
    """The ordered segments of one executor thread.

    ``start_cycle`` anchors the trace on the global job timeline so
    short-lived Hadoop task threads can be merged per core in time
    order (Section III-A).

    At rest (pickled into the artifact store) a trace is its packed
    columns, each narrowed to the smallest integer type that holds it
    (:func:`~repro.jvm.segments.pack_columns`).  A loaded trace keeps
    only the packed array: :meth:`to_structured`, :meth:`to_arrays`,
    the totals and ``len`` read it directly, and the
    :class:`TraceSegment` objects are built on the first read of
    :attr:`segments`.
    """

    def __init__(
        self,
        thread_id: int,
        core_id: int,
        segments: list[TraceSegment] | None = None,
        start_cycle: int = 0,
    ) -> None:
        self.thread_id = thread_id
        self.core_id = core_id
        self.start_cycle = start_cycle
        # None while the trace holds only its packed array (a loaded
        # trace); the objects are then built on first access.
        self._segments: list[TraceSegment] | None = (
            [] if segments is None else segments
        )
        # Totals cache: (epoch, n_segments, instructions, cycles).  Hot
        # profiler loops read the totals per unit, so re-summing the
        # whole segment list per access is O(trace) where O(1)
        # suffices.  The key includes an epoch bumped by
        # clear_segments() because a streaming flush can clear and
        # repopulate to the same length.
        self._totals_cache: tuple[int, int, int, int] | None = None
        # Packed-array cache: ((epoch, n_segments), SEGMENT_DTYPE array).
        # Shared by to_structured()/to_arrays() so the replay streamer,
        # the snapshotter, and the counter reader pack each trace state
        # once.
        self._structured_cache: "tuple[tuple[int, int], np.ndarray] | None" = None
        self._epoch = 0

    def __repr__(self) -> str:
        return (
            f"ThreadTrace(thread_id={self.thread_id!r}, "
            f"core_id={self.core_id!r}, n_segments={len(self)}, "
            f"start_cycle={self.start_cycle!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreadTrace):
            return NotImplemented
        return (
            self.thread_id == other.thread_id
            and self.core_id == other.core_id
            and self.start_cycle == other.start_cycle
            and np.array_equal(self.to_structured(), other.to_structured())
        )

    def __reduce__(self) -> tuple:
        from repro.jvm.segments import pack_columns

        return (
            _unpack_thread_trace,
            (
                self.thread_id,
                self.core_id,
                self.start_cycle,
                pack_columns(self.to_structured()),
            ),
        )

    @property
    def segments(self) -> list[TraceSegment]:
        """The segment objects (built from the packed array on first read)."""
        if self._segments is None:
            from repro.jvm.segments import array_to_segments

            self._segments = list(array_to_segments(self._structured_cache[1]))
        return self._segments

    def __len__(self) -> int:
        if self._segments is None:
            return len(self._structured_cache[1])
        return len(self._segments)

    def _totals(self) -> tuple[int, int]:
        n = len(self)
        cache = self._totals_cache
        if cache is not None and cache[0] == self._epoch and cache[1] == n:
            return cache[2], cache[3]
        if self._segments is None:
            data = self._structured_cache[1]
            instructions = int(data["instructions"].sum())
            cycles = int(data["cycles"].sum())
        else:
            instructions = 0
            cycles = 0
            for s in self._segments:
                instructions += s.instructions
                cycles += s.cycles
        self._totals_cache = (self._epoch, n, instructions, cycles)
        return instructions, cycles

    @property
    def total_instructions(self) -> int:
        """Instructions executed by the thread (cached)."""
        return self._totals()[0]

    @property
    def total_cycles(self) -> int:
        """Cycles consumed by the thread (cached)."""
        return self._totals()[1]

    def clear_segments(self) -> None:
        """Drop the segment list (streaming flush) and invalidate caches.

        Appending never needs invalidation (the cache key includes the
        length); clearing does, because a later refill could reach the
        same length with different segments.
        """
        if self._segments is None:
            self._segments = []
        else:
            self._segments.clear()
        self._structured_cache = None
        self._epoch += 1

    @property
    def end_cycle(self) -> int:
        """Global cycle at which the thread finished."""
        return self.start_cycle + self.total_cycles

    def to_structured(self) -> np.ndarray:
        """Pack the trace into one ``SEGMENT_DTYPE`` structured array.

        The columnar wire form of the trace
        (:data:`repro.jvm.segments.SEGMENT_DTYPE`): one row per segment,
        ``op_kind`` coded via ``OP_KIND_CODES``.  Cached under the same
        (epoch, length) key as the totals, so repeat packers (replay
        streaming, the snapshotter, the counter reader) pay the
        object-walk once per trace state.  A loaded trace returns the
        array it was loaded with.
        """
        from repro.jvm.segments import segments_to_array

        cache = self._structured_cache
        if self._segments is None:
            return cache[1]
        key = (self._epoch, len(self._segments))
        if cache is not None and cache[0] == key:
            return cache[1]
        data = segments_to_array(self._segments)
        data.setflags(write=False)
        self._structured_cache = (key, data)
        return data

    def drain_structured(self) -> np.ndarray:
        """Pack and clear in one step (the streaming-flush hot path).

        Returns the packed array of the current segments and empties the
        trace (bumping the epoch like :meth:`clear_segments`), so a
        substrate flush hands a columnar batch straight to the stream
        without leaving a second copy behind.
        """
        data = self.to_structured()
        self.clear_segments()
        return data

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Pack the trace into parallel NumPy arrays.

        Keys: ``stack_id``, ``op_kind`` (coded via ``OP_KIND_CODES``),
        ``instructions``, ``cycles``, ``l1d_misses``, ``llc_misses``,
        ``stage_id``, ``task_id``.  Downstream consumers (the profiler,
        the counter reader) work exclusively on these arrays.  The
        values are column views of :meth:`to_structured`, so the two
        packers share one cache entry.
        """
        data = self.to_structured()
        return {
            name: data[name]
            for name in (
                "stack_id",
                "op_kind",
                "instructions",
                "cycles",
                "l1d_misses",
                "llc_misses",
                "stage_id",
                "task_id",
            )
        }

    @staticmethod
    def merged(traces: list["ThreadTrace"], thread_id: int) -> "ThreadTrace":
        """Concatenate per-task traces from one core in start-time order.

        This mimics the paper's Hadoop handling: executor threads die
        with their task, so the profiler stitches the threads that ran
        on the same core into one long pseudo-thread.
        """
        if not traces:
            raise ValueError("cannot merge an empty list of traces")
        cores = {t.core_id for t in traces}
        if len(cores) != 1:
            raise ValueError(f"traces span multiple cores: {sorted(cores)}")
        ordered = sorted(traces, key=lambda t: t.start_cycle)
        merged = ThreadTrace(
            thread_id=thread_id,
            core_id=ordered[0].core_id,
            start_cycle=ordered[0].start_cycle,
        )
        for t in ordered:
            merged.segments.extend(t.segments)
        return merged


def _unpack_thread_trace(
    thread_id: int,
    core_id: int,
    start_cycle: int,
    columns: tuple[np.ndarray, ...],
) -> ThreadTrace:
    """Rebuild a pickled :class:`ThreadTrace` from its packed columns.

    The trace keeps the packed array only; its segment objects wait for
    the first read of :attr:`ThreadTrace.segments`.
    """
    from repro.jvm.segments import unpack_columns

    trace = ThreadTrace(
        thread_id=thread_id, core_id=core_id, start_cycle=start_cycle
    )
    data = unpack_columns(columns)
    data.setflags(write=False)
    trace._segments = None
    trace._structured_cache = ((trace._epoch, len(data)), data)
    return trace


class TraceBuilder:
    """Per-thread emission helper used by the framework executors.

    Wraps the hardware model with the thread-local state the model needs
    per call: the LLC contention currently in force and whether the last
    OS migration left the caches cold.  Executors call :meth:`emit` once
    per batch of records.
    """

    def __init__(
        self,
        stack_table: StackTable,
        hardware: HardwareModel,
        rng: np.random.Generator,
        thread_id: int,
        core_id: int,
        start_cycle: int = 0,
    ) -> None:
        self.stack_table = stack_table
        self.hardware = hardware
        self.rng = rng
        self.trace = ThreadTrace(
            thread_id=thread_id, core_id=core_id, start_cycle=start_cycle
        )
        self.contention: int = 1
        self._cold_next: bool = False
        self._migrations: int = 0
        self._retired: int = 0  # drives the JIT warm-up multiplier

    @property
    def migrations(self) -> int:
        """Number of OS migrations the thread has suffered."""
        return self._migrations

    @property
    def retired(self) -> int:
        """Instructions retired so far (final, post-scale).

        Monotone across the thread's lifetime; the delta across a task
        is the task's own work, which is what fault injection sizes
        straggler stalls against.
        """
        return self._retired

    def set_contention(self, n_threads: int) -> None:
        """Set how many threads currently share the LLC."""
        self.contention = max(1, int(n_threads))

    def emit(
        self,
        stack: CallStack,
        op_kind: OpKind,
        access: AccessPattern,
        instructions: float,
        *,
        stage_id: int = -1,
        task_id: int = -1,
    ) -> TraceSegment:
        """Cost one batch on the hardware model and append a segment.

        ``instructions`` is multiplied by the machine's
        ``instruction_scale`` (the per-workload calibration knob) before
        pricing.
        """
        cold = self._cold_next
        self._cold_next = False
        cost = self.hardware.cost(
            op_kind,
            access,
            instructions * self.hardware.config.instruction_scale,
            self.rng,
            contention=self.contention,
            cold=cold,
            retired_instructions=self._retired,
        )
        self._retired += cost.instructions
        seg = TraceSegment(
            stack_id=self.stack_table.intern(stack),
            op_kind=op_kind,
            instructions=cost.instructions,
            cycles=cost.cycles,
            l1d_misses=cost.l1d_misses,
            llc_misses=cost.llc_misses,
            stage_id=stage_id,
            task_id=task_id,
            cold=cold,
        )
        self.trace.segments.append(seg)
        # The OS may move the thread between batches; the next segment
        # then starts with cold private caches (Section III-B.1).
        if self.hardware.migration_occurs(self.rng):
            self._cold_next = True
            self._migrations += 1
        return seg

    def emit_chunked(
        self,
        stack: CallStack,
        op_kind: OpKind,
        access: AccessPattern,
        instructions: float,
        *,
        max_segment: float = 4e6,
        stage_id: int = -1,
        task_id: int = -1,
    ) -> int:
        """Emit a long operation as several bounded segments.

        Keeps individual segments well below the profiler's snapshot
        period so a single big operation (a top-level quicksort pass, a
        large block read) spans many snapshots instead of hiding inside
        one.  ``max_segment`` is in *final* (post-``instruction_scale``)
        instructions.  Returns the number of segments emitted.
        """
        if max_segment <= 0:
            raise ValueError("max_segment must be positive")
        scale = self.hardware.config.instruction_scale
        remaining = float(instructions) * scale
        n = 0
        while remaining > 0:
            chunk = min(remaining, max_segment)
            # emit() rescales, so hand it the unscaled chunk.
            self.emit(
                stack,
                op_kind,
                access,
                chunk / scale,
                stage_id=stage_id,
                task_id=task_id,
            )
            remaining -= chunk
            n += 1
        return n
