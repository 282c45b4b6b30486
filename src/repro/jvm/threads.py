"""Executor-thread traces.

Framework executors do two things at once: they *really compute* (count
words, sort keys, propagate labels) and, for every batch of work, they
emit a trace segment describing what the simulated hardware did during
that batch — the call stack that was live, the operation kind, and the
counter values from :class:`~repro.jvm.machine.HardwareModel`.  A
segment is born as one packed row; :class:`TraceSegment` is its object
view.

A :class:`ThreadTrace` is the full segment sequence of one executor
thread.  The SimProf profiler reads it as the packed column batches
of :meth:`ThreadTrace.to_structured`, and only as a real agent would:
the live stack at each poll point and the counters at each unit
boundary (:class:`repro.core.profiler._UnitCutter`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.jvm.machine import AccessPattern, HardwareModel, OpKind
from repro.jvm.methods import CallStack, StackTable

__all__ = ["TraceSegment", "ThreadTrace", "TraceBuilder"]

# Stable integer coding of OpKind for the packed arrays.
OP_KIND_CODES: dict[OpKind, int] = {kind: i for i, kind in enumerate(OpKind)}
OP_KINDS_BY_CODE: tuple[OpKind, ...] = tuple(OpKind)

#: The row layout of a packed segment, re-exported as the wire format
#: by :mod:`repro.jvm.segments`.
#: :func:`_segment_row` and :meth:`TraceBuilder._emit_row` build rows
#: in this order.
SEGMENT_DTYPE = np.dtype(
    [
        ("stack_id", "<i8"),
        ("op_kind", "<i8"),
        ("instructions", "<i8"),
        ("cycles", "<i8"),
        ("l1d_misses", "<i8"),
        ("llc_misses", "<i8"),
        ("stage_id", "<i8"),
        ("task_id", "<i8"),
        ("cold", "<i8"),
    ]
)
SEGMENT_FIELDS: tuple[str, ...] = tuple(SEGMENT_DTYPE.names)
# int64 words per row.
_N_FIELDS = len(SEGMENT_FIELDS)


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

    The trace is columnar from birth: a read-only ``SEGMENT_DTYPE``
    array of the rows packed so far plus a growable ``int64`` buffer
    of the rows appended since, in ``SEGMENT_DTYPE`` field order
    (72 bytes a row).  :meth:`to_structured` folds the buffer into the
    packed array; the instruction and cycle totals are running sums.
    At rest (pickled into the artifact store) a trace is its packed
    columns, each narrowed to the smallest integer type that holds it
    (:func:`~repro.jvm.segments.pack_columns`).  :attr:`segments` is a
    read-only object view, built on first read.
    """

    def __init__(
        self,
        thread_id: int,
        core_id: int,
        segments: Iterable[TraceSegment] | None = None,
        start_cycle: int = 0,
    ) -> None:
        self.thread_id = thread_id
        self.core_id = core_id
        self.start_cycle = start_cycle
        self._packed: np.ndarray | None = None
        self._rows = array("q")
        self._instructions = 0
        self._cycles = 0
        self._view: tuple[TraceSegment, ...] | None = None
        if segments is not None:
            self.extend(segments)

    @classmethod
    def from_structured(
        cls, thread_id: int, core_id: int, data: np.ndarray, start_cycle: int = 0
    ) -> "ThreadTrace":
        """A trace that adopts the packed ``SEGMENT_DTYPE`` array ``data``."""
        trace = cls(thread_id, core_id, start_cycle=start_cycle)
        data.setflags(write=False)
        trace._packed = data
        trace._instructions = int(data["instructions"].sum())
        trace._cycles = int(data["cycles"].sum())
        return trace

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

        columns = pack_columns(self.to_structured())
        return (
            _unpack_thread_trace,
            (self.thread_id, self.core_id, self.start_cycle, columns),
        )

    def __len__(self) -> int:
        packed = 0 if self._packed is None else len(self._packed)
        return packed + len(self._rows) // _N_FIELDS

    @property
    def segments(self) -> tuple[TraceSegment, ...]:
        """Read-only object view of the rows (built on first read)."""
        view = self._view
        if view is None or len(view) != len(self):
            from repro.jvm.segments import array_to_segments

            view = self._view = array_to_segments(self.to_structured())
        return view

    def append(self, segment: TraceSegment) -> None:
        """Append one segment."""
        self._append_row(
            _segment_row(segment), segment.instructions, segment.cycles
        )

    def _append_row(self, row: tuple[int, ...], insts: int, cycles: int) -> None:
        """Append one row in ``SEGMENT_DTYPE`` order and count its totals."""
        self._rows.extend(row)
        self._instructions += insts
        self._cycles += cycles

    def extend(self, segments: "Iterable[TraceSegment] | np.ndarray") -> None:
        """Append segment objects, or the rows of a ``SEGMENT_DTYPE`` array."""
        if not isinstance(segments, np.ndarray):
            for segment in segments:
                self.append(segment)
            return
        if segments.dtype != SEGMENT_DTYPE:
            raise TypeError(
                f"expected a SEGMENT_DTYPE array, got dtype {segments.dtype!r}"
            )
        self._rows.frombytes(segments.tobytes())
        self._instructions += int(segments["instructions"].sum())
        self._cycles += int(segments["cycles"].sum())

    @property
    def total_instructions(self) -> int:
        """Instructions executed by the thread."""
        return self._instructions

    @property
    def total_cycles(self) -> int:
        """Cycles consumed by the thread."""
        return self._cycles

    def clear_segments(self) -> None:
        """Drop every segment (streaming flush); totals restart at zero."""
        self._packed = None
        self._rows = array("q")
        self._instructions = self._cycles = 0
        self._view = None

    @property
    def end_cycle(self) -> int:
        """Global cycle at which the thread finished."""
        return self.start_cycle + self.total_cycles

    def to_structured(self) -> np.ndarray:
        """The trace as one read-only ``SEGMENT_DTYPE`` structured array.

        The columnar wire form of the trace
        (:data:`repro.jvm.segments.SEGMENT_DTYPE`): one row per segment,
        ``op_kind`` coded via ``OP_KIND_CODES``.  Rows appended since
        the last call are packed onto the previous array, which is then
        reused until the next append, so repeat packers (replay
        streaming, the unit cutter, the counter reader) share one array.
        """
        if self._packed is None or self._rows:
            tail = np.frombuffer(self._rows, dtype=SEGMENT_DTYPE)
            if self._packed is None:
                data = tail.copy()
            else:
                data = np.concatenate((self._packed, tail))
            data.setflags(write=False)
            self._packed = data
            self._rows = array("q")
        return self._packed

    def drain_structured(self) -> np.ndarray:
        """Pack and clear in one step (the streaming-flush hot path).

        Returns the packed array of the current segments and empties the
        trace like :meth:`clear_segments`, so a substrate flush hands a
        columnar batch straight to the stream without leaving a second
        copy behind.
        """
        data = self.to_structured()
        self.clear_segments()
        return data

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Pack the trace into parallel NumPy arrays.

        Keys: ``stack_id``, ``op_kind`` (coded via ``OP_KIND_CODES``),
        ``instructions``, ``cycles``, ``l1d_misses``, ``llc_misses``,
        ``stage_id``, ``task_id``.  The values are column views of
        :meth:`to_structured`, which the profiler's unit cutter reads
        directly.
        """
        data = self.to_structured()
        return {name: data[name] for name in SEGMENT_FIELDS if name != "cold"}

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
        return ThreadTrace.from_structured(
            thread_id,
            ordered[0].core_id,
            np.concatenate([t.to_structured() for t in ordered]),
            start_cycle=ordered[0].start_cycle,
        )


def _segment_row(s: TraceSegment) -> tuple[int, ...]:
    """One segment as a row in ``SEGMENT_DTYPE`` field order."""
    return (s.stack_id, OP_KIND_CODES[s.op_kind], s.instructions, s.cycles,
            s.l1d_misses, s.llc_misses, s.stage_id, s.task_id, s.cold)


def _unpack_thread_trace(
    thread_id: int,
    core_id: int,
    start_cycle: int,
    columns: tuple[np.ndarray, ...],
) -> ThreadTrace:
    """Rebuild a pickled :class:`ThreadTrace` from its packed columns."""
    from repro.jvm.segments import unpack_columns

    return ThreadTrace.from_structured(
        thread_id, core_id, unpack_columns(columns), start_cycle=start_cycle
    )


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
    ) -> None:
        """Cost one batch on the hardware model and append its row.

        ``instructions`` is multiplied by the machine's
        ``instruction_scale`` (the per-workload calibration knob) before
        pricing.
        """
        self._emit_row(
            self.stack_table.intern(stack),
            op_kind,
            OP_KIND_CODES[op_kind],
            access,
            instructions * self.hardware.config.instruction_scale,
            stage_id,
            task_id,
        )

    def _emit_row(
        self,
        stack_id: int,
        op_kind: OpKind,
        op_code: int,
        access: AccessPattern,
        instructions: float,
        stage_id: int,
        task_id: int,
    ) -> None:
        """Price ``instructions`` (final, post-scale) and append the row."""
        hardware = self.hardware
        rng = self.rng
        cold = self._cold_next
        insts, cycles, l1d, llc = hardware.price(
            op_kind, access, instructions, rng, self.contention, cold, self._retired
        )
        self._retired += insts
        self.trace._append_row(
            (stack_id, op_code, insts, cycles, l1d, llc, stage_id, task_id, cold),
            insts,
            cycles,
        )
        # The OS may move the thread between batches; the next segment
        # then starts with cold private caches (Section III-B.1).
        self._cold_next = hardware.migration_occurs(rng)
        if self._cold_next:
            self._migrations += 1

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
        if not remaining > 0:
            return 0
        stack_id = self.stack_table.intern(stack)
        op_code = OP_KIND_CODES[op_kind]
        n = 0
        while remaining > 0:
            chunk = min(remaining, max_segment)
            # Priced as emit() prices the unscaled chunk, to the bit.
            self._emit_row(
                stack_id,
                op_kind,
                op_code,
                access,
                chunk / scale * scale,
                stage_id,
                task_id,
            )
            remaining -= chunk
            n += 1
        return n
