"""The TraceStream protocol: incremental columnar trace events.

A :class:`TraceStream` is the streaming counterpart of
:class:`~repro.jvm.job.JobTrace`: the same run record, delivered as an
ordered iterator of small events instead of one fully-materialised
object.  Substrates produce it while they execute; consumers (the
streaming profiler, or :meth:`JobTrace.from_stream`) see segments the
moment a task flushes them, long before the run finishes, so peak
memory is bounded by the in-flight window rather than the whole trace.

Segment payloads are **columnar from birth to consumption**: a
:class:`SegmentBatch` carries one packed
:data:`~repro.jvm.segments.SEGMENT_DTYPE` structured array (``.data``),
not per-segment Python objects.  Substrates pack each flush into one
array, :func:`pump_events` moves the batch by reference through its
queue (one pointer per batch, however many segments it holds), and
the streaming profiler cuts sampling units from column slices — no
per-segment object is ever allocated on the hot path.  Because the
queue is in-process and ordered, a batch is never lost, repeated,
reordered or altered on the way, so batches carry no sequence numbers
or checksums.  The ``.segments`` property materialises classic
:class:`~repro.jvm.threads.TraceSegment` tuples lazily for object-path
consumers (parity tests).

Event vocabulary:

* :class:`ThreadStart` — a (merged pseudo-)thread exists; carries the
  identity the profiler needs (thread id, core, start cycle).
* :class:`SegmentBatch` — a packed run of consecutive trace segments
  for one thread.  Batches of one thread arrive in trace order;
  batches of different threads may interleave.
* :class:`StageEvent` — stage metadata, emitted when the framework
  records the stage.
* :class:`JobEnd` — the run finished; carries the job-level meta dict.

The substrates execute eagerly (an action *runs* the job), so turning
them into generators requires inversion of control:
:func:`pump_events` runs the workload on a worker thread and hands its
events to the consumer through a bounded queue — backpressure keeps the
producer from racing ahead of the consumer by more than the queue
depth, which is what makes the memory bound real.

Consumers on the classification side
(:meth:`~repro.core.phases.PhaseModel.classify_stream`,
``SimProf.classify_stream``) pair the stream's ``registry`` /
``stack_table`` with a :class:`~repro.core.features.UnitFeaturizer`,
whose per-unit scatter-add and reusable row buffer keep live
classification allocation-free per unit and row-for-row identical to
the batch path.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Union

import numpy as np

from repro.jvm.job import JobTrace, StageInfo
from repro.jvm.machine import MachineConfig
from repro.jvm.methods import MethodRegistry, StackTable
from repro.jvm.segments import (
    SEGMENT_DTYPE,
    array_to_segments,
    segments_to_array,
)
from repro.jvm.threads import TraceSegment

__all__ = [
    "ThreadStart",
    "SegmentBatch",
    "StageEvent",
    "JobEnd",
    "TraceEvent",
    "TraceStream",
    "StreamClosed",
    "pump_events",
    "trace_to_stream",
]


@dataclass(frozen=True, slots=True)
class ThreadStart:
    """A profiled (pseudo-)thread came into existence."""

    thread_id: int
    core_id: int
    start_cycle: int = 0


class SegmentBatch:
    """Consecutive trace segments of one thread, packed columnar.

    ``data`` is one :data:`~repro.jvm.segments.SEGMENT_DTYPE` structured
    array — the batch's only payload.  Consumers read column slices
    (``batch.data["instructions"]``); the ``segments`` property
    materialises legacy :class:`~repro.jvm.threads.TraceSegment` tuples
    lazily (and caches them) for object-path consumers only.

    The constructor accepts either a packed array (adopted by
    reference — the zero-copy path substrates use) or an iterable of
    :class:`TraceSegment` objects (the legacy path, converted once).
    """

    __slots__ = ("thread_id", "data", "_objects")

    def __init__(
        self,
        thread_id: int,
        segments: "np.ndarray | tuple[TraceSegment, ...] | list[TraceSegment]" = (),
    ) -> None:
        self.thread_id = thread_id
        if isinstance(segments, np.ndarray):
            if segments.dtype != SEGMENT_DTYPE:
                raise TypeError(
                    f"expected a SEGMENT_DTYPE array, got {segments.dtype!r}"
                )
            self.data = segments
            self._objects: tuple[TraceSegment, ...] | None = None
        else:
            self._objects = tuple(segments)
            self.data = segments_to_array(self._objects)

    @property
    def segments(self) -> tuple[TraceSegment, ...]:
        """Lazy object-path view of the packed payload (cached)."""
        if self._objects is None:
            self._objects = array_to_segments(self.data)
        return self._objects

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentBatch):
            return NotImplemented
        return (
            self.thread_id == other.thread_id
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"SegmentBatch(thread_id={self.thread_id}, n={len(self.data)})"


@dataclass(frozen=True, slots=True)
class StageEvent:
    """Stage metadata, emitted when the framework records the stage."""

    info: StageInfo


@dataclass(frozen=True, slots=True)
class JobEnd:
    """The run completed; carries the job-level metadata dict."""

    meta: dict[str, Any]


TraceEvent = Union[ThreadStart, SegmentBatch, StageEvent, JobEnd]


@dataclass
class TraceStream:
    """A job trace delivered as an event iterator.

    Carries the same shared context a :class:`JobTrace` does (registry,
    stack table, machine config) up front, because consumers need it
    before the first segment arrives.  Iterate the stream (or its
    ``events``) to drive the underlying run; a stream is single-shot.
    """

    framework: str
    workload: str
    input_name: str
    registry: MethodRegistry
    stack_table: StackTable
    machine: MachineConfig
    events: Iterator[TraceEvent]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def label(self) -> str:
        """Short label, mirroring :attr:`JobTrace.label`."""
        return f"{self.workload}_{self.framework}"


class StreamClosed(RuntimeError):
    """Raised inside a producer whose consumer stopped iterating."""


class _ProducerError:
    """Queue wrapper carrying an exception from the worker thread."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


_DONE = object()


def pump_events(
    producer: Callable[[Callable[[TraceEvent], None]], None],
    *,
    max_queue: int = 256,
) -> Iterator[TraceEvent]:
    """Run an eager producer on a worker thread, yield its events.

    ``producer`` is called with an ``emit(event)`` callable on a
    daemon thread; every emitted event is handed to the consuming
    iterator through a queue bounded at ``max_queue`` entries, so the
    producer blocks (backpressure) once the consumer falls behind.
    Events move by reference — a columnar :class:`SegmentBatch` costs
    one queue slot regardless of how many segments it packs.

    Exceptions in the producer propagate out of the iterator.  If the
    consumer abandons the iterator early (``break`` / ``close()``),
    the next ``emit`` in the producer raises :class:`StreamClosed`,
    unwinding the worker thread.
    """
    q: queue.Queue = queue.Queue(maxsize=max_queue)
    closed = threading.Event()

    def offer(item: Any) -> None:
        # Bounded put that re-checks the closed flag so an abandoned
        # producer never blocks forever on a full queue.
        while not closed.is_set():
            try:
                q.put(item, timeout=0.1)
                return
            except queue.Full:
                continue

    def emit(event: TraceEvent) -> None:
        if closed.is_set():
            raise StreamClosed("trace stream consumer stopped iterating")
        offer(event)
        if closed.is_set():
            raise StreamClosed("trace stream consumer stopped iterating")

    def work() -> None:
        try:
            producer(emit)
        except StreamClosed:
            return
        except BaseException as exc:
            offer(_ProducerError(exc))
            return
        offer(_DONE)

    worker = threading.Thread(target=work, name="trace-stream", daemon=True)
    worker.start()
    try:
        while True:
            item = q.get()
            if item is _DONE:
                return
            if isinstance(item, _ProducerError):
                raise item.exc
            yield item
    finally:
        closed.set()
        # Drain so a producer blocked on a full queue can observe the
        # closed flag and unwind.
        while worker.is_alive():
            try:
                q.get_nowait()
            except queue.Empty:
                worker.join(timeout=0.05)


def trace_to_stream(job: JobTrace, *, batch_size: int = 256) -> TraceStream:
    """Replay a materialised :class:`JobTrace` as a :class:`TraceStream`.

    The synthetic-substrate adapter: any trace built directly against
    :mod:`repro.jvm` (tests, synthetic generators) becomes a stream
    without a worker thread.  Each thread's segments are packed once
    (:meth:`~repro.jvm.threads.ThreadTrace.to_structured`) and batches
    are zero-copy slices of that packed array.
    ``from_stream(trace_to_stream(job))`` round-trips exactly.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")

    def events() -> Iterator[TraceEvent]:
        for t in job.traces:
            yield ThreadStart(t.thread_id, t.core_id, t.start_cycle)
        for info in job.stages:
            yield StageEvent(info)
        for t in job.traces:
            data = t.to_structured()
            for i in range(0, len(data), batch_size):
                yield SegmentBatch(t.thread_id, data[i : i + batch_size])
        yield JobEnd(dict(job.meta))

    return TraceStream(
        framework=job.framework,
        workload=job.workload,
        input_name=job.input_name,
        registry=job.registry,
        stack_table=job.stack_table,
        machine=job.machine,
        events=events(),
    )
