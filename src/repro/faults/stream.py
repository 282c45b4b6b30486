"""Stream-level faults and the recovery guard that absorbs them.

Producer side — :func:`inject_stream_faults` wraps a
:class:`~repro.jvm.stream.TraceStream` and, per sequenced
:class:`~repro.jvm.stream.SegmentBatch`, deterministically drops,
duplicates, or reorders it (decision RNG keyed by ``(thread, seq)``,
so the same plan replays bit-identically regardless of interleaving).
Every batch the producer ever emitted is retained in a bounded
:class:`ReplayBuffer` exposed as ``stream.replay`` — the stand-in for a
real agent's "re-request the missing packet" channel.

Consumer side — :class:`EventGuard` sits between any stream and its
consumer (:class:`~repro.core.profiler.StreamingProfiler`,
:meth:`~repro.jvm.job.JobTrace.from_stream`) and restores per-thread
batch order:

* duplicate (``seq < expected``): dropped, recorded as ``deduped``;
* out-of-order (``seq > expected``): held back until the gap fills,
  recorded as ``reordered``;
* corrupt (checksum mismatch): re-fetched from the replay buffer when
  one is attached (``replayed``), otherwise discarded (``degraded``);
* gap (hold-back window overflow, or end of stream): repaired from the
  replay buffer (``replayed``) or conceded (``degraded``).

Unsequenced batches (``seq == -1``) pass through untouched, so legacy
streams behave exactly as before.  When nothing anomalous happened the
guard's report stays empty and downstream metadata is byte-identical
to an unguarded run.

Everything here operates on the columnar batch payload: verification
is one :func:`~repro.jvm.segments.segment_checksum` CRC pass over the
packed ``batch.data`` buffer (bit-identical to the historical
per-segment pack loop for any content, so mixed old/new-format streams
verify through this one path), and batches are held back, replayed,
and re-emitted by reference — the guard never materialises per-segment
objects.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Iterator

import numpy as np

from repro.faults.plan import FaultPlan, site_rng
from repro.faults.report import FaultReport
from repro.jvm.stream import (
    JobEnd,
    SegmentBatch,
    TraceEvent,
    TraceStream,
    segment_checksum,
)

__all__ = ["EventGuard", "ReplayBuffer", "inject_stream_faults"]

_STREAM_SITE = "stream"


class ReplayBuffer:
    """Bounded per-thread window of recently emitted batch payloads.

    Models the retransmission buffer a real profiling agent keeps: a
    consumer that detects a gap or a corrupt payload can re-request a
    batch by ``(thread_id, seq)`` as long as it is still inside the
    window.  Bounded so the streaming memory guarantee survives.

    Entries are zero-copy columnar refs — the packed ``SEGMENT_DTYPE``
    array and its checksum, never a :class:`SegmentBatch` object copy —
    so buffering a batch costs two machine words, shares the producer's
    buffer, and never materialises the lazy per-segment object cache.
    :meth:`fetch` rebuilds a fresh batch around the ref on demand.
    Consumers that track commit progress call :meth:`release` to drop
    refs they can no longer request, so a long stream's buffer holds
    only the payloads still open to repair.
    """

    def __init__(self, window: int = 512) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        # thread → seq → (packed payload ref, checksum); seq-ascending
        # because producers emit (and therefore store) in seq order.
        self._batches: dict[int, OrderedDict[int, tuple[np.ndarray, int]]] = {}

    def store(self, batch: SegmentBatch) -> None:
        per_thread = self._batches.setdefault(batch.thread_id, OrderedDict())
        per_thread[batch.seq] = (batch.data, batch.checksum)
        while len(per_thread) > self.window:
            per_thread.popitem(last=False)

    def fetch(self, thread_id: int, seq: int) -> SegmentBatch | None:
        entry = self._batches.get(thread_id, {}).get(seq)
        if entry is None:
            return None
        data, checksum = entry
        return SegmentBatch(thread_id, data, seq=seq, checksum=checksum)

    def release(self, thread_id: int, upto_seq: int) -> int:
        """Drop refs with ``seq <= upto_seq``; returns how many.

        Called by the consumer once a sequence point is committed and
        past its reclamation lag — those payloads can never be
        re-requested, so holding the refs would only keep batch
        buffers alive after the consumer has let them go.
        """
        per_thread = self._batches.get(thread_id)
        released = 0
        while per_thread:
            seq = next(iter(per_thread))
            if seq > upto_seq:
                break
            per_thread.popitem(last=False)
            released += 1
        return released

    def __len__(self) -> int:
        return sum(len(per_thread) for per_thread in self._batches.values())


def inject_stream_faults(
    stream: TraceStream, plan: FaultPlan, *, window: int = 512
) -> TraceStream:
    """Wrap ``stream`` with deterministic drop/duplicate/reorder faults.

    Returns a new :class:`TraceStream` whose ``replay`` attribute is
    the producer's :class:`ReplayBuffer` and whose ``fault_report``
    lists every injected fault.  A null plan returns the original
    stream object unchanged (true no-op).
    """
    if not plan.stream_active:
        return stream

    replay = ReplayBuffer(window)
    report = FaultReport()
    # True per-thread batch counts, filled as the wrapped stream is
    # consumed; the guard reads them at end of stream so even a dropped
    # *final* batch (no successor to reveal the gap) is detected.
    batch_counts: dict[int, int] = {}

    def events() -> Iterator[TraceEvent]:
        held: deque[list] = deque()  # [release_countdown, batch]

        def release_ready() -> Iterator[TraceEvent]:
            while held and held[0][0] <= 0:
                late = held.popleft()[1]
                yield late

        def tick() -> None:
            for slot in held:
                slot[0] -= 1

        for event in stream:
            if not isinstance(event, SegmentBatch) or event.seq < 0:
                if isinstance(event, JobEnd):
                    # Nothing may be held past the end of the run.
                    while held:
                        yield held.popleft()[1]
                yield event
                continue

            replay.store(event)
            batch_counts[event.thread_id] = event.seq + 1
            rng = site_rng(
                plan.seed, _STREAM_SITE, event.thread_id, event.seq
            )
            u_drop, u_dup, u_reorder = rng.random(3)
            if u_drop < plan.drop_rate:
                report.record(
                    _STREAM_SITE,
                    "drop",
                    "injected",
                    thread_id=event.thread_id,
                    index=event.seq,
                )
                continue
            tick()
            if u_reorder < plan.reorder_rate:
                depth = 1 + int(u_reorder / plan.reorder_rate * plan.reorder_depth)
                held.append([depth, event])
                report.record(
                    _STREAM_SITE,
                    "reorder",
                    "injected",
                    thread_id=event.thread_id,
                    index=event.seq,
                    detail=f"held {depth} batches",
                )
            else:
                yield event
                if u_dup < plan.duplicate_rate:
                    report.record(
                        _STREAM_SITE,
                        "duplicate",
                        "injected",
                        thread_id=event.thread_id,
                        index=event.seq,
                    )
                    yield event
            yield from release_ready()

    faulty = TraceStream(
        framework=stream.framework,
        workload=stream.workload,
        input_name=stream.input_name,
        registry=stream.registry,
        stack_table=stream.stack_table,
        machine=stream.machine,
        events=events(),
    )
    faulty.replay = replay
    faulty.fault_report = report
    faulty.batch_counts = batch_counts
    return faulty


class _ThreadState:
    __slots__ = ("expected", "pending")

    def __init__(self) -> None:
        self.expected = 0
        self.pending: dict[int, SegmentBatch] = {}


class EventGuard:
    """Sequence-checking, self-repairing view of a trace event stream.

    Iterate :meth:`events` instead of the raw stream — or, in push
    mode, construct with ``stream=None`` (or :meth:`bind` later) and
    feed events through :meth:`admit_event` / :meth:`finish`; batches
    come out deduplicated, in per-thread ``seq`` order,
    checksum-verified, with gaps repaired from ``stream.replay`` when
    available.  ``report`` holds the anomalies seen so far (empty on a
    clean stream).

    ``max_holdback`` bounds how many out-of-order batches per thread
    the guard buffers before declaring the missing one lost; it must
    exceed the producer's worst-case reorder depth (the injector's
    default is 3) for reordering to be absorbed losslessly.

    The guard is :class:`~repro.runtime.snapshot.Snapshotable`: the
    per-thread sequence numbers, held-back batches (as columnar
    payloads) and fault report round-trip through
    ``snapshot()``/``restore()``, so a checkpointed consumer resumes
    mid-repair bit-identically.
    """

    def __init__(self, stream=None, *, max_holdback: int = 64) -> None:
        if max_holdback <= 0:
            raise ValueError("max_holdback must be positive")
        self._stream = None
        self._replay: ReplayBuffer | None = None
        if stream is not None:
            self.bind(stream)
        self.max_holdback = max_holdback
        self.report = FaultReport()
        self._threads: dict[int, _ThreadState] = {}

    def bind(self, stream) -> "EventGuard":
        """Attach ``stream`` (its replay buffer and batch counts)."""
        self._stream = stream
        self._replay = getattr(stream, "replay", None)
        return self

    # -- verification ------------------------------------------------

    def _verified(self, batch: SegmentBatch) -> SegmentBatch | None:
        """Return a checksum-clean copy of ``batch`` or None if lost."""
        if segment_checksum(batch.data) == batch.checksum:
            return batch
        fresh = (
            self._replay.fetch(batch.thread_id, batch.seq)
            if self._replay is not None
            else None
        )
        if (
            fresh is not None
            and segment_checksum(fresh.data) == fresh.checksum
        ):
            self.report.record(
                _STREAM_SITE,
                "corrupt",
                "replayed",
                thread_id=batch.thread_id,
                index=batch.seq,
            )
            return fresh
        self.report.record(
            _STREAM_SITE,
            "corrupt",
            "degraded",
            thread_id=batch.thread_id,
            index=batch.seq,
            detail="checksum mismatch, no replay source",
        )
        return None

    def _fill_gap(self, thread_id: int) -> SegmentBatch | None:
        """Resolve the missing ``expected`` seq for ``thread_id``."""
        state = self._threads[thread_id]
        seq = state.expected
        state.expected += 1
        fresh = (
            self._replay.fetch(thread_id, seq)
            if self._replay is not None
            else None
        )
        if (
            fresh is not None
            and segment_checksum(fresh.data) == fresh.checksum
        ):
            self.report.record(
                _STREAM_SITE,
                "gap",
                "replayed",
                thread_id=thread_id,
                index=seq,
            )
            return fresh
        self.report.record(
            _STREAM_SITE,
            "gap",
            "degraded",
            thread_id=thread_id,
            index=seq,
            detail="batch lost, no replay source",
        )
        return None

    # -- event pump --------------------------------------------------

    def _admit(self, batch: SegmentBatch) -> Iterator[SegmentBatch]:
        state = self._threads.setdefault(batch.thread_id, _ThreadState())
        if batch.seq < state.expected or batch.seq in state.pending:
            self.report.record(
                _STREAM_SITE,
                "duplicate",
                "deduped",
                thread_id=batch.thread_id,
                index=batch.seq,
            )
            return
        if batch.seq > state.expected:
            state.pending[batch.seq] = batch
            while len(state.pending) > self.max_holdback:
                repaired = self._fill_gap(batch.thread_id)
                if repaired is not None:
                    yield repaired
                yield from self._drain(state, batch.thread_id)
            self._release_committed(batch.thread_id)
            return
        verified = self._verified(batch)
        state.expected += 1
        if verified is not None:
            yield verified
        yield from self._drain(state, batch.thread_id)
        self._release_committed(batch.thread_id)

    def _release_committed(self, thread_id: int) -> None:
        """Release replay refs this thread can never re-request.

        Everything below ``expected - 1`` is committed and past its
        one-event reclamation lag (the most recent commit stays
        fetchable); the replay buffer may drop those columnar refs so
        batch buffers are freed as the stream advances instead of
        accumulating up to the window.
        """
        if self._replay is None:
            return
        state = self._threads.get(thread_id)
        if state is not None:
            self._replay.release(thread_id, state.expected - 2)

    def _drain(self, state: _ThreadState, thread_id: int) -> Iterator[SegmentBatch]:
        while state.expected in state.pending:
            late = state.pending.pop(state.expected)
            self.report.record(
                _STREAM_SITE,
                "reorder",
                "reordered",
                thread_id=thread_id,
                index=late.seq,
            )
            verified = self._verified(late)
            state.expected += 1
            if verified is not None:
                yield verified

    def _flush(self) -> Iterator[SegmentBatch]:
        """Resolve every outstanding hold-back and tail gap.

        Pending batches imply gaps before them; additionally, when the
        producer advertises true per-thread batch counts
        (``stream.batch_counts``, set by the fault injector), trailing
        dropped batches — which no successor ever reveals — are chased
        down too.
        """
        counts: dict[int, int] = getattr(self._stream, "batch_counts", None) or {}
        for thread_id in counts:
            self._threads.setdefault(thread_id, _ThreadState())
        for thread_id in sorted(self._threads):
            state = self._threads[thread_id]
            target = counts.get(thread_id, 0)
            while state.pending or state.expected < target:
                repaired = self._fill_gap(thread_id)
                if repaired is not None:
                    yield repaired
                yield from self._drain(state, thread_id)
            self._release_committed(thread_id)

    # -- push API ----------------------------------------------------

    def admit_event(self, event: TraceEvent) -> list[TraceEvent]:
        """Feed one raw event; returns the events it releases (0..n).

        A sequenced batch may release nothing (held back), itself, or
        itself plus previously held batches; a :class:`JobEnd` flushes
        every outstanding repair before passing through; everything
        else passes through unchanged.
        """
        if isinstance(event, SegmentBatch) and event.seq >= 0:
            return list(self._admit(event))
        if isinstance(event, JobEnd):
            out: list[TraceEvent] = list(self._flush())
            out.append(event)
            return out
        return [event]

    def finish(self) -> list[TraceEvent]:
        """End of stream: resolve every outstanding hold-back and gap."""
        return list(self._flush())

    def events(self) -> Iterator[TraceEvent]:
        if self._stream is None:
            raise ValueError("EventGuard is not bound to a stream")
        for event in self._stream:
            yield from self.admit_event(event)
        yield from self.finish()

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.events()

    # -- snapshot protocol -------------------------------------------

    def snapshot(self) -> dict:
        """Capture sequence numbers, held-back payloads, and report."""
        return {
            "kind": "event-guard",
            "max_holdback": self.max_holdback,
            "threads": [
                [
                    thread_id,
                    state.expected,
                    [
                        [seq, batch.data, batch.checksum]
                        for seq, batch in sorted(state.pending.items())
                    ],
                ]
                for thread_id, state in self._threads.items()
            ],
            "report": self.report.to_dict(),
        }

    def restore(self, state: dict) -> None:
        """Rebuild guard state from :meth:`snapshot` output.

        The stream binding is untouched — a resumed session binds the
        guard to its freshly recreated stream, not the dead one.
        """
        if state.get("kind") != "event-guard":
            raise ValueError(f"not an event-guard snapshot: {state.get('kind')!r}")
        self.max_holdback = int(state["max_holdback"])
        self.report = FaultReport.from_dict(state["report"])
        self._threads = {}
        for thread_id, expected, pending in state["threads"]:
            thread_state = _ThreadState()
            thread_state.expected = int(expected)
            for seq, data, checksum in pending:
                thread_state.pending[int(seq)] = SegmentBatch(
                    int(thread_id), data, seq=int(seq), checksum=int(checksum)
                )
            self._threads[int(thread_id)] = thread_state
