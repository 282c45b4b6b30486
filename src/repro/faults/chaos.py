"""Kill-and-restore chaos: deterministic worker death, bit-exact resume.

The checkpoint layer (:mod:`repro.runtime.checkpoint`) promises that a
streaming job killed mid-flight resumes bit-identically from its latest
checkpoint.  This module *attacks* that promise the way the rest of
:mod:`repro.faults` attacks recovery paths — with seeded, replayable
violence:

1. run the job once uninterrupted (the reference result, no
   checkpointing) and count its stream events;
2. repeat ``plan.kills`` times: draw a kill offset from
   ``site_rng(seed, "chaos.kill", attempt)`` strictly after the
   position the latest checkpoint would resume from (so every cycle
   makes progress), run with checkpointing enabled, and die there via
   :class:`~repro.runtime.checkpoint.WorkerKilled` — exactly what a
   preempted spot instance looks like to the pipeline;
3. run a final attempt with no kill switch: it restores the latest
   checkpoint, fast-forwards, and completes.

The outcome is byte-compared against the reference —
:meth:`~repro.core.units.JobProfile.content_digest` for profiling
sessions, digest plus the full label sequence for online
classification.  Because every kill offset derives from the plan seed,
a chaos run is itself replayable.

The driver is generic over any push-mode session (``feed`` /
``finish`` / ``snapshot`` / ``restore`` / ``result``): pass factories
for the stream and the session so each attempt gets a pristine pair,
the same way a replacement worker would recreate them from the job
spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faults.plan import site_rng
from repro.runtime.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    WorkerKilled,
    drive_session,
)
from repro.runtime.store import ArtifactStore

__all__ = [
    "ChaosAttempt",
    "ChaosOutcome",
    "ChaosPlan",
    "kill_and_restore",
]

_KILL_SITE = "chaos.kill"


@dataclass(frozen=True, slots=True)
class ChaosPlan:
    """Knobs of one kill-and-restore campaign.

    ``kills`` is how many times the worker dies before the final,
    unharassed attempt; ``checkpoint_every`` the batch interval between
    snapshots (1 = checkpoint at every batch).  ``seed`` steers the
    kill offsets and nothing else — the job's own randomness comes from
    its profiler/workload seeds.
    """

    seed: int = 0
    kills: int = 2
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if self.kills < 0:
            raise ValueError("kills must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass(frozen=True, slots=True)
class ChaosAttempt:
    """One kill cycle: where the worker died, where it had resumed from."""

    attempt: int
    kill_position: int
    resumed_from: int
    killed: bool


@dataclass
class ChaosOutcome:
    """The verdict of one campaign."""

    n_events: int
    attempts: list[ChaosAttempt] = field(default_factory=list)
    reference: Any = None
    resumed: Any = None
    final_resumed_from: int = 0

    @staticmethod
    def _identity(result: Any) -> Any:
        # ProfilerSession.result() -> JobProfile;
        # ClassifySession.result() -> (JobProfile, labels).
        if isinstance(result, tuple):
            job, labels = result
            return (job.content_digest(), tuple(labels))
        return result.content_digest()

    @property
    def byte_identical(self) -> bool:
        """Resumed result byte-equals the uninterrupted reference."""
        return self._identity(self.reference) == self._identity(self.resumed)


def kill_and_restore(
    make_stream: Callable[[], Any],
    make_session: Callable[[Any], Any],
    store: ArtifactStore,
    job_key: str,
    plan: ChaosPlan,
) -> ChaosOutcome:
    """Run the seeded kill-and-restore campaign described above.

    ``make_stream`` recreates the (deterministic) trace stream and
    ``make_session`` builds a fresh push-mode session over it — called
    once per attempt, mimicking a replacement worker rebuilding state
    from the job spec.  Returns the :class:`ChaosOutcome`; the caller
    asserts :attr:`~ChaosOutcome.byte_identical`.
    """
    # Reference: uninterrupted, checkpointing off — the plain hot path.
    stream = make_stream()
    session = make_session(stream)
    n_events = 0
    for event in stream:
        n_events += 1
        session.feed(event)
    session.finish()
    outcome = ChaosOutcome(n_events=n_events, reference=session.result())

    manager = CheckpointManager(store, job_key)
    for attempt in range(plan.kills):
        latest = manager.latest()
        resumed_from = 0 if latest is None else latest[0]
        low = resumed_from + 1
        if low >= n_events:
            break  # checkpointed past the last event; nothing left to kill
        kill_at = int(site_rng(plan.seed, _KILL_SITE, attempt).integers(low, n_events))
        policy = CheckpointPolicy(
            manager,
            every=plan.checkpoint_every,
            resume=True,
            kill_after=kill_at,
        )
        stream = make_stream()
        session = make_session(stream)
        killed = False
        try:
            drive_session(session, stream, policy)
        except WorkerKilled:
            killed = True
        outcome.attempts.append(
            ChaosAttempt(
                attempt=attempt,
                kill_position=kill_at,
                resumed_from=resumed_from,
                killed=killed,
            )
        )

    latest = manager.latest()
    outcome.final_resumed_from = 0 if latest is None else latest[0]
    stream = make_stream()
    session = make_session(stream)
    drive_session(
        session,
        stream,
        CheckpointPolicy(manager, every=plan.checkpoint_every, resume=True),
    )
    outcome.resumed = session.result()
    return outcome
