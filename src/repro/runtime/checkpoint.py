"""Content-addressed checkpoints for in-flight streaming jobs.

A checkpoint is the canonical :mod:`repro.runtime.snapshot` encoding of
a pipeline session's state, stored in the :class:`ArtifactStore` under
``kind="checkpoint"`` and keyed on *(job key, stream position)*:

* the **job key** identifies the logical job — a stable hash of the
  parameters that fully determine the stream (workload, framework,
  scale, seed, profiler config, fault plan), so two workers computing
  the same job address the same checkpoint chain;
* the **position** is the number of raw trace events already consumed.
  Resuming restores the latest snapshot and fast-forwards a freshly
  recreated stream past exactly that many events — the substrates are
  deterministic, so the discarded prefix is byte-identical to what the
  killed run saw, and everything after it continues bit-identically.

Checkpoint payloads are the encoded bytes themselves (not re-pickled
object graphs), so the store's SHA-256 payload digest doubles as the
snapshot identity: same logical state, same bytes, same digest.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Iterator

from repro.runtime.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    decode_state,
    encode_state,
    state_digest,
)
from repro.runtime.store import ArtifactManifest, ArtifactStore, stable_hash

__all__ = [
    "CHECKPOINT_KIND",
    "CheckpointManager",
    "CheckpointPolicy",
    "WorkerKilled",
    "checkpoint_job_key",
    "drive_session",
    "iter_checkpoint_manifests",
    "verify_checkpoints",
]

CHECKPOINT_KIND = "checkpoint"


class WorkerKilled(RuntimeError):
    """Raised when a seeded chaos kill fires mid-stream.

    Models abrupt worker death: the in-memory session is lost and only
    checkpoints already persisted to the store survive.
    """


def checkpoint_job_key(params: dict[str, Any]) -> str:
    """Stable job identity for a checkpoint chain.

    Derived from the job *inputs* (not the result — the result does not
    exist yet when the first checkpoint is cut), namespaced by the
    snapshot version so incompatible encodings never cross-resume.
    """
    return stable_hash({"job": params, "snapshot": SNAPSHOT_VERSION})[:20]


class CheckpointManager:
    """Save/load the checkpoint chain of one job in an ArtifactStore."""

    def __init__(self, store: ArtifactStore, job_key: str) -> None:
        self.store = store
        self.job_key = job_key

    def save(self, position: int, state: dict) -> str:
        """Persist ``state`` at stream ``position``; returns the store key.

        Idempotent: re-saving the same (job, position) is a no-op, so a
        resumed run crossing an already-checkpointed position does not
        churn the store.
        """
        blob = encode_state(state)
        params = {
            "job": self.job_key,
            "position": int(position),
            "snapshot": SNAPSHOT_VERSION,
            "state_digest": state_digest(blob),
        }
        key = self.store.key_for(CHECKPOINT_KIND, params)
        if not self.store.contains(key):
            self.store.put(key, blob, kind=CHECKPOINT_KIND, params=params)
        return key

    def manifests(self) -> list[ArtifactManifest]:
        """This job's checkpoint manifests, oldest position first."""
        found = [
            m
            for m in iter_checkpoint_manifests(self.store)
            if m.params.get("job") == self.job_key
            and m.params.get("snapshot") == SNAPSHOT_VERSION
        ]
        found.sort(key=lambda m: int(m.params.get("position", -1)))
        return found

    def latest(self) -> tuple[int, dict] | None:
        """``(position, state)`` of the newest *loadable* checkpoint.

        An entry whose payload survives the store's byte-level digest
        check but fails snapshot-level validation — wrong
        ``state_digest``, not an encoded snapshot at all, or a blob
        :func:`decode_state` rejects — is quarantined and the chain
        falls back to the previous position.  A truncated or corrupt
        checkpoint is therefore never resumable; the worst case is
        re-consuming the events since the last good snapshot.
        """
        for manifest in reversed(self.manifests()):
            try:
                blob = self.store.get(manifest.key)
            except KeyError:
                continue  # quarantined or deleted under us; try older
            want = str(manifest.params.get("state_digest") or "")
            try:
                if not isinstance(blob, (bytes, bytearray)):
                    raise SnapshotError(
                        f"checkpoint payload for {manifest.key} is not an "
                        "encoded snapshot"
                    )
                blob = bytes(blob)
                if want and state_digest(blob) != want:
                    raise SnapshotError(
                        f"checkpoint {manifest.key} fails its recorded "
                        "state digest"
                    )
                state = decode_state(blob)
            except SnapshotError:
                self.store.quarantine(manifest.key)
                continue
            return int(manifest.params["position"]), state
        return None

    def clear(self) -> int:
        """Delete this job's checkpoints (job finished); returns count."""
        manifests = self.manifests()
        for manifest in manifests:
            self.store.delete(manifest.key)
        return len(manifests)


def iter_checkpoint_manifests(store: ArtifactStore) -> Iterator[ArtifactManifest]:
    """All checkpoint manifests in ``store``, any job, unsorted."""
    for manifest in store.entries():
        if manifest.kind == CHECKPOINT_KIND:
            yield manifest


def verify_checkpoints(
    store: ArtifactStore, *, repair: bool = False
) -> dict[str, list[str]]:
    """Deep-verify every checkpoint entry; optionally quarantine bad ones.

    The store's generic :meth:`~ArtifactStore.verify` only proves the
    payload bytes match the manifest digest.  Checkpoints carry a
    second integrity layer — the snapshot-level ``state_digest`` and
    the canonical encoding itself — and an entry can pass the byte
    check while being unresumable (e.g. a snapshot truncated *before*
    it was stored, so the digest faithfully records garbage).  This
    check unpickles the payload, verifies the recorded
    ``state_digest``, and decodes the snapshot; anything that fails is
    reported ``corrupt`` and, with ``repair=True``, routed through the
    store's quarantine so it can never be loaded again.

    Returns ``{"ok": [...], "corrupt": [...], "unverified": [...]}``
    with sorted key lists, mirroring ``ArtifactStore.verify``.
    """
    out: dict[str, list[str]] = {"ok": [], "corrupt": [], "unverified": []}
    for manifest in iter_checkpoint_manifests(store):
        key = manifest.key
        if not manifest.payload_sha256:
            out["unverified"].append(key)
            continue
        try:
            payload = store.read_payload(key)
        except KeyError:
            continue  # vanished between listing and read
        healthy = False
        try:
            if hashlib.sha256(payload).hexdigest() == manifest.payload_sha256:
                blob = pickle.loads(payload)
                if isinstance(blob, (bytes, bytearray)):
                    blob = bytes(blob)
                    want = str(manifest.params.get("state_digest") or "")
                    if not want or state_digest(blob) == want:
                        decode_state(blob)
                        healthy = True
        except Exception:
            # Any unpickle/decode failure means corrupt, recorded below.
            healthy = False
        if healthy:
            out["ok"].append(key)
        else:
            out["corrupt"].append(key)
            if repair:
                store.quarantine(key)
    for keys in out.values():
        keys.sort()
    return out


@dataclass(frozen=True, slots=True)
class CheckpointPolicy:
    """How a streaming consume loop checkpoints and resumes.

    ``every`` counts raw ``SegmentBatch`` events between checkpoint
    writes.  ``resume`` restores from the manager's latest checkpoint
    before consuming.  ``kill_after`` is the deterministic kill switch
    used by the chaos mode: after that many raw events have been
    consumed the loop raises :class:`WorkerKilled`, exactly as if the
    worker process died there.
    """

    manager: CheckpointManager
    every: int = 1
    resume: bool = True
    kill_after: int | None = None

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if self.kill_after is not None and self.kill_after < 0:
            raise ValueError("kill_after must be >= 0")


def drive_session(session, stream, policy: CheckpointPolicy, *, meter=None) -> int:
    """Feed ``stream`` into ``session`` under ``policy``; returns events fed.

    The session is any push-mode pipeline (``feed``/``finish``/
    ``snapshot``/``restore`` plus a ``batches_fed`` counter — the
    :class:`~repro.core.profiler.ProfilerSession` shape).  Behaviour:

    * **resume** — restore the latest checkpoint and fast-forward the
      freshly recreated stream past exactly ``position`` raw events;
      the substrates (and the fault injector) are deterministic, so the
      discarded prefix is byte-identical to what the suspended run
      consumed and everything after continues bit-identically;
    * **checkpoint** — after every ``policy.every``-th batch, persist
      ``{"position", "session"}`` through the manager;
    * **kill** — when ``policy.kill_after`` is set and the absolute
      event position reaches it *within this run*, raise
      :class:`WorkerKilled` (the chaos mode's deterministic stand-in
      for abrupt worker death).  A resume already past the offset
      simply completes.

    ``meter`` (a :class:`~repro.runtime.instrument.ThroughputMeter`)
    ticks per emitted unit, matching the plain consume loop.
    """
    start = 0
    if policy.resume:
        found = policy.manager.latest()
        if found is not None:
            start, state = found
            if int(state.get("position", -1)) != start:
                raise ValueError(
                    f"checkpoint position mismatch: manifest {start}, "
                    f"payload {state.get('position')}"
                )
            session.restore(state["session"])
    position = 0
    events = iter(stream)
    while position < start:
        try:
            next(events)
        except StopIteration:
            raise ValueError(
                f"stream ended at event {position} while fast-forwarding "
                f"to checkpoint position {start}; the checkpoint belongs "
                "to a different job"
            ) from None
        position += 1
    last_batches = session.batches_fed
    for event in events:
        position += 1
        emitted = session.feed(event)
        if meter is not None and emitted:
            meter.tick(len(emitted))
        if session.batches_fed != last_batches:
            last_batches = session.batches_fed
            if last_batches % policy.every == 0:
                policy.manager.save(
                    position,
                    {"position": position, "session": session.snapshot()},
                )
        if policy.kill_after is not None and position == policy.kill_after:
            raise WorkerKilled(
                f"chaos kill at stream position {position} "
                f"(job {policy.manager.job_key})"
            )
    emitted = session.finish()
    if meter is not None and emitted:
        meter.tick(len(emitted))
    return position
