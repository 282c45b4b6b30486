"""The execution engine: artifact store, batch runner, instrumentation.

Three layers every experiment driver builds on:

* :mod:`repro.runtime.store` — content-addressed artifact store with
  stable parameter hashing, atomic writes, versioned manifests and hit
  counters (``SIMPROF_CACHE_DIR`` sets the location);
* :mod:`repro.runtime.runner` — incremental execution of stage graphs
  (:mod:`repro.runtime.provenance`) across a process pool
  (``SIMPROF_JOBS``), cache-aware and deterministic;
* :mod:`repro.runtime.instrument` — per-stage timing/counter hooks
  threaded through the core pipeline and surfaced in manifests and
  ``simprof stats``.

The runner symbols are re-exported lazily (PEP 562): ``repro.core``
imports the instrumentation hooks from here, and the runner imports
``repro.core`` back, so loading it eagerly at package-init time would
create a cycle.
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_KIND,
    CheckpointManager,
    CheckpointPolicy,
    WorkerKilled,
    checkpoint_job_key,
    drive_session,
)
from repro.runtime.instrument import (
    Instrumentation,
    StageRecord,
    StageStats,
    get_instrumentation,
    record_stage,
    stage_timer,
)
from repro.runtime.snapshot import (
    SNAPSHOT_VERSION,
    Snapshotable,
    SnapshotError,
    decode_state,
    encode_state,
    restore_rng,
    rng_state,
    state_digest,
)
from repro.runtime.store import (
    STORE_VERSION,
    ArtifactManifest,
    ArtifactStore,
    CacheStats,
    canonical_repr,
    default_store,
    reset_default_stores,
    stable_hash,
)

_RUNNER_EXPORTS = (
    "ExperimentRunner",
    "RunSpec",
    "RunnerError",
    "resolve_jobs",
    "spec_stream",
)

# The replication plane imports the fault-plan RNG (for deterministic
# backoff jitter), which lives above the runtime layer — re-exported
# lazily for the same reason as the runner.
_REPLICATE_EXPORTS = (
    "FilesystemPeer",
    "FlakyPeer",
    "FlakyPlan",
    "ReplicationPolicy",
    "ReplicationStatus",
    "RetryPolicy",
    "StorePeer",
    "pull_fleet",
    "pull_job",
    "push_key",
    "replicate_store",
    "resolve_replication",
    "restore_fleet",
)

__all__ = [
    "CHECKPOINT_KIND",
    "SNAPSHOT_VERSION",
    "STORE_VERSION",
    "ArtifactManifest",
    "ArtifactStore",
    "CacheStats",
    "CheckpointManager",
    "CheckpointPolicy",
    "Instrumentation",
    "Snapshotable",
    "SnapshotError",
    "StageRecord",
    "StageStats",
    "WorkerKilled",
    "canonical_repr",
    "checkpoint_job_key",
    "decode_state",
    "default_store",
    "drive_session",
    "encode_state",
    "get_instrumentation",
    "record_stage",
    "reset_default_stores",
    "restore_rng",
    "rng_state",
    "stable_hash",
    "stage_timer",
    "state_digest",
    *_RUNNER_EXPORTS,
    *_REPLICATE_EXPORTS,
]


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.runtime import runner

        return getattr(runner, name)
    if name in _REPLICATE_EXPORTS:
        from repro.runtime import replicate

        return getattr(replicate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
