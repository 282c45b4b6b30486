"""The execution engine: artifact store, batch runner, instrumentation.

Three layers every experiment driver builds on:

* :mod:`repro.runtime.store` — content-addressed artifact store with
  stable parameter hashing, atomic writes and versioned manifests
  (``SIMPROF_CACHE_DIR`` sets the location);
* :mod:`repro.runtime.runner` — incremental execution of stage graphs
  (:mod:`repro.runtime.provenance`) across a process pool
  (``SIMPROF_JOBS``), cache-aware and deterministic;
* :mod:`repro.runtime.instrument` — per-stage timing/counter hooks
  threaded through the core pipeline and surfaced in manifests and
  ``simprof stats``.

Every symbol is re-exported lazily (PEP 562): ``repro.core`` imports
the instrumentation hooks from here, and the runner imports
``repro.core`` back, so loading it eagerly at package-init time would
create a cycle; and a warm report, which never checkpoints, does not
load :mod:`repro.runtime.checkpoint`.
"""

import importlib
from typing import TYPE_CHECKING

#: Public names and the modules that define them, loaded on first access.
_EXPORTS = {
    "ArtifactManifest": "repro.runtime.store",
    "ArtifactStore": "repro.runtime.store",
    "CHECKPOINT_KIND": "repro.runtime.checkpoint",
    "CacheStats": "repro.runtime.store",
    "CheckpointManager": "repro.runtime.checkpoint",
    "CheckpointPolicy": "repro.runtime.checkpoint",
    "ExperimentRunner": "repro.runtime.runner",
    "Instrumentation": "repro.runtime.instrument",
    "RunSpec": "repro.runtime.runner",
    "RunnerError": "repro.runtime.runner",
    "SNAPSHOT_VERSION": "repro.runtime.snapshot",
    "STORE_VERSION": "repro.runtime.store",
    "SnapshotError": "repro.runtime.snapshot",
    "Snapshotable": "repro.runtime.snapshot",
    "StageRecord": "repro.runtime.instrument",
    "StageStats": "repro.runtime.instrument",
    "WorkerKilled": "repro.runtime.checkpoint",
    "canonical_repr": "repro.runtime.store",
    "checkpoint_job_key": "repro.runtime.checkpoint",
    "decode_state": "repro.runtime.snapshot",
    "default_store": "repro.runtime.store",
    "drive_session": "repro.runtime.checkpoint",
    "encode_state": "repro.runtime.snapshot",
    "get_instrumentation": "repro.runtime.instrument",
    "record_stage": "repro.runtime.instrument",
    "reset_default_stores": "repro.runtime.store",
    "resolve_jobs": "repro.runtime.runner",
    "restore_rng": "repro.runtime.snapshot",
    "rng_state": "repro.runtime.snapshot",
    "stable_hash": "repro.runtime.store",
    "stage_timer": "repro.runtime.instrument",
    "state_digest": "repro.runtime.snapshot",
}

if TYPE_CHECKING:
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
    from repro.runtime.runner import (
        ExperimentRunner,
        RunnerError,
        RunSpec,
        resolve_jobs,
    )

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
