"""Deterministic fault injection with recovery semantics.

The fault model mirrors what SimProf would face on a real cluster:
executors straggle, tasks fail and are re-executed, GC pauses land in
the middle of a phase, and hardware counters glitch.  Every fault is
drawn from a :class:`~repro.faults.plan.FaultPlan` seeded via
``SeedSequence([plan.seed, FAULTS_KEY, site, *coords])`` so an
identical plan replays bit-identically, and a null plan (all rates
zero) is a complete no-op — it consumes no randomness and leaves the
fault-free output byte-for-byte unchanged.

Layers:

``plan``
    :class:`FaultPlan` (the serialisable knob set) and ``site_rng``
    (the per-decision RNG derivation).
``report``
    :class:`FaultEvent` / :class:`FaultReport` — the audit trail every
    recovery path must leave behind.
``inject``
    :class:`ClusterFaultInjector` (task failures / stragglers / GC
    pauses inside the simulated Spark + Hadoop clusters) and
    :func:`perturb_trace` (batch-trace counter glitches).
``chaos``
    :func:`kill_and_restore` — seeded kill-and-restore campaigns that
    kill checkpointing jobs at deterministic stream offsets and verify
    the resumed result byte-equals an uninterrupted run.
"""

import importlib
from typing import TYPE_CHECKING

#: Public names and the modules that define them.  They load on first
#: access (PEP 562), so importing one submodule does not load the rest.
_EXPORTS = {
    "ChaosAttempt": "repro.faults.chaos",
    "ChaosOutcome": "repro.faults.chaos",
    "ChaosPlan": "repro.faults.chaos",
    "ClusterFaultInjector": "repro.faults.inject",
    "FAULTS_KEY": "repro.faults.plan",
    "FaultEvent": "repro.faults.report",
    "FaultPlan": "repro.faults.plan",
    "FaultReport": "repro.faults.report",
    "TaskFaults": "repro.faults.inject",
    "kill_and_restore": "repro.faults.chaos",
    "perturb_trace": "repro.faults.inject",
    "site_rng": "repro.faults.plan",
}

if TYPE_CHECKING:  # also the import edges that code fingerprints follow
    from repro.faults.chaos import (
        ChaosAttempt,
        ChaosOutcome,
        ChaosPlan,
        kill_and_restore,
    )
    from repro.faults.inject import ClusterFaultInjector, TaskFaults, perturb_trace
    from repro.faults.plan import FAULTS_KEY, FaultPlan, site_rng
    from repro.faults.report import FaultEvent, FaultReport

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
