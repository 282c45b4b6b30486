"""Nested spans around the program's public entry points.

The benchmark wraps, from the outside, the entry points of each layer
listed in :data:`FUNCTIONS` and :data:`METHODS`.  Every wrapped call is
a span; a span's *self time* is its duration minus the time covered by
spans nested inside it, so a second of wall time is booked to exactly
one layer.  Spans stay in memory and are written once, by
:meth:`Tracer.dump`.

Only functions below the ``@stage_fn`` stage bodies are wrapped (plus
the runner's per-node ``execute_payload``), so stage identities, code
fingerprints and cache keys are the same with and without tracing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: ``(module, attribute, span)`` for module-level functions.  Every
#: module that imported the function by name is patched too.
FUNCTIONS = (
    ("repro.workloads.registry", "run_workload", "workloads.run"),
    ("repro.datagen.text", "make_vocabulary", "datagen"),
    ("repro.datagen.text", "synthesize_text", "datagen"),
    ("repro.datagen.text", "synthesize_labeled_text", "datagen"),
    ("repro.datagen.kronecker", "generate_kronecker_edges", "datagen"),
    ("repro.core.clustering", "sweep_k", "clustering.sweep"),
    ("repro.core.clustering", "kmeans", "clustering.kmeans"),
    ("repro.core.sampling", "stratified_sample", "sampling"),
    ("repro.runtime.provenance", "plan_graph", "provenance.plan"),
    ("repro.runtime.provenance", "execute_payload", "stage"),
)

#: ``(module, class, attribute, span)`` for methods, static methods
#: and class methods.
METHODS = (
    ("repro.core.profiler", "SimProfProfiler", "profile", "profiler"),
    ("repro.core.features", "FeatureSpace", "fit", "features"),
    ("repro.core.phases", "PhaseModel", "fit", "phases.fit"),
    ("repro.core.clustering", "SilhouetteDistances", "build", "clustering.silhouette"),
    ("repro.core.clustering", "SilhouetteDistances", "score", "clustering.silhouette"),
    ("repro.runtime.store", "ArtifactStore", "get", "store.get"),
    ("repro.runtime.store", "ArtifactStore", "put", "store.put"),
    ("repro.runtime.provenance", "CodeIndex", "fingerprint", "provenance.fingerprint"),
    ("repro.runtime.runner", "ExperimentRunner", "run_graph", "runner.run_graph"),
)

_MB = 1024.0 * 1024.0


class Tracer:
    """In-memory span recorder: per-span self seconds and counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # One frame per open span: [name, start, seconds covered by children].
        self._stack: list[list[Any]] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - children
        self.counts[f"{name}.calls"] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[..., str],
        observe: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``observe(counts, result, *args)`` after.

        ``name`` may be a function of the call's arguments.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.enter(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(self.counts, result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans recorded so far as JSON."""
        path.write_text(
            json.dumps(
                {"self_s": dict(self.self_s), "counts": dict(self.counts)},
                sort_keys=True,
            )
        )


# -- counters read off results at each layer boundary -------------------------


def _observe_run(counts: dict, trace: Any, *args: Any, **kwargs: Any) -> None:
    counts["workloads.sim_instr"] += trace.total_instructions


def _observe_profile(counts: dict, job: Any, *args: Any, **kwargs: Any) -> None:
    counts["profiler.units"] += job.n_units


def _observe_plan(counts: dict, plans: Any, *args: Any, **kwargs: Any) -> None:
    counts["provenance.nodes"] += len(plans)
    counts["provenance.nodes_executed"] += sum(not p.cached for p in plans)


def _observe_put(counts: dict, manifest: Any, *args: Any, **kwargs: Any) -> None:
    counts["store.write_mb"] += manifest.size_bytes / _MB


def _stage_span(payload: dict, *args: Any, **kwargs: Any) -> str:
    return f"stage.{payload['stage']}"


_OBSERVERS = {
    "workloads.run": _observe_run,
    "profiler": _observe_profile,
    "provenance.plan": _observe_plan,
    "store.put": _observe_put,
}


def _traced_get(tracer: Tracer, get: Callable[..., Any]) -> Callable[..., Any]:
    """``ArtifactStore.get`` with hit and disk-read accounting."""

    @functools.wraps(get)
    def traced(store: Any, key: str) -> Any:
        from_disk = key not in store._memory
        tracer.enter("store.get")
        try:
            value = get(store, key)
        except KeyError:
            tracer.counts["store.misses"] += 1
            raise
        finally:
            tracer.exit()
        tracer.counts["store.hits"] += 1
        if from_disk:
            tracer.counts["store.read_mb"] += store._value_path(key).stat().st_size / _MB
        return value

    return traced


def _rebind(original: Any, replacement: Any) -> None:
    """Point every ``repro`` module binding of ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`FUNCTIONS` and :data:`METHODS`."""
    for module_name, attr, span in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        name = _stage_span if span == "stage" else span
        _rebind(original, tracer.wrap(original, name, _OBSERVERS.get(span)))
    for module_name, cls_name, attr, span in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = cls.__dict__[attr]
        if span == "store.get":
            setattr(cls, attr, _traced_get(tracer, raw))
        elif isinstance(raw, (staticmethod, classmethod)):
            wrapped = tracer.wrap(raw.__func__, span, _OBSERVERS.get(span))
            setattr(cls, attr, type(raw)(wrapped))
        else:
            setattr(cls, attr, tracer.wrap(raw, span, _OBSERVERS.get(span)))
    registry = importlib.import_module("repro.workloads.registry")
    for cls in registry.WORKLOADS.values():
        cls.run_spark = tracer.wrap(cls.run_spark, "workloads.spark")
        cls.run_hadoop = tracer.wrap(cls.run_hadoop, "workloads.hadoop")
