"""The experiment runner: one scheduler over the provenance graph.

:meth:`ExperimentRunner.run_graph` plans a
:class:`~repro.runtime.provenance.StageGraph` against the artifact
store, then runs every ready cache miss: deepest-first in process when
serial, fanned out over :func:`map_tasks` when parallel.
:class:`RunSpec` names one (workload, framework, scale, seed, graph,
params, SimProf knobs) request; :mod:`repro.runtime.stages` wires its
stage chain into a graph.

Guarantees:

* **incremental** — a node whose full provenance key is already in the
  store is never recomputed, and structurally equal chains collapse to
  one node;
* **one attempt** — stages are pure functions of (inputs, params,
  code), so a failing stage surfaces at once as :class:`RunnerError`
  naming its node; a broken pool (OOM-killed worker, fork failure)
  degrades to in-process execution;
* **self-healing** — a planned-cached entry that fails to load (the
  store quarantines it) is re-planned and recomputed once;
* **deterministic results** — every stage value is stored with its
  manifest and digest; pool workers return only keys and consumers
  read values back from the store, while a serial run hands them over
  in memory (deepest-first, released after their last consumer), and
  both produce identical bytes.

Parallelism defaults to serial; set ``SIMPROF_JOBS`` (or pass ``jobs=``)
to fan out.  Workers open the store by its root, and the store's
atomic unique-tempfile writes make concurrent materialisation safe.
"""

from __future__ import annotations

import os
import reprlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.core.pipeline import SimProfConfig
from repro.runtime.store import ArtifactStore, default_store

__all__ = [
    "RunSpec",
    "GraphResult",
    "RunnerError",
    "ExperimentRunner",
    "resolve_jobs",
    "map_tasks",
]


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument, else ``SIMPROF_JOBS``, else 1.

    An explicit count must be positive; an unset or malformed
    ``SIMPROF_JOBS`` means serial.
    """
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        return jobs
    env = os.environ.get("SIMPROF_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


class RunnerError(RuntimeError):
    """A task (a stage node, a lint pass) raised."""


def _run_once(
    fn: Callable[[Any], Any], item: Any, label: Callable[[Any], str]
) -> Any:
    """``fn(item)``, with any exception rewrapped as :class:`RunnerError`."""
    try:
        return fn(item)
    except Exception as exc:  # noqa: BLE001 - rewrapped with the task's name
        raise RunnerError(f"task {label(item)} failed: {exc}") from exc


def map_tasks(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: int | None = None,
    label: Callable[[Any], str] = reprlib.repr,
) -> list[Any]:
    """Order-preserving parallel map: the program's one process pool.

    The executor under :meth:`ExperimentRunner.run_graph`, also used by
    the lint passes: ``fn`` must be a picklable module-level callable
    and each item picklable.  Guarantees:

    * results come back in input order, so serial (``jobs=1``) and
      parallel runs of a deterministic ``fn`` are byte-identical;
    * each item runs once; an exception surfaces as
      :class:`RunnerError`, which names the item by ``label(item)`` (a
      size-bounded ``repr`` by default).  Tasks are deterministic, so
      running one again would only repeat its failure.  The first
      failure cancels every task not yet started;
    * a broken pool (OOM-killed worker, fork failure) degrades to
      in-process execution of the unfinished items.

    ``jobs`` defaults to the ``SIMPROF_JOBS`` environment variable;
    with one worker (or one item) everything runs in-process.
    """
    jobs = resolve_jobs(jobs)
    work = list(items)
    if jobs <= 1 or len(work) <= 1:
        return [_run_once(fn, item, label) for item in work]

    results: list[Any] = [None] * len(work)
    done: set[int] = set()
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            futures = {pool.submit(fn, item): i for i, item in enumerate(work)}
            for future in as_completed(futures):
                i = futures[future]
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    raise exc
                if exc is not None:
                    # Fail fast: drop the queued siblings, so leaving the
                    # pool waits only for the tasks already running.
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise RunnerError(f"task {label(work[i])} failed: {exc}") from exc
                results[i] = future.result()
                done.add(i)
    except BrokenProcessPool:
        # A worker died hard (OOM, signal).  Finish what is left
        # in-process rather than losing the batch.
        for i, item in enumerate(work):
            if i not in done:
                results[i] = _run_once(fn, item, label)
    return results


@dataclass(frozen=True)
class RunSpec:
    """One (workload, framework) execution request.

    ``params`` are workload input knobs (e.g. ``zipf_s``); ``simprof``
    is the full pipeline configuration.  Cache keys are derived from
    *every* field, so no knob can go stale silently.
    """

    workload: str
    framework: str
    scale: float = 1.0
    seed: int = 0
    graph_name: str | None = None
    input_name: str | None = None
    params: Mapping[str, Any] | None = None
    simprof: SimProfConfig = field(default_factory=SimProfConfig)

    @property
    def label(self) -> str:
        """Short display label, e.g. ``wc_sp``."""
        suffix = {"spark": "sp", "hadoop": "hp"}.get(self.framework, self.framework)
        return f"{self.workload}_{suffix}"

    def profile_params(self) -> dict[str, Any]:
        """Key material for the profile artifact.

        The profiler subset is derived automatically from
        :meth:`SimProfConfig.profiler_config` (a dataclass), so every
        profiling-relevant knob — including ``simprof.seed``, which the
        old hand-listed keys dropped — is part of the key.
        """
        return {
            "workload": self.workload,
            "framework": self.framework,
            "scale": self.scale,
            "seed": self.seed,
            "graph": self.graph_name or "",
            "input_name": self.input_name or self.graph_name or "default",
            "params": dict(self.params or {}),
            "profiler": self.simprof.profiler_config(),
        }


@dataclass
class GraphResult:
    """Outcome of one :meth:`ExperimentRunner.run_graph` execution.

    Holds the resolved :class:`~repro.runtime.provenance.NodePlan` per
    node; values stay in the store and load lazily (``result[name]``),
    so a driver fetching only its report node never unpickles the
    upstream traces.
    """

    store: ArtifactStore
    plans: list[Any]  # list[NodePlan]
    # Re-plans and re-executes the graph; set by run_graph.
    rerun: Callable[[], Any] | None = field(default=None, repr=False)

    def plan(self, name: str) -> Any:
        for plan in self.plans:
            if plan.name == name:
                return plan
        raise KeyError(f"no stage node named {name!r}")

    def key(self, name: str) -> str:
        return self.plan(name).key

    def cached(self, name: str) -> bool:
        return self.plan(name).cached

    @property
    def executed(self) -> list[str]:
        """Node names recomputed this run (in topological order)."""
        return [p.name for p in self.plans if not p.cached]

    @property
    def hits(self) -> int:
        return sum(p.cached for p in self.plans)

    @property
    def misses(self) -> int:
        return len(self.plans) - self.hits

    def __getitem__(self, name: str) -> Any:
        key = self.key(name)
        try:
            return self.store.get(key)
        except KeyError:
            if self.rerun is None:
                raise
        # Planned cached but unreadable: the store has dropped the
        # entry, so one re-plan misses it and recomputes it.
        self.rerun()
        return self.store.get(key)


# -- the runner ---------------------------------------------------------------


class ExperimentRunner:
    """Executes stage graphs against one artifact store."""

    def __init__(
        self, store: ArtifactStore | None = None, *, jobs: int | None = None
    ) -> None:
        self.store = store or default_store()
        self.jobs = resolve_jobs(jobs)

    def plan_graph(self, graph: Any, *, code: Any | None = None) -> list[Any]:
        """Resolve a :class:`~repro.runtime.provenance.StageGraph` to
        per-node keys, lineage records and hit/miss causes (no
        execution)."""
        from repro.runtime.provenance import plan_graph

        return plan_graph(graph, self.store, code=code)

    def run_graph(self, graph: Any, *, code: Any | None = None) -> GraphResult:
        """Execute a stage graph incrementally.

        Plans the graph (:func:`~repro.runtime.provenance.plan_graph`),
        then runs every *ready* miss — all upstream nodes cached or
        already executed.  Nodes whose full provenance digest matches
        an existing entry are never re-executed, which is the entire
        point: after a one-line edit to one estimator, only the stages
        whose code closure contains that module run again.

        With one job, misses run one at a time, deepest ready node
        first, so each chain (trace-gen → profile → … → estimate) ends
        before the next trace is made; each stage takes its inputs from
        a per-run table of values produced or loaded in this run, and a
        value leaves the table once its last consumer has run.  With
        more, each ready set fans out over :func:`map_tasks`; workers
        materialise into the shared store and return keys.  Values are
        stored with their manifests either way, so a parallel run is
        byte-identical to a serial one.

        Cached entries are not hashed at plan time.  One that fails to
        load as a stage input is dropped by the store; the graph is
        then re-planned, so the entry misses, and run once more.
        """
        plans = self._run(graph, code)
        if plans is None:
            plans = self._run(graph, code)
            if plans is None:
                raise RunnerError(
                    f"stage graph {graph.name!r}: a cached input failed "
                    "to load again after recomputing"
                )
        return GraphResult(
            store=self.store,
            plans=plans,
            rerun=lambda: self._run(graph, code),
        )

    def _run(self, graph: Any, code: Any | None) -> list[Any] | None:
        """Plan and execute once; None if a cached input was unreadable."""
        from repro.runtime.provenance import (
            execute_payload,
            note_stage_manifest,
            record_graph_run,
            worker_payload,
        )

        plans = self.plan_graph(graph, code=code)
        completed = {p.name for p in plans if p.cached}
        pending = [p for p in plans if not p.cached]
        serial = self.jobs <= 1
        # Serial hand-off table: artifact key -> value, and how many
        # pending nodes still consume each key.
        values: dict[str, Any] = {}
        consumers: dict[str, int] = {}
        for plan in pending:
            for key in _input_keys(plan):
                consumers[key] = consumers.get(key, 0) + 1
        intact = True
        while pending and intact:
            ready = [
                p
                for p in pending
                if all(d in completed for d in p.node.deps.values())
            ]
            if not ready:  # pragma: no cover - topo order precludes this
                stuck = sorted(p.name for p in pending)
                raise RunnerError(f"stage graph deadlock at {stuck}")
            if serial:
                batch = [max(ready, key=lambda p: p.depth)]
                payload = worker_payload(batch[0], self.store)
                payload["values"] = values
                keys = [_run_once(execute_payload, payload, _node_label)]
            else:
                batch = ready
                keys = map_tasks(
                    execute_payload,
                    [worker_payload(p, self.store) for p in batch],
                    jobs=self.jobs,
                    label=_node_label,
                )
                for key in filter(None, keys):
                    manifest = self.store.manifest(key)
                    if manifest is not None:
                        note_stage_manifest(self.store, manifest)
            intact = None not in keys
            for plan in batch:
                for key in _input_keys(plan):
                    consumers[key] -= 1
                    if not consumers[key]:
                        values.pop(key, None)
                if not consumers.get(plan.key):
                    values.pop(plan.key, None)
            completed.update(p.name for p in batch)
            pending = [p for p in pending if p.name not in completed]
        record_graph_run(self.store, plans)
        return plans if intact else None


def _node_label(payload: dict[str, Any]) -> str:
    """A failed stage node's name in a :class:`RunnerError` message."""
    return f"{payload['record']['node']} ({payload['key']})"


def _input_keys(plan: Any) -> list[str]:
    """The distinct artifact keys one planned node consumes."""
    return sorted({up["key"] for up in plan.record["upstream"].values()})
