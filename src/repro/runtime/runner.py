"""The experiment runner: one scheduler over the provenance graph.

:meth:`ExperimentRunner.run_graph` plans a
:class:`~repro.runtime.provenance.StageGraph` against the artifact
store and fans every ready cache miss out over :func:`map_tasks`.
:class:`RunSpec` names one (workload, framework, scale, seed, graph,
params, SimProf knobs) request; :mod:`repro.runtime.stages` wires its
stage chain into a graph.

Guarantees:

* **incremental** — a node whose full provenance key is already in the
  store is never recomputed, and structurally equal chains collapse to
  one node;
* **bounded retries with backoff** — a failing task is retried up to
  ``retries`` times (sleeping ``backoff * 2**attempt`` seconds, with
  deterministic jitter, between attempts) before surfacing as
  :class:`RunnerError`; a broken pool (OOM-killed worker, fork failure)
  degrades to in-process execution;
* **self-healing** — a planned-cached entry that fails to load (the
  store quarantines it) is re-planned and recomputed once;
* **deterministic results** — workers only *materialise* artifacts into
  the content-addressed store and return keys; values are read back
  from the store, so serial and parallel runs produce identical bytes.

Parallelism defaults to serial; set ``SIMPROF_JOBS`` (or pass ``jobs=``)
to fan out.  Workers open the store by its root, and the store's
atomic unique-tempfile writes make concurrent materialisation safe.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Iterable, Mapping

from repro.core.pipeline import SimProf, SimProfConfig
from repro.core.units import JobProfile
from repro.runtime.store import ArtifactStore, default_store

__all__ = [
    "RunSpec",
    "GraphResult",
    "RunnerError",
    "ExperimentRunner",
    "resolve_jobs",
    "map_tasks",
    "spec_stream",
]


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument, else ``SIMPROF_JOBS``, else 1."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("SIMPROF_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


class RunnerError(RuntimeError):
    """A spec kept failing after the configured retries."""


def _backoff_sleep(backoff: float, seed: int, attempt: int, *coords: int) -> None:
    """Exponential backoff with *deterministic* jitter.

    The jitter factor is drawn from ``site_rng(seed, "runner.backoff",
    *coords, attempt)`` — never from ambient randomness — so fault
    replays wait bit-identical intervals.  The sleep is
    ``backoff * 2**attempt * (1 + 0.5·u)`` with ``u ~ U[0, 1)``: the
    floor equals the historical un-jittered schedule, the jitter only
    ever stretches it, desynchronising retry herds without speeding
    anything up behind a test's back.
    """
    if backoff <= 0:
        return
    from repro.faults.plan import site_rng

    u = float(site_rng(seed, "runner.backoff", *coords, attempt).uniform())
    time.sleep(backoff * (2.0**attempt) * (1.0 + 0.5 * u))


def map_tasks(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    jobs: int | None = None,
    retries: int = 2,
    backoff: float = 0.0,
    seed: int = 0,
    initializer: Callable[..., None] | None = None,
    initargs: tuple[Any, ...] = (),
) -> list[Any]:
    """Order-preserving parallel map with the runner's failure semantics.

    The executor under :meth:`ExperimentRunner.run_graph`, also used
    directly by pure compute tasks (the phase k-sweep, batch scoring):
    ``fn`` must be a picklable module-level callable and each item
    picklable.  Guarantees:

    * results come back in input order, so serial (``jobs=1``) and
      parallel runs of a deterministic ``fn`` are byte-identical;
    * per-item bounded retries with exponential backoff and
      deterministic per-item jitter (``backoff * 2**attempt`` seconds
      stretched by ``site_rng(seed, "runner.backoff", item, attempt)``),
      surfacing as :class:`RunnerError` when exhausted;
    * a broken pool (OOM-killed worker, fork failure) degrades to
      in-process execution of the unfinished items — ``initializer``
      is then invoked locally so per-process context stays available.

    ``jobs`` defaults to the ``SIMPROF_JOBS`` environment variable;
    with one worker (or one item) everything runs in-process and the
    initializer, if any, runs first.
    """
    jobs = resolve_jobs(jobs)
    retries = max(0, int(retries))
    backoff = max(0.0, float(backoff))
    work = list(items)

    def sleep_before_retry(attempt: int, index: int) -> None:
        _backoff_sleep(backoff, seed, attempt, index)

    def run_inline(index: int, item: Any) -> Any:
        last: Exception | None = None
        for attempt in range(retries + 1):
            if attempt > 0:
                sleep_before_retry(attempt - 1, index)
            try:
                return fn(item)
            except Exception as exc:  # noqa: BLE001 - rewrapped below
                last = exc
        raise RunnerError(
            f"task {item!r} failed after {retries + 1} attempts: {last}"
        ) from last

    if jobs <= 1 or len(work) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [run_inline(i, item) for i, item in enumerate(work)]

    results: list[Any] = [None] * len(work)
    done: set[int] = set()
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(work)),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            attempts = dict.fromkeys(range(len(work)), 0)
            futures = {pool.submit(fn, item): i for i, item in enumerate(work)}
            while futures:
                finished, _pending = wait(futures, return_when=FIRST_COMPLETED)
                for future in finished:
                    i = futures.pop(future)
                    exc = future.exception()
                    if exc is None:
                        results[i] = future.result()
                        done.add(i)
                        continue
                    if isinstance(exc, BrokenProcessPool):
                        raise exc
                    attempts[i] += 1
                    if attempts[i] > retries:
                        raise RunnerError(
                            f"task {work[i]!r} failed after "
                            f"{retries + 1} attempts: {exc}"
                        ) from exc
                    sleep_before_retry(attempts[i] - 1, i)
                    futures[pool.submit(fn, work[i])] = i
    except BrokenProcessPool:
        # A worker died hard (OOM, signal).  Finish what is left
        # in-process rather than losing the batch.
        if initializer is not None:
            initializer(*initargs)
        for i, item in enumerate(work):
            if i not in done:
                results[i] = run_inline(i, item)
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

    def to_payload(self) -> dict[str, Any]:
        """Plain-dict form safe to ship to a pool worker."""
        return {
            "workload": self.workload,
            "framework": self.framework,
            "scale": self.scale,
            "seed": self.seed,
            "graph_name": self.graph_name,
            "input_name": self.input_name,
            "params": dict(self.params or {}),
            "simprof": asdict(self.simprof),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_payload` output.

        Tolerant by design: unknown top-level keys and unknown
        ``simprof`` knobs are ignored, and missing optional fields take
        their defaults — a journal or checkpoint written by a newer
        schema still round-trips on an older engine instead of crashing
        a resume.  Unknown knobs cannot silently alias: cache keys are
        derived from the *reconstructed* spec, so a dropped knob yields
        the same key an engine without that knob would compute.
        """
        raw = payload.get("simprof") or {}
        if isinstance(raw, SimProfConfig):
            simprof = raw
        else:
            known = {f.name for f in fields(SimProfConfig)}
            simprof = SimProfConfig(
                **{k: v for k, v in dict(raw).items() if k in known}
            )
        return cls(
            workload=payload["workload"],
            framework=payload["framework"],
            scale=payload.get("scale", 1.0),
            seed=payload.get("seed", 0),
            graph_name=payload.get("graph_name"),
            input_name=payload.get("input_name"),
            params=payload.get("params") or None,
            simprof=simprof,
        )


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


# -- computation (runs in the parent or in pool workers) ----------------------


def spec_stream(spec: RunSpec):
    """The raw event stream a spec profiles (workload + graph resolved).

    Shared by the streaming compute path and the chaos drills so both
    consume byte-identical streams for the same spec.
    """
    from repro.datagen.seeds import GRAPH_INPUTS
    from repro.workloads import run_workload_stream

    graph = GRAPH_INPUTS[spec.graph_name] if spec.graph_name else None
    return run_workload_stream(
        spec.workload,
        spec.framework,
        scale=spec.scale,
        seed=spec.seed,
        graph=graph,
        input_name=spec.input_name or spec.graph_name or "default",
        params=dict(spec.params) if spec.params else None,
    )


def _compute_profile_stream(
    spec: RunSpec,
    store: ArtifactStore,
    *,
    checkpoint_every: int,
    resume: bool = True,
    kill_after: int | None = None,
    replicate: Any | None = None,
) -> JobProfile:
    """Profile a spec off its live stream, with checkpointing.

    The job is profiled off a live stream under a
    :class:`~repro.runtime.checkpoint.CheckpointPolicy` keyed on the
    spec's profile params: a worker killed mid-stream leaves its
    snapshots in the shared store, and the next worker to pick up the
    same spec resumes bit-identically from the latest one.  On success
    the snapshots are cleared — the profile artifact supersedes them.

    Two robustness layers ride along:

    * the job registers itself in the store's **inflight journal**
      (:mod:`repro.runtime.replicate`) while streaming, so a fleet of
      killed workers can be rediscovered and restored wholesale by
      :func:`~repro.runtime.replicate.restore_fleet`;
    * with replication configured (``replicate=`` or the
      ``SIMPROF_REPLICA_PEER`` environment), every fresh checkpoint —
      and the journal entry itself — is mirrored to the peer.  An
      env-resolved policy is owned here and drained on the way out
      (success *or* simulated kill: the real-world analogue is the
      replication agent outliving the worker process); a policy passed
      in stays caller-owned.
    """
    from repro.runtime.checkpoint import (
        CheckpointManager,
        CheckpointPolicy,
        checkpoint_job_key,
    )
    from repro.runtime.replicate import (
        clear_inflight,
        register_inflight,
        resolve_replication,
    )

    owned = replicate is None
    replicate = resolve_replication() if replicate is None else replicate
    manager = CheckpointManager(
        store, checkpoint_job_key(spec.profile_params()), replicate=replicate
    )
    policy = CheckpointPolicy(
        manager, every=checkpoint_every, resume=resume, kill_after=kill_after
    )
    register_inflight(
        store,
        manager.job_key,
        {
            "spec": spec.to_payload(),
            "checkpoint_every": int(checkpoint_every),
            "label": spec.label,
        },
        replicate=replicate,
    )
    try:
        job = SimProf(spec.simprof).profile_stream(
            spec_stream(spec), checkpoint=policy
        )
    finally:
        if owned and replicate is not None:
            replicate.close()
    manager.clear()
    clear_inflight(store, manager.job_key, replicate=replicate)
    return job


# -- the runner ---------------------------------------------------------------


class ExperimentRunner:
    """Executes stage graphs against one artifact store."""

    def __init__(
        self,
        store: ArtifactStore | None = None,
        *,
        jobs: int | None = None,
        retries: int = 2,
        backoff: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.store = store or default_store()
        self.jobs = resolve_jobs(jobs)
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        # Seeds the retry-backoff jitter (site "runner.backoff") — not
        # any workload randomness, which lives in the graph's params.
        self.seed = int(seed)

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
    ) -> list[Any]:
        """Run :func:`map_tasks` with this runner's jobs/retries/backoff."""
        return map_tasks(
            fn,
            items,
            jobs=self.jobs,
            retries=self.retries,
            backoff=self.backoff,
            seed=self.seed,
            initializer=initializer,
            initargs=initargs,
        )

    def plan_graph(self, graph: Any, *, code: Any | None = None) -> list[Any]:
        """Resolve a :class:`~repro.runtime.provenance.StageGraph` to
        per-node keys, lineage records and hit/miss causes (no
        execution)."""
        from repro.runtime.provenance import plan_graph

        return plan_graph(graph, self.store, code=code)

    def run_graph(self, graph: Any, *, code: Any | None = None) -> GraphResult:
        """Execute a stage graph incrementally.

        Plans the graph (:func:`~repro.runtime.provenance.plan_graph`),
        then repeatedly fans every *ready* miss — all upstream nodes
        cached or already executed — out over :meth:`map_tasks`.
        Workers materialise into the shared store and return keys, so
        a parallel run is byte-identical to a serial one; nodes whose
        full provenance digest matches an existing entry are never
        re-executed, which is the entire point: after a one-line edit
        to one estimator, only the stages whose code closure contains
        that module run again.

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
            record_graph_run,
            worker_payload,
        )

        plans = self.plan_graph(graph, code=code)
        completed = {p.name for p in plans if p.cached}
        pending = [p for p in plans if not p.cached]
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
            keys = self.map_tasks(
                execute_payload, [worker_payload(p, self.store) for p in ready]
            )
            intact = None not in keys
            completed.update(p.name for p in ready)
            pending = [p for p in pending if p.name not in completed]
        record_graph_run(self.store, plans)
        return plans if intact else None
