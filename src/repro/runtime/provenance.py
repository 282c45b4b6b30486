"""Stage-level provenance: the cache as a dataflow graph.

PROBE-style lineage capture for the artifact store.  Every artifact
written through the provenance plane records, in its manifest, the full
identity of the computation that produced it:

* the **logical node** it belongs to (``graph/name``),
* the **parameter digest** of the stage's declared parameters,
* the **upstream artifact keys** it consumed (which recursively encode
  *their* provenance — a Merkle chain over the whole pipeline), and
* a **code fingerprint**: the digest of every project module reachable
  from the stage's declared code roots through the import graph (the
  analysis engine's :class:`~repro.analysis.index.ModuleIndex` supplies
  both the per-file digests and the import edges).

The artifact key is derived from exactly this material, so a stage is
recomputed *iff* its parameters, its reachable code, or anything
upstream of it actually changed — a one-line edit to one estimator
re-executes only the stages whose closure contains that module, and a
warm re-run of an unchanged pipeline touches nothing at all.

Orchestration modules (:data:`ORCHESTRATION_PREFIXES`) are excluded
from closures, the way a build system's own code is not an input to
the artifacts it builds: the runner, the store, the fault plane and the
experiment glue only *move* data between stages, and the movement is
captured structurally by the graph itself.  Stage functions therefore
call the specific subsystems they fingerprint (the profiler, the
featurizer, the samplers) rather than the all-importing facade.

Vocabulary
----------

``stage_fn``
    decorator declaring a stage function: its canonical stage name,
    the external inputs it is allowed to read (enforced by analysis
    rule SPA013) and extra code roots beyond its own module.
``StageGraph`` / ``StageNode``
    a named DAG of stage invocations; nodes carry parameters and named
    upstream edges.
``plan_graph``
    resolves every node to its content-addressed key in topological
    order and classifies each miss (``new`` / ``params`` / ``code`` /
    ``upstream``) against the latest prior manifest of the same
    logical node.
``ExperimentRunner.run_graph``
    (in :mod:`repro.runtime.runner`) executes a plan: ready misses fan
    out over ``map_tasks``, workers materialise into the shared store
    and return keys, so serial and parallel runs are byte-identical.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.runtime.store import (
    ArtifactManifest,
    ArtifactStore,
    _atomic_write_bytes,
    _jsonable,
    default_store,
    stable_hash,
)

__all__ = [
    "PROVENANCE_VERSION",
    "STAGE_KIND",
    "MODINDEX_KIND",
    "ORCHESTRATION_PREFIXES",
    "CANONICAL_STAGES",
    "CodeIndex",
    "StageNode",
    "StageGraph",
    "NodePlan",
    "stage_fn",
    "stage_spec",
    "fn_ref",
    "resolve_stage_fn",
    "plan_graph",
    "execute_payload",
    "explain_key",
    "lineage",
    "invalidated_entries",
    "provenance_stats",
    "record_graph_run",
]

#: Bump when the key-material schema or the closure semantics change,
#: so entries planned by older engines never alias new ones.
PROVENANCE_VERSION = 1

#: Store kind of graph-produced artifacts (one per stage node).
STAGE_KIND = "stage"

#: Store kind of cached per-module indexes (pass-1 of the analysis
#: engine, reused here for import edges + file digests).
MODINDEX_KIND = "modindex"

#: The pipeline's canonical stage order (documentation + display).
CANONICAL_STAGES = (
    "trace-gen",
    "profile",
    "featurize",
    "phase-fit",
    "estimate",
    "report",
)

#: Module prefixes excluded from code closures: orchestration moves
#: artifacts between stages but never changes their values, exactly as
#: a build tool's own version is not an input to the objects it builds.
#: (``repro.experiments.common`` is the drivers' glue layer; the
#: drivers themselves — ``repro.experiments.fig07_errors`` & co — stay
#: fingerprintable.)
ORCHESTRATION_PREFIXES = (
    "repro.runtime",
    "repro.analysis",
    "repro.faults",
    "repro.cli",
    "repro.experiments.common",
)

#: Attribute carrying a stage function's declaration.
STAGE_ATTR = "__simprof_stage__"

#: Sidecar (non-manifest) file accumulating run_graph counters for
#: ``simprof cache stats``; never part of any cache key.
_STATS_FILE = "provenance_stats.json"

_CAUSES = ("new", "params", "code", "upstream")


# -- stage functions ----------------------------------------------------------


def stage_fn(
    stage: str,
    *,
    reads: tuple[str, ...] = (),
    code: tuple[str, ...] = (),
) -> Callable[[Callable], Callable]:
    """Declare a stage function.

    ``stage`` is the canonical stage name; ``reads`` lists the external
    inputs the body may read beyond its ``(inputs, params)`` arguments,
    as ``"env:NAME"`` / ``"file:path"`` / ``"global:module.NAME"``
    entries (analysis rule SPA013 flags undeclared ones); ``code``
    names extra code-root modules fingerprinted into the stage's
    closure beyond the function's own module.

    A stage function must be a module-level callable with signature
    ``fn(inputs: Mapping[str, Any], params: Mapping[str, Any]) -> Any``
    so pool workers can re-resolve it from its dotted reference.
    """

    def decorate(fn: Callable) -> Callable:
        setattr(
            fn,
            STAGE_ATTR,
            {"stage": stage, "reads": tuple(reads), "code": tuple(code)},
        )
        return fn

    return decorate


def stage_spec(fn: Callable) -> dict[str, Any]:
    """The declaration attached by :func:`stage_fn` (raises if absent)."""
    spec = getattr(fn, STAGE_ATTR, None)
    if spec is None:
        raise TypeError(
            f"{getattr(fn, '__qualname__', fn)!r} is not a stage function "
            "(missing @stage_fn declaration)"
        )
    return spec


def fn_ref(fn: Callable) -> str:
    """Dotted ``module:qualname`` reference of a module-level callable."""
    return f"{fn.__module__}:{fn.__qualname__}"


def resolve_stage_fn(ref: str) -> Callable:
    """Inverse of :func:`fn_ref` (used by pool workers and planners)."""
    module_name, _, qualname = ref.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


# -- the code index -----------------------------------------------------------


class CodeIndex:
    """Per-stage code fingerprints from the project import graph.

    Walks the *forward* import closure from a stage's declared code
    roots — project modules only, orchestration prefixes excluded —
    and hashes the sorted ``(module, file digest)`` pairs.  Per-module
    parsing goes through the analysis engine's
    :func:`~repro.analysis.index.build_module_index` and is cached in
    the artifact store under the file's digest, so a warm planning
    pass costs one digest + one store read per reachable module.
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        *,
        src_root: str | Path | None = None,
    ) -> None:
        if src_root is None:
            import repro

            src_root = Path(repro.__file__).resolve().parent.parent
        self.src_root = Path(src_root)
        self.store = store
        self._info: dict[str, tuple[str, tuple[str, ...]] | None] = {}
        self._closures: dict[tuple[str, ...], dict[str, str]] = {}

    # -- module resolution ---------------------------------------------------

    def module_path(self, module: str) -> Path | None:
        """Source file of a project module, or None if not a module."""
        base = self.src_root.joinpath(*module.split("."))
        init = base / "__init__.py"
        if init.is_file():
            return init
        path = base.with_suffix(".py")
        return path if path.is_file() else None

    @staticmethod
    def included(module: str) -> bool:
        """Whether a module participates in closures (not orchestration)."""
        if not (module == "repro" or module.startswith("repro.")):
            return False
        return not any(
            module == p or module.startswith(p + ".")
            for p in ORCHESTRATION_PREFIXES
        )

    def _as_module(self, candidate: str) -> str | None:
        """Resolve an import candidate (may name a symbol) to a module."""
        if self.module_path(candidate) is not None:
            return candidate
        parent = candidate.rpartition(".")[0]
        if parent and self.module_path(parent) is not None:
            return parent
        return None

    def _load_info(self, module: str) -> tuple[str, tuple[str, ...]] | None:
        """``(digest, imported project modules)`` for one module."""
        if module in self._info:
            return self._info[module]
        path = self.module_path(module)
        if path is None:
            self._info[module] = None
            return None
        from repro.analysis.index import (
            INDEX_VERSION,
            build_module_index,
            file_digest,
        )

        digest = file_digest(path)

        def compute() -> dict:
            from repro.analysis.base import ModuleContext

            ctx = ModuleContext(
                path.read_text(encoding="utf-8"), path=str(path), module=module
            )
            return build_module_index(ctx, digest=digest).to_dict()

        if self.store is not None:
            data = self.store.get_or_compute(
                MODINDEX_KIND,
                {"module": module, "digest": digest, "index": INDEX_VERSION},
                compute,
            )
        else:
            data = compute()
        deps = []
        for candidate in data["import_modules"]:
            resolved = self._as_module(candidate)
            if resolved is not None and resolved != module:
                deps.append(resolved)
        info = (digest, tuple(sorted(set(deps))))
        self._info[module] = info
        return info

    # -- closures ------------------------------------------------------------

    def closure(self, roots: Iterable[str]) -> dict[str, str]:
        """``module -> digest`` over the reachable, fingerprinted set."""
        key = tuple(sorted(set(roots)))
        if key in self._closures:
            return dict(self._closures[key])
        out: dict[str, str] = {}
        frontier = [m for m in key if self.included(m)]
        while frontier:
            module = frontier.pop()
            if module in out:
                continue
            info = self._load_info(module)
            if info is None:
                continue
            digest, deps = info
            out[module] = digest
            for dep in deps:
                if dep not in out and self.included(dep):
                    frontier.append(dep)
        self._closures[key] = dict(out)
        return out

    def fingerprint(self, roots: Iterable[str]) -> tuple[str, dict[str, str]]:
        """``(digest, modules)`` of the closure from ``roots``."""
        modules = self.closure(roots)
        digest = stable_hash(sorted(modules.items()))[:20]
        return digest, modules


# -- the stage graph ----------------------------------------------------------


@dataclass
class StageNode:
    """One stage invocation in a :class:`StageGraph`."""

    name: str
    stage: str
    fn: str  # dotted "module:qualname" reference
    params: dict[str, Any] = field(default_factory=dict)
    deps: dict[str, str] = field(default_factory=dict)  # input -> node name
    code: tuple[str, ...] = ()  # extra code roots
    reads: tuple[str, ...] = ()


class StageGraph:
    """A named DAG of stage invocations."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.nodes: dict[str, StageNode] = {}

    def node(
        self,
        name: str,
        fn: Callable | str,
        *,
        params: Mapping[str, Any] | None = None,
        deps: Mapping[str, str] | None = None,
        code: tuple[str, ...] = (),
    ) -> str:
        """Add a node; returns its name (for wiring downstream deps).

        ``fn`` is a :func:`stage_fn`-decorated callable (or its dotted
        reference); ``deps`` maps the function's input names to
        upstream node names.
        """
        if name in self.nodes:
            raise ValueError(f"duplicate stage node {name!r}")
        func = resolve_stage_fn(fn) if isinstance(fn, str) else fn
        spec = stage_spec(func)
        for dep in (deps or {}).values():
            if dep not in self.nodes:
                raise ValueError(
                    f"node {name!r} depends on unknown node {dep!r}"
                )
        self.nodes[name] = StageNode(
            name=name,
            stage=spec["stage"],
            fn=fn_ref(func),
            params=dict(params or {}),
            deps=dict(deps or {}),
            code=tuple(spec["code"]) + tuple(code),
            reads=tuple(spec["reads"]),
        )
        return name

    def topo(self) -> list[StageNode]:
        """Topological order, name-sorted within ranks (deterministic)."""
        indeg = {n: 0 for n in self.nodes}
        dependants: dict[str, list[str]] = {n: [] for n in self.nodes}
        for node in self.nodes.values():
            for dep in set(node.deps.values()):
                indeg[node.name] += 1
                dependants[dep].append(node.name)
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[StageNode] = []
        while ready:
            name = ready.pop(0)
            order.append(self.nodes[name])
            grew = False
            for dependant in dependants[name]:
                indeg[dependant] -= 1
                if indeg[dependant] == 0:
                    ready.append(dependant)
                    grew = True
            if grew:
                ready.sort()
        if len(order) != len(self.nodes):
            stuck = sorted(set(self.nodes) - {n.name for n in order})
            raise ValueError(f"stage graph has a cycle through {stuck}")
        return order


# -- planning -----------------------------------------------------------------


@dataclass
class NodePlan:
    """One node's resolved identity: key, lineage record, hit/miss."""

    node: StageNode
    key: str
    material: dict[str, Any]
    record: dict[str, Any]
    depth: int
    cached: bool
    cause: str | None  # None when cached, else new/params/code/upstream

    @property
    def name(self) -> str:
        return self.node.name


def _node_id(graph_name: str, node_name: str) -> str:
    return f"{graph_name}/{node_name}"


def _latest_by_node(store: ArtifactStore) -> dict[str, ArtifactManifest]:
    """Latest stage manifest per logical node id (for miss diagnosis)."""
    latest: dict[str, ArtifactManifest] = {}
    for manifest in store.entries():
        if manifest.kind != STAGE_KIND:
            continue
        node_id = (manifest.provenance or {}).get("node")
        if not node_id:
            continue
        prior = latest.get(node_id)
        if prior is None or manifest.created > prior.created:
            latest[node_id] = manifest
    return latest


def _miss_cause(
    prior: ArtifactManifest | None, record: dict[str, Any]
) -> str:
    """Why a node misses, against the latest prior run of the same node."""
    if prior is None or not prior.provenance:
        return "new"
    old = prior.provenance
    if old.get("params_digest") != record["params_digest"]:
        return "params"
    if (old.get("code") or {}).get("fingerprint") != record["code"][
        "fingerprint"
    ]:
        return "code"
    old_up = {k: v.get("key") for k, v in (old.get("upstream") or {}).items()}
    new_up = {k: v["key"] for k, v in record["upstream"].items()}
    if old_up != new_up:
        return "upstream"
    return "new"  # schema/version drift


def plan_graph(
    graph: StageGraph,
    store: ArtifactStore | None = None,
    *,
    code: CodeIndex | None = None,
) -> list[NodePlan]:
    """Resolve every node's key and provenance record, in topo order."""
    store = store or default_store()
    code = code or CodeIndex(store)
    prior: dict[str, ArtifactManifest] | None = None
    plans: list[NodePlan] = []
    keys: dict[str, str] = {}
    depths: dict[str, int] = {}
    for node in graph.topo():
        fn = resolve_stage_fn(node.fn)
        roots = set(node.code)
        if CodeIndex.included(fn.__module__):
            roots.add(fn.__module__)
        fingerprint, modules = code.fingerprint(roots)
        upstream = {
            inp: {"node": dep, "key": keys[dep]}
            for inp, dep in sorted(node.deps.items())
        }
        material = {
            "v": PROVENANCE_VERSION,
            "stage": node.stage,
            "fn": node.fn,
            "params": dict(node.params),
            "code": fingerprint,
            "upstream": {inp: up["key"] for inp, up in upstream.items()},
        }
        key = store.key_for(STAGE_KIND, material)
        depth = (
            1 + max(depths[dep] for dep in node.deps.values())
            if node.deps
            else 0
        )
        record = {
            "v": PROVENANCE_VERSION,
            "node": _node_id(graph.name, node.name),
            "stage": node.stage,
            "fn": node.fn,
            "reads": list(node.reads),
            "params_digest": stable_hash(dict(node.params))[:20],
            "code": {
                "roots": sorted(roots),
                "fingerprint": fingerprint,
                "modules": dict(sorted(modules.items())),
            },
            "upstream": upstream,
            "depth": depth,
        }
        cached = store.contains(key)
        cause: str | None = None
        if not cached:
            if prior is None:
                prior = _latest_by_node(store)
            cause = _miss_cause(prior.get(record["node"]), record)
        keys[node.name] = key
        depths[node.name] = depth
        plans.append(
            NodePlan(
                node=node,
                key=key,
                material=material,
                record=record,
                depth=depth,
                cached=cached,
                cause=cause,
            )
        )
    return plans


# -- execution ----------------------------------------------------------------


def worker_payload(plan: NodePlan, store: ArtifactStore) -> dict[str, Any]:
    """Self-contained, picklable execution request for one miss."""
    return {
        "store_root": str(store.root),
        "key": plan.key,
        "fn": plan.node.fn,
        "stage": plan.node.stage,
        "params": dict(plan.node.params),
        "dep_keys": {
            inp: up["key"] for inp, up in plan.record["upstream"].items()
        },
        "material": plan.material,
        "record": plan.record,
    }


def execute_payload(payload: dict[str, Any]) -> str | None:
    """Materialise one stage node into the store; return its key.

    The pool entry point of ``run_graph`` (module-level, picklable).
    Values never travel back over the pipe: the parent re-reads the
    store, so serial and parallel executions are byte-identical.
    Returns None, computing nothing, when an input entry fails to load
    (the store has dropped it); ``run_graph`` then re-plans.
    """
    import time

    from repro.runtime.instrument import get_instrumentation

    store = ArtifactStore(payload["store_root"])
    key = payload["key"]
    if store.contains(key):
        return key
    try:
        inputs = {
            inp: store.get(dep_key)
            for inp, dep_key in sorted(payload["dep_keys"].items())
        }
    except KeyError:
        return None
    fn = resolve_stage_fn(payload["fn"])
    start = time.perf_counter()
    with get_instrumentation().capture() as stage_delta:
        value = fn(inputs, payload["params"])
    elapsed = time.perf_counter() - start
    store.put(
        key,
        value,
        kind=STAGE_KIND,
        params=payload["material"],
        compute_seconds=elapsed,
        stages={name: s.seconds for name, s in stage_delta.items()},
        counters={
            name: dict(s.counters)
            for name, s in stage_delta.items()
            if s.counters
        },
        provenance=payload["record"],
    )
    return key


# -- store-backed introspection (CLI, stats) ----------------------------------


def lineage(
    store: ArtifactStore, key: str, *, _seen: set[str] | None = None
) -> Iterator[tuple[int, ArtifactManifest]]:
    """Walk a key's recorded ancestry: ``(distance, manifest)`` pairs.

    Depth-first over the upstream keys recorded in each manifest;
    missing ancestors (swept by GC) are silently skipped — lineage is
    an explanation, not an integrity check (``cache verify`` is).
    """
    seen = _seen if _seen is not None else set()
    if key in seen:
        return
    seen.add(key)
    manifest = store.manifest(key)
    if manifest is None:
        return
    yield 0, manifest
    for inp in sorted((manifest.provenance or {}).get("upstream", {})):
        up = manifest.provenance["upstream"][inp]
        for dist, ancestor in lineage(store, up["key"], _seen=seen):
            yield dist + 1, ancestor


def explain_key(store: ArtifactStore, key: str) -> dict[str, Any]:
    """``cache graph --why KEY``: the record plus a diff vs its
    predecessor manifest of the same logical node (if any)."""
    manifest = store.manifest(key)
    if manifest is None or not manifest.provenance:
        raise KeyError(f"no provenance recorded for {key}")
    record = manifest.provenance
    predecessor: ArtifactManifest | None = None
    for other in store.entries():
        if (
            other.kind == STAGE_KIND
            and other.key != key
            and (other.provenance or {}).get("node") == record.get("node")
            and other.created <= manifest.created
        ):
            if predecessor is None or other.created > predecessor.created:
                predecessor = other
    out: dict[str, Any] = {
        "key": key,
        "record": record,
        "predecessor": predecessor.key if predecessor else None,
        "changed": [],
    }
    if predecessor is not None:
        old = predecessor.provenance or {}
        if old.get("params_digest") != record.get("params_digest"):
            out["changed"].append({"what": "params"})
        old_mods = (old.get("code") or {}).get("modules", {})
        new_mods = (record.get("code") or {}).get("modules", {})
        if old_mods != new_mods:
            touched = sorted(
                m
                for m in set(old_mods) | set(new_mods)
                if old_mods.get(m) != new_mods.get(m)
            )
            out["changed"].append({"what": "code", "modules": touched})
        old_up = {
            k: v.get("key") for k, v in (old.get("upstream") or {}).items()
        }
        new_up = {
            k: v.get("key")
            for k, v in (record.get("upstream") or {}).items()
        }
        if old_up != new_up:
            out["changed"].append(
                {
                    "what": "upstream",
                    "inputs": sorted(
                        k
                        for k in set(old_up) | set(new_up)
                        if old_up.get(k) != new_up.get(k)
                    ),
                }
            )
    return out


def invalidated_entries(
    store: ArtifactStore, *, code: CodeIndex | None = None
) -> list[dict[str, Any]]:
    """Stage entries whose recorded code fingerprint is stale *now*.

    Re-fingerprints each stored stage manifest's recorded code roots
    against the current tree: an entry listed here would miss on the
    next planning pass with cause ``code`` (``cache graph
    --invalidated``).
    """
    code = code or CodeIndex(store)
    out: list[dict[str, Any]] = []
    for manifest in sorted(store.entries(), key=lambda m: m.key):
        if manifest.kind != STAGE_KIND or not manifest.provenance:
            continue
        recorded = manifest.provenance.get("code") or {}
        roots = recorded.get("roots") or []
        fingerprint, modules = code.fingerprint(roots)
        if fingerprint == recorded.get("fingerprint"):
            continue
        old_mods = recorded.get("modules", {})
        out.append(
            {
                "key": manifest.key,
                "node": manifest.provenance.get("node", ""),
                "stage": manifest.provenance.get("stage", ""),
                "modules": sorted(
                    m
                    for m in set(old_mods) | set(modules)
                    if old_mods.get(m) != modules.get(m)
                ),
            }
        )
    return out


def provenance_stats(store: ArtifactStore) -> dict[str, Any]:
    """Provenance counters for ``simprof cache stats``.

    Store-derived: stage-entry counts per stage and the lineage depth
    range; plus the accumulated ``run_graph`` session counters (graph
    runs, hits, misses, miss causes) from the stats sidecar.
    """
    per_stage: dict[str, int] = {}
    max_depth = 0
    entries = 0
    for manifest in store.entries():
        if manifest.kind != STAGE_KIND or not manifest.provenance:
            continue
        entries += 1
        stage = manifest.provenance.get("stage", "?")
        per_stage[stage] = per_stage.get(stage, 0) + 1
        max_depth = max(max_depth, int(manifest.provenance.get("depth", 0)))
    counters = {"runs": 0, "hits": 0, "misses": 0, "causes": {}}
    path = store.root / _STATS_FILE
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            counters.update(
                {
                    "runs": int(data.get("runs", 0)),
                    "hits": int(data.get("hits", 0)),
                    "misses": int(data.get("misses", 0)),
                    "causes": {
                        str(k): int(v)
                        for k, v in (data.get("causes") or {}).items()
                    },
                }
            )
        except (OSError, ValueError):
            pass
    return {
        "entries": entries,
        "per_stage": dict(sorted(per_stage.items())),
        "max_depth": max_depth,
        **counters,
    }


def record_graph_run(store: ArtifactStore, plans: list[NodePlan]) -> None:
    """Fold one ``run_graph`` outcome into the stats sidecar.

    Best-effort and non-transactional — these are operator-facing
    counters, not cache-key material; a lost update under concurrent
    writers only undercounts.
    """
    path = store.root / _STATS_FILE
    data: dict[str, Any] = {"runs": 0, "hits": 0, "misses": 0, "causes": {}}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, dict):
                data.update(loaded)
                data["causes"] = dict(loaded.get("causes") or {})
        except (OSError, ValueError):
            pass
    data["runs"] = int(data.get("runs", 0)) + 1
    data["hits"] = int(data.get("hits", 0)) + sum(p.cached for p in plans)
    data["misses"] = int(data.get("misses", 0)) + sum(
        not p.cached for p in plans
    )
    for plan in plans:
        if plan.cause is not None:
            data["causes"][plan.cause] = data["causes"].get(plan.cause, 0) + 1
    try:
        _atomic_write_bytes(
            path,
            (json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n").encode(),
        )
    except OSError:
        pass
