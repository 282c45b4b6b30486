"""The pipeline's stage functions and per-spec graph wiring.

Each function here is one declared stage of the SimProf pipeline
(``trace-gen → profile → featurize → phase-fit → estimate``), shaped
for the provenance plane: ``fn(inputs, params) -> value``, module-level
and picklable, calling the *specific* subsystem it fingerprints rather
than the all-importing :class:`~repro.core.pipeline.SimProf` facade —
so a stage's declared code roots stay tight and a one-line edit to an
estimator never invalidates trace generation.

This module itself lives under ``repro.runtime`` and is therefore
orchestration (excluded from closures); the ``code=`` declarations on
each stage name what actually computes the value.

:func:`spec_nodes` wires the chain for one :class:`RunSpec` into a
:class:`~repro.runtime.provenance.StageGraph`; the figure graphs and
the per-spec ``get_profile``/``get_model`` helpers share its nodes, so
each hits what the other produced.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.runtime.instrument import stage_timer
from repro.runtime.provenance import StageGraph, stage_fn
from repro.runtime.runner import RunSpec
from repro.runtime.store import stable_hash

__all__ = [
    "stage_trace_gen",
    "stage_profile",
    "stage_featurize",
    "stage_phase_fit",
    "stage_estimate",
    "spec_label",
    "spec_nodes",
    "trace_params",
]


@stage_fn(
    "trace-gen",
    reads=("global:repro.datagen.seeds.GRAPH_INPUTS",),
    code=("repro.workloads", "repro.datagen"),
)
def stage_trace_gen(
    inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> Any:
    """Run the workload; the raw job trace is the artifact."""
    from repro.datagen.seeds import GRAPH_INPUTS
    from repro.workloads import run_workload

    graph = GRAPH_INPUTS[params["graph"]] if params["graph"] else None
    with stage_timer("trace-gen"):
        return run_workload(
            params["workload"],
            params["framework"],
            scale=params["scale"],
            seed=params["seed"],
            graph=graph,
            input_name=params["input_name"],
            params=dict(params["params"]) or None,
        )


@stage_fn("profile", code=("repro.core.profiler",))
def stage_profile(inputs: Mapping[str, Any], params: Mapping[str, Any]) -> Any:
    """Profile the trace's busiest thread into per-unit vectors."""
    from repro.core.profiler import profile_trace

    return profile_trace(inputs["trace"], params["profiler"])


@stage_fn("featurize", code=("repro.core.features",))
def stage_featurize(
    inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> Any:
    """Select the feature space and assemble the training matrix."""
    from repro.core.features import FeatureSpace

    with stage_timer("feature-selection") as rec:
        space, matrix = FeatureSpace.fit(inputs["job"], top_k=params["top_k"])
        rec.add(features=space.n_features)
    return (space, matrix)


@stage_fn("phase-fit", code=("repro.core.phases",))
def stage_phase_fit(
    inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> Any:
    """Cluster the featurized units into phases (silhouette k-sweep)."""
    from repro.core.phases import PhaseModel

    return PhaseModel.fit(
        inputs["job"],
        top_k=params["top_k"],
        max_phases=params["max_phases"],
        score_threshold=params["score_threshold"],
        seed=params["seed"],
        features=inputs["features"],
    )


@stage_fn("estimate", code=("repro.core.sampling",))
def stage_estimate(
    inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> Any:
    """Stratified point selection with optimal allocation."""
    import numpy as np

    from repro.core.sampling import select_points

    # The seed IS a parameter — it arrives via the stage's params
    # mapping (spec.simprof.seed), which the provenance key hashes.
    rng = np.random.default_rng(params["seed"])  # simprof: ignore[SPA003] -- seeded from stage params, part of the cache key
    return select_points(
        inputs["job"], inputs["model"], params["n_points"], rng=rng
    )


# -- per-spec wiring ----------------------------------------------------------


def spec_label(spec: RunSpec) -> str:
    """Graph-unique display label for one spec's node chain.

    Workload params (e.g. a text input's ``zipf_s``) add a short digest,
    so reference inputs of one workload get chains of their own.
    """
    suffix = spec.input_name or spec.graph_name
    label = f"{spec.label}@{suffix}" if suffix else spec.label
    if spec.params:
        label += f"+{stable_hash(dict(spec.params))[:8]}"
    return label


def trace_params(spec: RunSpec) -> dict[str, Any]:
    """The trace-gen stage's parameters for one spec.

    Deliberately *excludes* the SimProf knobs: the raw trace depends
    only on the workload request, so retuning clustering or sampling
    never regenerates traces.
    """
    return {
        "workload": spec.workload,
        "framework": spec.framework,
        "scale": spec.scale,
        "seed": spec.seed,
        "graph": spec.graph_name or "",
        "input_name": spec.input_name or spec.graph_name or "default",
        "params": dict(spec.params or {}),
    }


def _ensure(
    graph: StageGraph, name: str, fn, **kwargs: Any
) -> str:
    """Add a node, or reuse an identical existing one.

    Several figures share the same twelve specs; building them into one
    suite graph must collapse the shared chains to single nodes.  A
    same-named node with *different* wiring is a real conflict.
    """
    existing = graph.nodes.get(name)
    if existing is None:
        return graph.node(name, fn, **kwargs)
    probe = StageGraph(graph.name)
    probe.nodes = dict(graph.nodes)
    del probe.nodes[name]
    probe.node(name, fn, **kwargs)
    if probe.nodes[name] != existing:
        raise ValueError(f"conflicting definitions for stage node {name!r}")
    return name


def _ensure_chained(
    graph: StageGraph,
    base: str,
    fn,
    *,
    params: Mapping[str, Any],
    deps: Mapping[str, str],
) -> str:
    """:func:`_ensure` a node named ``base#<digest>`` of its params and deps.

    Below trace-gen a chain depends on the SimProf knobs too, so two
    specs of one workload that differ only in, say, ``top_k_methods``
    share the trace-gen and profile nodes and fork at featurize.  The
    deps are upstream node *names*, which carry their own digests, so
    the suffix is unique per upstream chain.  Names never enter cache
    keys, and the lineage record drops the suffix, so a retuned knob
    still reads as a ``params`` change of the same logical node.
    """
    digest = stable_hash({"params": dict(params), "deps": dict(deps)})[:8]
    return _ensure(graph, f"{base}#{digest}", fn, params=params, deps=deps)


def spec_nodes(
    graph: StageGraph,
    spec: RunSpec,
    *,
    want: str = "model",
    n_points: int | None = None,
) -> dict[str, str]:
    """Wire one spec's stage chain into ``graph``; return node names.

    Returns ``{"trace": …, "profile": …}`` plus ``"features"`` and
    ``"model"`` when ``want="model"``, plus ``"estimate"`` when
    ``n_points`` is given.  Chains already present (another figure
    shares the spec) are reused; specs that differ only in SimProf
    knobs share the nodes those knobs do not reach.
    """
    if want not in ("profile", "model"):
        raise ValueError(f"want must be 'profile' or 'model', got {want!r}")
    label = spec_label(spec)
    cfg = spec.simprof
    trace = _ensure(
        graph,
        f"trace-gen:{label}",
        stage_trace_gen,
        params=trace_params(spec),
    )
    profile = _ensure_chained(
        graph,
        f"profile:{label}",
        stage_profile,
        params={"profiler": cfg.profiler_config()},
        deps={"trace": trace},
    )
    nodes = {"trace": trace, "profile": profile}
    if want == "model":
        from repro.core.features import FEATURIZER_VERSION

        features = _ensure_chained(
            graph,
            f"featurize:{label}",
            stage_featurize,
            params={
                "top_k": cfg.top_k_methods,
                "featurizer": FEATURIZER_VERSION,
            },
            deps={"job": profile},
        )
        model = _ensure_chained(
            graph,
            f"phase-fit:{label}",
            stage_phase_fit,
            params={
                "top_k": cfg.top_k_methods,
                "max_phases": cfg.max_phases,
                "score_threshold": cfg.silhouette_threshold,
                "seed": cfg.seed,
            },
            deps={"job": profile, "features": features},
        )
        nodes.update(features=features, model=model)
        if n_points is not None:
            estimate = _ensure_chained(
                graph,
                f"estimate:{label}",
                stage_estimate,
                params={"n_points": int(n_points), "seed": cfg.seed},
                deps={"job": profile, "model": model},
            )
            nodes["estimate"] = estimate
    return nodes
