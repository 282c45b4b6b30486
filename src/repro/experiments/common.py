"""Shared infrastructure for the experiment drivers.

Workload runs cost seconds each, and several figures need the same
profiles, so everything flows through the **provenance graph**
(:mod:`repro.runtime.provenance`): a content-addressed artifact store
(keys derived from the stage's params, code and upstream keys — no
hand-listed knobs to go stale) plus a runner that fans cache misses out
over a process pool when ``SIMPROF_JOBS`` asks for it.

The figure drivers declare a ``report`` stage over the per-spec chains
wired by :func:`model_inputs`, and :func:`run_report` executes the
graph incrementally — a warm re-run after a code edit recomputes only
the stages whose code closure changed.  ``get_profile``/``get_model``
wire one spec's chain into a graph of its own and run it;
``prefetch_models``/``prefetch_profiles`` wire many specs into one
graph, so their misses fan out in a single pass and the per-spec calls
that follow hit the store.  This module is orchestration (excluded from
stage closures): nothing here is an input to any figure's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.phases import PhaseModel
from repro.core.pipeline import SimProf, SimProfConfig
from repro.core.units import JobProfile
from repro.runtime.provenance import StageGraph
from repro.runtime.runner import ExperimentRunner, GraphResult, RunSpec
from repro.runtime.stages import spec_nodes
from repro.runtime.store import STORE_VERSION

__all__ = [
    "CACHE_VERSION",
    "ExperimentConfig",
    "all_label_pairs",
    "format_table",
    "get_model",
    "get_profile",
    "make_spec",
    "model_inputs",
    "prefetch_models",
    "prefetch_profiles",
    "report_params",
    "run_report",
]

# Kept as an alias for the store version: bump STORE_VERSION (in
# repro.runtime.store) when simulator calibration changes.
CACHE_VERSION = STORE_VERSION


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs every experiment shares.

    ``scale`` shrinks workload inputs for quick runs (tests use 0.25);
    ``n_sampling_draws`` averages the stochastic samplers (SRS, SimProf)
    over several draws for stable error numbers.
    """

    scale: float = 1.0
    seed: int = 0
    n_sampling_draws: int = 20
    simprof: SimProfConfig = SimProfConfig()

    def simprof_tool(self) -> SimProf:
        """A SimProf instance configured for this experiment."""
        return SimProf(self.simprof)


def all_label_pairs() -> list[tuple[str, str]]:
    """(workload, framework) pairs in the paper's Figure 7 order."""
    from repro.workloads import WORKLOADS

    return [
        (abbrev, fw) for fw in ("hadoop", "spark") for abbrev in WORKLOADS
    ]


def make_spec(
    workload: str,
    framework: str,
    cfg: ExperimentConfig,
    *,
    graph_name: str | None = None,
    input_name: str | None = None,
    params: dict[str, Any] | None = None,
) -> RunSpec:
    """The :class:`RunSpec` for one experiment request."""
    return RunSpec(
        workload=workload,
        framework=framework,
        scale=cfg.scale,
        seed=cfg.seed,
        graph_name=graph_name,
        input_name=input_name,
        params=params,
        simprof=cfg.simprof,
    )


def _run_chains(
    specs: Iterable[RunSpec], want: str
) -> tuple[GraphResult, list[dict[str, str]]]:
    """Run every spec's chain as one graph; return it and each spec's nodes."""
    graph = StageGraph("specs")
    nodes = [spec_nodes(graph, spec, want=want) for spec in specs]
    return ExperimentRunner().run_graph(graph), nodes


def prefetch_models(
    pairs: Iterable[tuple[str, str]],
    cfg: ExperimentConfig,
    *,
    graph_name: str | None = None,
) -> None:
    """Materialise profile + model artifacts for many pairs in one pass.

    With ``SIMPROF_JOBS`` > 1 the cache misses run in parallel; the
    subsequent ``get_model`` calls then hit the store.
    """
    _run_chains(
        (make_spec(w, f, cfg, graph_name=graph_name) for w, f in pairs),
        "model",
    )


def prefetch_profiles(specs: Iterable[RunSpec]) -> None:
    """Materialise profile artifacts for pre-built specs in one pass."""
    _run_chains(specs, "profile")


def model_inputs(
    graph: StageGraph,
    pairs: Iterable[tuple[str, str]],
    cfg: ExperimentConfig,
    *,
    graph_name: str | None = None,
    want: str = "model",
    n_points: int | None = None,
) -> tuple[dict[str, str], list[str]]:
    """Wire per-spec stage chains for many pairs; return report inputs.

    Returns ``(deps, labels)``: ``deps`` maps ``job:<label>`` (and,
    with ``want="model"``, ``model:<label>``; with ``n_points``,
    ``estimate:<label>``) to the wired node names — exactly the shape
    a figure's report stage consumes — and ``labels`` lists the pair
    labels in input order.  Chains already present in ``graph``
    (another figure shares the spec) are reused, so a whole-suite
    graph holds each workload's pipeline once.
    """
    from repro.workloads import label_of

    deps: dict[str, str] = {}
    labels: list[str] = []
    for workload, framework in pairs:
        spec = make_spec(workload, framework, cfg, graph_name=graph_name)
        nodes = spec_nodes(graph, spec, want=want, n_points=n_points)
        label = label_of(workload, framework)
        labels.append(label)
        deps[f"job:{label}"] = nodes["profile"]
        if want == "model":
            deps[f"model:{label}"] = nodes["model"]
        if n_points is not None:
            deps[f"estimate:{label}"] = nodes["estimate"]
    return deps, labels


def run_report(
    graph: StageGraph,
    node: str,
    *,
    runner: ExperimentRunner | None = None,
) -> Any:
    """Execute a figure graph incrementally and return one node's value."""
    return (runner or ExperimentRunner()).run_graph(graph)[node]


def report_params(
    cfg: ExperimentConfig, labels: Sequence[str], **extra: Any
) -> dict[str, Any]:
    """Standard report-stage parameters: labels + experiment knobs.

    ``seed`` and ``n_sampling_draws`` ride along because most report
    stages draw their stochastic samplers from them; figure-specific
    knobs arrive as ``extra``.  Everything lands in the node's key
    material, so retuning any knob re-runs exactly the report stage.
    """
    return {
        "labels": list(labels),
        "seed": cfg.seed,
        "n_sampling_draws": cfg.n_sampling_draws,
        **extra,
    }


def get_profile(
    workload: str,
    framework: str,
    cfg: ExperimentConfig,
    *,
    graph_name: str | None = None,
    input_name: str | None = None,
    params: dict[str, Any] | None = None,
) -> JobProfile:
    """Run (or load) a workload and profile its busiest thread."""
    spec = make_spec(
        workload,
        framework,
        cfg,
        graph_name=graph_name,
        input_name=input_name,
        params=params,
    )
    result, [nodes] = _run_chains([spec], "profile")
    return result[nodes["profile"]]


def get_model(
    workload: str,
    framework: str,
    cfg: ExperimentConfig,
    *,
    graph_name: str | None = None,
    params: dict[str, Any] | None = None,
) -> tuple[JobProfile, PhaseModel]:
    """Profile + fitted phase model (both cached)."""
    spec = make_spec(
        workload, framework, cfg, graph_name=graph_name, params=params
    )
    result, [nodes] = _run_chains([spec], "model")
    return result[nodes["profile"]], result[nodes["model"]]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = ""
) -> str:
    """Plain-text table rendering shared by every driver."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
