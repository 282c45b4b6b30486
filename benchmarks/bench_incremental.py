"""Incremental-recompute benchmark: cold graph run vs warm-after-edit.

The provenance plane claims that after a one-line edit to one
estimator module, ``run_graph`` re-executes only the stages whose code
closure contains that module.  This bench measures the claim on a real
two-workload Figure-7-style graph (trace-gen → profile → featurize →
phase-fit → report):

* **cold** — empty store: simulate both workloads, profile, fit, and
  build the error report;
* **warm (no edit)** — the same graph again: every node must hit;
* **warm (one-line edit)** — append one line to
  ``src/repro/core/baselines.py`` (the samplers the report stage uses)
  and re-run: only the report node may re-execute, with recorded miss
  cause ``code``.  The edit is reverted afterwards (``try/finally``),
  and a final planning pass confirms the original entries still hit.

The acceptance gate is a >= 10x cold / warm-after-edit speedup;
anything less means an edit to one leaf module is re-running upstream
simulation work.  Writes ``BENCH_incremental.json`` for the CI
artifact; ``--check-baseline`` makes a gate miss exit non-zero (the CI
``incremental-smoke`` job).  Run as a script, not under pytest::

    PYTHONPATH=src python benchmarks/bench_incremental.py --check-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
EDIT_TARGET = REPO_ROOT / "src" / "repro" / "core" / "baselines.py"
EDIT_LINE = "\n# bench_incremental: one-line edit (reverted)\n"

MIN_SPEEDUP = 10.0
PAIRS = (("grep", "spark"), ("wc", "spark"))
REPORT_NODE = "report:bench"


def _build_graph(cfg):
    """A small Figure-7-shaped graph over two fast workloads."""
    from repro.experiments.common import model_inputs, report_params
    from repro.experiments.fig07_errors import _fig7_report
    from repro.runtime.provenance import StageGraph

    graph = StageGraph("bench-incremental")
    deps, labels = model_inputs(graph, list(PAIRS), cfg)
    graph.node(
        REPORT_NODE,
        _fig7_report,
        params=report_params(cfg, labels, n_points=10, second_seconds=10.0),
        deps=deps,
    )
    return graph


def _timed_run(runner, cfg):
    from repro.runtime.provenance import CodeIndex

    graph = _build_graph(cfg)
    start = time.perf_counter()
    # A fresh CodeIndex per run, as every run_graph makes.  Its
    # import edges come from the process-wide memo (the store's
    # modindex entries on the first pass), while every file is
    # re-digested, so the edit below is seen.
    result = runner.run_graph(graph, code=CodeIndex(runner.store))
    return time.perf_counter() - start, result


def run_bench() -> dict:
    from repro.core.pipeline import SimProfConfig
    from repro.experiments.common import ExperimentConfig
    from repro.runtime.runner import ExperimentRunner
    from repro.runtime.store import ArtifactStore

    cfg = ExperimentConfig(
        scale=0.05,
        n_sampling_draws=3,
        simprof=SimProfConfig(unit_size=10_000_000, snapshot_period=500_000),
    )
    tmp = tempfile.mkdtemp(prefix="simprof-bench-incremental-")
    runner = ExperimentRunner(store=ArtifactStore(tmp))

    cold_s, cold = _timed_run(runner, cfg)
    assert cold.misses == len(cold.plans), "cold run hit a fresh store"
    report_key = cold.key(REPORT_NODE)

    noop_s, noop = _timed_run(runner, cfg)
    assert noop.executed == [], f"no-op run recomputed {noop.executed}"

    original = EDIT_TARGET.read_bytes()
    try:
        EDIT_TARGET.write_bytes(original + EDIT_LINE.encode())
        edit_s, edited = _timed_run(runner, cfg)
    finally:
        EDIT_TARGET.write_bytes(original)

    assert edited.executed == [REPORT_NODE], (
        f"one-line edit to {EDIT_TARGET.name} re-executed "
        f"{edited.executed}, expected only the report stage"
    )
    assert edited.plan(REPORT_NODE).cause == "code"

    # With the edit reverted, the original entries answer again — the
    # edit fragmented nothing upstream.
    revert_s, reverted = _timed_run(runner, cfg)
    assert reverted.executed == []
    assert reverted.key(REPORT_NODE) == report_key

    # The two report artifacts agree: the appended line changed the
    # fingerprint, not the numbers.
    assert (
        runner.store.get(report_key).to_text()
        == runner.store.get(edited.key(REPORT_NODE)).to_text()
    ), "edited-run report diverged from the cold run"

    speedup = cold_s / edit_s
    return {
        "benchmark": "incremental-recompute",
        "pairs": ["_".join(p) for p in PAIRS],
        "nodes": len(cold.plans),
        "edit_target": str(EDIT_TARGET.relative_to(REPO_ROOT)),
        "cold_seconds": round(cold_s, 4),
        "warm_noop_seconds": round(noop_s, 4),
        "warm_after_edit_seconds": round(edit_s, 4),
        "warm_after_revert_seconds": round(revert_s, 4),
        "recomputed_after_edit": edited.executed,
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help=f"fail if cold/warm-after-edit speedup drops below {MIN_SPEEDUP:.0f}x",
    )
    parser.add_argument("--out", default="BENCH_incremental.json")
    args = parser.parse_args(argv)

    results = run_bench()
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)

    print(
        f"incremental recompute over {results['nodes']} stage nodes "
        f"({', '.join(results['pairs'])}):"
    )
    print(
        f"  cold {results['cold_seconds']:.3f}s | "
        f"warm no-op {results['warm_noop_seconds']:.3f}s | "
        f"warm after one-line edit {results['warm_after_edit_seconds']:.3f}s "
        f"-> {results['speedup']:.1f}x"
    )
    print(f"wrote {args.out}")

    if args.check_baseline and results["speedup"] < MIN_SPEEDUP:
        print(
            f"REGRESSION: warm-after-edit only {results['speedup']:.1f}x "
            f"faster than cold (< {MIN_SPEEDUP:.0f}x): the provenance "
            "cache is re-running upstream stages"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
