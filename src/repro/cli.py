"""Command-line interface.

The everyday entry points::

    simprof list                         # workloads and graph inputs
    simprof run wc_sp --points 20        # run + analyze one benchmark
    simprof profile wc_sp --stream       # streaming profiling pipeline
    simprof figure fig7 --jobs 4         # regenerate a paper figure
    simprof sensitivity cc_sp            # input-sensitivity analysis
    simprof cache ls                     # inspect the artifact store
    simprof cache graph --why KEY        # explain a stage recompute
    simprof cache stats                  # provenance hit/miss counters
    simprof cache gc --stale             # evict outdated artifacts
    simprof stats                        # per-stage timing breakdown
    simprof check --strict src           # static determinism lints

``simprof`` is installed as a console script; ``python -m repro.cli``
works identically.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Sequence

__all__ = ["main", "build_parser"]

FIGURES = {
    "table1": "repro.experiments.table1:run_table1",
    "table2": "repro.experiments.table2:run_table2",
    "fig6": "repro.experiments.fig06_cov:run_fig6",
    "fig7": "repro.experiments.fig07_errors:run_fig7",
    "fig8": "repro.experiments.fig08_samplesize:run_fig8",
    "fig9": "repro.experiments.fig09_phasecount:run_fig9",
    "fig10": "repro.experiments.fig10_phasetypes:run_fig10",
    "fig11": "repro.experiments.fig11_allocation:run_fig11",
    "fig12": "repro.experiments.fig12_13_sensitivity:run_fig12_13",
    "fig13": "repro.experiments.fig12_13_sensitivity:run_fig12_13",
}


def _parse_label(label: str) -> tuple[str, str]:
    """``wc_sp`` -> ("wc", "spark"); also accepts ``wc spark`` forms."""
    suffixes = {"sp": "spark", "hp": "hadoop", "spark": "spark", "hadoop": "hadoop"}
    if "_" in label:
        workload, _, suffix = label.rpartition("_")
        if suffix in suffixes:
            return workload, suffixes[suffix]
    raise SystemExit(
        f"error: cannot parse benchmark label {label!r} "
        "(expected e.g. wc_sp, cc_hp)"
    )


def _positive(cast: type) -> Callable[[str], int | float]:
    """An argparse ``type``: ``cast(text)``, finite and above zero.

    Every count and size the runs take (``--scale``, ``--points``,
    ``--draws``, ``--unit-size``, ...) must be positive; checking it
    here turns a bad value into a usage error instead of a traceback
    deep in a run, a failed stage, a table of ``nan`` or a silent
    clamp.
    """
    bound = ">= 1" if cast is int else "> 0"

    def parse(text: str) -> int | float:
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}"
            ) from None
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
        return value

    return parse


_COUNT = _positive(int)
_AMOUNT = _positive(float)


def _jobs(text: str) -> int:
    """An argparse ``type`` for ``check --jobs``: ``auto`` (the CPU
    count) or a positive int."""
    if text.lower() == "auto":
        return os.cpu_count() or 1
    return _COUNT(text)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="simprof",
        description="SimProf (IPDPS'17) reproduction: sampling framework "
        "for data analytic workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and graph inputs")

    run = sub.add_parser("run", help="run a benchmark and select points")
    run.add_argument("label", help="benchmark label, e.g. wc_sp or cc_hp")
    run.add_argument("--points", type=_COUNT, default=20,
                     help="simulation points to select (default 20)")
    run.add_argument("--scale", type=_AMOUNT, default=1.0,
                     help="input-volume multiplier (default 1.0)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--graph", default=None,
                     help="Table II input name for graph workloads")
    run.add_argument("--unit-size", type=_COUNT, default=100_000_000)
    run.add_argument("--snapshot-period", type=_COUNT, default=2_000_000)
    run.add_argument("--error", type=_AMOUNT, default=None,
                     help="also solve the sample size for this relative "
                     "CPI error bound (e.g. 0.05)")
    run.add_argument("--export-dir", default=None,
                     help="write <label>.simpoints/.weights (SimPoint "
                     "format) into this directory")

    prof = sub.add_parser(
        "profile",
        help="profile a benchmark (batch, or --stream for the live pipeline)",
    )
    prof.add_argument("label", help="benchmark label, e.g. wc_sp or cc_hp")
    prof.add_argument("--stream", action="store_true",
                      help="consume the trace as a live stream: the trace "
                      "is never materialised and units are cut while the "
                      "workload runs (bit-identical result)")
    prof.add_argument("--points", type=_COUNT, default=20,
                      help="simulation points to select (default 20)")
    prof.add_argument("--scale", type=_AMOUNT, default=1.0,
                      help="input-volume multiplier (default 1.0)")
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--graph", default=None,
                      help="Table II input name for graph workloads")
    prof.add_argument("--unit-size", type=_COUNT, default=100_000_000)
    prof.add_argument("--snapshot-period", type=_COUNT, default=2_000_000)
    prof.add_argument("--faults", default=None, metavar="PLAN",
                      help="JSON fault plan (repro.faults.FaultPlan): "
                      "inject deterministic cluster faults (the same ones "
                      "with or without --stream), then report the "
                      "recoveries")
    prof.add_argument("--checkpoint-every", type=_COUNT, default=None,
                      metavar="N",
                      help="with --stream: persist a resumable snapshot "
                      "of the profiling session to the artifact store "
                      "every N segment batches (off by default: zero "
                      "overhead)")
    prof.add_argument("--resume", action="store_true",
                      help="with --checkpoint-every: resume from the "
                      "latest checkpoint of an identical interrupted "
                      "run instead of starting fresh")

    fig = sub.add_parser("figure", help="regenerate a paper table/figure")
    fig.add_argument("name", choices=sorted(FIGURES),
                     help="which experiment to run")
    fig.add_argument("--scale", type=_AMOUNT, default=1.0)
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--unit-size", type=_COUNT, default=100_000_000)
    fig.add_argument("--snapshot-period", type=_COUNT, default=2_000_000)
    fig.add_argument("--draws", type=_COUNT, default=20,
                     help="sampling draws averaged for SRS/SimProf")
    fig.add_argument("--jobs", type=_COUNT, default=None,
                     help="worker processes for the stage graph (default: "
                     "$SIMPROF_JOBS or serial)")

    report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument("--output", "-o", default="simprof_report.md")
    report.add_argument("--scale", type=_AMOUNT, default=1.0)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--unit-size", type=_COUNT, default=100_000_000)
    report.add_argument("--snapshot-period", type=_COUNT, default=2_000_000)
    report.add_argument("--draws", type=_COUNT, default=20)
    report.add_argument("--no-extensions", action="store_true")
    report.add_argument("--jobs", type=_COUNT, default=None,
                        help="worker processes for the stage graph (default: "
                        "$SIMPROF_JOBS or serial)")

    sens = sub.add_parser(
        "sensitivity", help="input-sensitivity analysis for a graph workload"
    )
    sens.add_argument("label", help="cc_sp, cc_hp, rank_sp or rank_hp")
    sens.add_argument("--references", nargs="*", default=None,
                      help="reference input names (default: all seven)")
    sens.add_argument("--scale", type=_AMOUNT, default=1.0)
    sens.add_argument("--points", type=_COUNT, default=20)

    cache = sub.add_parser("cache", help="inspect or clean the artifact store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser("ls", help="list cached artifacts")
    cache_ls.add_argument("--kind", default=None,
                          help="filter by artifact kind (profile, model)")
    cache_info = cache_sub.add_parser("info", help="show one entry's manifest")
    cache_info.add_argument("key", help="artifact key (see `simprof cache ls`)")
    cache_graph = cache_sub.add_parser(
        "graph",
        help="inspect the stage-level provenance graph recorded in "
             "manifests",
    )
    cache_graph.add_argument("--why", default=None, metavar="KEY",
                             help="explain one stage artifact: its lineage "
                                  "record and what changed vs the previous "
                                  "run of the same node")
    cache_graph.add_argument("--invalidated", action="store_true",
                             help="list stage artifacts whose recorded code "
                                  "fingerprint no longer matches the working "
                                  "tree (they will recompute next run)")
    cache_sub.add_parser(
        "stats",
        help="provenance counters: graph nodes, reuse hits/misses, "
             "invalidation causes",
    )
    cache_verify = cache_sub.add_parser(
        "verify", help="integrity-check payloads against manifest digests"
    )
    cache_verify.add_argument("--repair", action="store_true",
                              help="move corrupt entries to "
                              "<store>/quarantine/ instead of just "
                              "reporting them")
    cache_ckpt = cache_sub.add_parser(
        "checkpoints",
        help="list, inspect or gc in-flight stream checkpoints",
    )
    cache_ckpt.add_argument("--inspect", default=None, metavar="KEY",
                            help="decode one checkpoint's snapshot and "
                            "summarise its components")
    cache_ckpt.add_argument("--gc", action="store_true",
                            help="delete checkpoint manifests instead of "
                            "listing them")
    cache_ckpt.add_argument("--job", default=None, metavar="JOBKEY",
                            help="restrict listing/gc to one job key")
    cache_gc = cache_sub.add_parser("gc", help="evict artifacts")
    cache_gc.add_argument("--stale", action="store_true",
                          help="remove entries from other store versions")
    cache_gc.add_argument("--older-than", type=float, default=None,
                          metavar="DAYS", help="remove entries older than DAYS")
    cache_gc.add_argument("--kind", default=None,
                          help="restrict to one artifact kind")
    cache_gc.add_argument("--all", action="store_true", dest="everything",
                          help="remove every entry")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed, delete nothing")

    sub.add_parser(
        "stats", help="per-stage timing breakdown aggregated from manifests"
    )

    check = sub.add_parser(
        "check",
        help="static invariant checks (determinism, seed discipline, "
        "stream contracts)",
    )
    check.add_argument("paths", nargs="*", default=["src"],
                       help="files or directories to check (default: src)")
    check.add_argument("--strict", action="store_true",
                       help="fail on baselined findings too (CI mode)")
    check.add_argument("--format", choices=["text", "json", "sarif"],
                       default="text", dest="output_format")
    check.add_argument("--baseline", default=None, metavar="FILE",
                       help="baseline file (default: .simprof-baseline.json "
                       "next to the first path, if present)")
    check.add_argument("--write-baseline", action="store_true",
                       help="rewrite the baseline from the current findings "
                       "and exit 0")
    check.add_argument("--rules", default=None, metavar="IDS",
                       help="comma-separated rule ids (default: all)")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule catalogue and exit")
    check.add_argument("--jobs", type=_jobs, default=None, metavar="N",
                       help="fan analysis out over N processes "
                       "('auto' = CPU count)")
    check.add_argument("--changed", action="store_true",
                       help="report only files whose digest changed since "
                       "the cached analysis, plus their reverse-dependency "
                       "closure; print what was skipped")
    check.add_argument("--no-cache", action="store_true",
                       help="bypass the ArtifactStore analysis cache")
    return parser


def _cmd_list() -> int:
    from repro.datagen.seeds import GRAPH_INPUTS
    from repro.experiments.common import format_table
    from repro.workloads import WORKLOADS

    print(
        format_table(
            ["abbrev", "workload", "type", "labels"],
            [
                (cls.abbrev, cls.name, cls.workload_type,
                 f"{cls.abbrev}_hp, {cls.abbrev}_sp")
                for cls in WORKLOADS.values()
            ],
            title="Workloads (Table I)",
        )
    )
    print()
    print(
        format_table(
            ["input", "type", "role", "nodes"],
            [
                (g.name, g.category, g.role, g.n_nodes)
                for g in GRAPH_INPUTS.values()
            ],
            title="Graph inputs (Table II)",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import SimProf, SimProfConfig
    from repro.datagen.seeds import get_graph_input
    from repro.experiments.common import format_table
    from repro.workloads import run_workload

    workload, framework = _parse_label(args.label)
    graph = get_graph_input(args.graph) if args.graph else None
    print(f"Running {args.label} (scale {args.scale}, seed {args.seed}) ...")
    trace = run_workload(
        workload,
        framework,
        scale=args.scale,
        seed=args.seed,
        graph=graph,
        input_name=args.graph or "default",
    )
    simprof = SimProf(
        SimProfConfig(
            unit_size=args.unit_size,
            snapshot_period=args.snapshot_period,
            seed=args.seed,
        )
    )
    result = simprof.analyze(trace, n_points=args.points)

    print(
        format_table(
            ["phase", "weight", "CPI", "CoV", "points", "dominant method"],
            [
                (
                    s.phase_id,
                    f"{s.weight:.1%}",
                    f"{s.cpi_mean:.3f}",
                    f"{s.cpi_cov:.3f}",
                    int(result.points.allocation[s.phase_id]),
                    (result.model.top_methods(s.phase_id, 1) or [("-", 0)])[0][0],
                )
                for s in result.phase_stats
            ],
            title=(
                f"{args.label}: {result.job.n_units} units, "
                f"{result.n_phases} phases"
            ),
        )
    )
    lo, hi = result.points.confidence_interval(0.997)
    print(f"\nsimulation points: {[int(p) for p in result.simulation_points]}")
    print(
        f"estimate {result.points.estimate:.4f} vs oracle "
        f"{result.oracle_cpi():.4f} (error {result.sampling_error():.2%}); "
        f"99.7% CI [{lo:.4f}, {hi:.4f}]"
    )
    if args.error is not None:
        n = simprof.sample_size_for(
            result.job, result.model, relative_error=args.error
        )
        print(f"sample size for {args.error:.0%} error bound: {n} units")
    if args.export_dir is not None:
        from repro.core.export import export_simpoints

        files = export_simpoints(
            result.points, result.model, args.export_dir, basename=args.label
        )
        print(f"wrote {files.simpoints} and {files.weights}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import SimProf, SimProfConfig
    from repro.datagen.seeds import get_graph_input
    from repro.experiments.common import format_table
    from repro.runtime.instrument import get_instrumentation
    from repro.workloads import run_workload, run_workload_stream

    workload, framework = _parse_label(args.label)
    graph = get_graph_input(args.graph) if args.graph else None
    faults = None
    if args.faults:
        from repro.faults import FaultPlan

        try:
            faults = FaultPlan.load(args.faults)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot load fault plan: {exc}") from exc
    if not args.stream and (args.checkpoint_every is not None or args.resume):
        raise SystemExit("error: --checkpoint-every/--resume require --stream")
    if args.resume and args.checkpoint_every is None:
        raise SystemExit("error: --resume requires --checkpoint-every")
    mode = "streaming" if args.stream else "batch"
    print(f"Profiling {args.label} ({mode}, scale {args.scale}, "
          f"seed {args.seed}) ...")
    config = SimProfConfig(
        unit_size=args.unit_size,
        snapshot_period=args.snapshot_period,
        seed=args.seed,
    )
    simprof = SimProf(config)
    run_kwargs = dict(
        scale=args.scale,
        seed=args.seed,
        graph=graph,
        input_name=args.graph or "default",
        faults=faults,
    )
    if args.stream:
        stream = run_workload_stream(workload, framework, **run_kwargs)
        checkpoint = None
        if args.checkpoint_every is not None:
            from repro.runtime.checkpoint import (
                CheckpointManager,
                CheckpointPolicy,
                checkpoint_job_key,
            )
            from repro.runtime.store import default_store

            job_key = checkpoint_job_key(
                {
                    "workload": workload,
                    "framework": framework,
                    "scale": args.scale,
                    "seed": args.seed,
                    "graph": args.graph or "",
                    # A faulty stream profiles differently from a clean
                    # one: two runs that differ only in the fault plan
                    # must never share a checkpoint chain (SPA010).
                    "faults": args.faults or "",
                    "profiler": config.profiler_config(),
                }
            )
            manager = CheckpointManager(default_store(), job_key)
            if not args.resume:
                manager.clear()  # start fresh, drop stale chains
            checkpoint = CheckpointPolicy(
                manager, every=args.checkpoint_every, resume=args.resume
            )
        result = simprof.analyze_stream(
            stream, n_points=args.points, checkpoint=checkpoint
        )
        if checkpoint is not None:
            cleared = checkpoint.manager.clear()
            print(f"checkpointing: job {job_key}, every "
                  f"{args.checkpoint_every} batches "
                  f"({cleared} snapshot(s) retired on completion)")
    else:
        trace = run_workload(workload, framework, **run_kwargs)
        result = simprof.analyze(trace, n_points=args.points)

    print(
        format_table(
            ["phase", "weight", "CPI", "CoV", "units"],
            [
                (
                    s.phase_id,
                    f"{s.weight:.1%}",
                    f"{s.cpi_mean:.3f}",
                    f"{s.cpi_cov:.3f}",
                    s.n_units,
                )
                for s in result.phase_stats
            ],
            title=(
                f"{args.label}: {result.job.n_units} units, "
                f"{result.n_phases} phases ({mode})"
            ),
        )
    )
    print(f"\nsimulation points: {[int(p) for p in result.simulation_points]}")
    print(
        f"estimate {result.points.estimate:.4f} vs oracle "
        f"{result.oracle_cpi():.4f} (error {result.sampling_error():.2%})"
    )
    if args.stream:
        snap = get_instrumentation().snapshot().get("stream-profiling")
        if snap is not None and snap.counters.get("units"):
            units = snap.counters["units"]
            secs = snap.counters.get("unit_seconds", 0.0)
            if secs > 0:
                print(
                    f"streaming throughput: {units / secs:,.0f} units/s; "
                    f"mean emission latency "
                    f"{1e6 * secs / units:,.1f} us/unit "
                    f"({units:.0f} units across all threads)"
                )
    if faults is not None:
        from repro.faults import FaultReport

        report_dict = (getattr(result.job, "meta", None) or {}).get(
            "fault_report"
        )
        if report_dict:
            print("\n" + FaultReport.from_dict(report_dict).summary())
        else:
            print("\nfault plan active, no faults fired "
                  "(rates too low for this run)")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    import importlib

    from repro.core.pipeline import SimProfConfig
    from repro.experiments.common import ExperimentConfig

    if args.jobs is not None:
        os.environ["SIMPROF_JOBS"] = str(args.jobs)
    spec = FIGURES[args.name]
    module_name, _, fn_name = spec.partition(":")
    fn = getattr(importlib.import_module(module_name), fn_name)
    if args.name.startswith("table"):
        result = fn()
    else:
        cfg = ExperimentConfig(
            scale=args.scale,
            seed=args.seed,
            n_sampling_draws=args.draws,
            simprof=SimProfConfig(
                seed=args.seed,
                unit_size=args.unit_size,
                snapshot_period=args.snapshot_period,
            ),
        )
        result = fn(cfg)
    print(result.to_text())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.pipeline import SimProfConfig
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.report import generate_report

    if args.jobs is not None:
        os.environ["SIMPROF_JOBS"] = str(args.jobs)
    cfg = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        n_sampling_draws=args.draws,
        simprof=SimProfConfig(
            seed=args.seed,
            unit_size=args.unit_size,
            snapshot_period=args.snapshot_period,
        ),
    )
    text = generate_report(
        cfg,
        include_extensions=not args.no_extensions,
        progress=lambda msg: print(f"  running {msg} ..."),
    )
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.core.pipeline import SimProfConfig
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.fig12_13_sensitivity import run_fig12_13

    workload, framework = _parse_label(args.label)
    if workload not in ("cc", "rank"):
        raise SystemExit("error: sensitivity analysis targets cc/rank")
    cfg = ExperimentConfig(scale=args.scale, simprof=SimProfConfig())
    result = run_fig12_13(
        cfg,
        n_points=args.points,
        reference_names=tuple(args.references) if args.references else None,
    )
    print(result.to_text())
    print()
    detail = result.details[f"{workload}_{'sp' if framework == 'spark' else 'hp'}"]
    for phase in detail.phases:
        verdict = "SENSITIVE" if phase.sensitive else "insensitive"
        by = f" ({', '.join(phase.triggered_by)})" if phase.triggered_by else ""
        print(f"  phase {phase.phase_id}: {verdict}{by}")
    return 0


def _format_age(seconds: float) -> str:
    """Compact age rendering for cache listings."""
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _cmd_cache(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.common import format_table
    from repro.runtime.store import default_store

    store = default_store()
    if args.cache_command == "ls":
        entries = [
            m for m in store.entries()
            if args.kind is None or m.kind == args.kind
        ]
        corrupt = [
            m.key for m in entries
            if store.manifest_status(m.key) == "corrupt"
        ]
        if corrupt:
            print(
                f"warning: {len(corrupt)} corrupt manifest(s), "
                "showing synthesised metadata "
                "(run `simprof cache verify` to inspect)",
                file=sys.stderr,
            )
        now = time.time()
        print(
            format_table(
                ["key", "kind", "ver", "size", "compute", "depth", "age"],
                [
                    (
                        m.key,
                        m.kind,
                        m.version,
                        f"{m.size_bytes / 1024:.0f}K",
                        f"{m.compute_seconds:.2f}s",
                        (m.provenance or {}).get("depth", "-"),
                        _format_age(now - m.created) if m.created else "?",
                    )
                    for m in entries
                ],
                title=f"Artifact store: {store.root} ({len(entries)} entries)",
            )
        )
        return 0
    if args.cache_command == "info":
        manifest = store.manifest(args.key)
        if manifest is None:
            status = store.manifest_status(args.key)
            detail = "no" if status == "missing" else status
            print(f"error: {detail} manifest for {args.key!r} in {store.root}",
                  file=sys.stderr)
            return 1
        print(manifest.to_json())
        return 0
    if args.cache_command == "graph":
        from repro.runtime.provenance import (
            STAGE_KIND,
            explain_key,
            invalidated_entries,
        )

        if args.why is not None:
            try:
                explanation = explain_key(store, args.why)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 1
            record = explanation["record"]
            print(f"{args.why}")
            print(f"  node:   {record.get('node', '?')} "
                  f"(stage {record.get('stage', '?')}, "
                  f"depth {record.get('depth', '?')})")
            print(f"  fn:     {record.get('fn', '?')}")
            print(f"  params: {record.get('params_digest', '?')}")
            code = record.get("code") or {}
            print(f"  code:   {code.get('fingerprint', '?')} over "
                  f"{len(code.get('modules', {}))} module(s) "
                  f"(roots: {', '.join(code.get('roots', [])) or '-'})")
            for inp in sorted(record.get("upstream") or {}):
                up = record["upstream"][inp]
                print(f"  input:  {inp} <- {up.get('node', '?')} "
                      f"[{up.get('key', '?')}]")
            if explanation["predecessor"] is None:
                print("  first recorded run of this node (no predecessor)")
            elif not explanation["changed"]:
                print(f"  identical to predecessor "
                      f"{explanation['predecessor']}")
            else:
                print(f"  vs predecessor {explanation['predecessor']}:")
                for change in explanation["changed"]:
                    detail = ""
                    if change.get("modules"):
                        detail = f" ({', '.join(change['modules'])})"
                    if change.get("inputs"):
                        detail = f" ({', '.join(change['inputs'])})"
                    print(f"    changed: {change['what']}{detail}")
            return 0
        if args.invalidated:
            stale = invalidated_entries(store)
            for entry in stale:
                mods = ", ".join(entry["modules"]) or "?"
                print(f"  {entry['key']}  {entry['node']}  ({mods})")
            print(f"{len(stale)} stage artifact(s) with stale code "
                  f"fingerprints in {store.root}")
            return 1 if stale else 0
        nodes = [
            m for m in store.entries()
            if m.kind == STAGE_KIND and m.provenance
        ]
        nodes.sort(
            key=lambda m: (m.provenance.get("depth", 0),
                           m.provenance.get("node", ""))
        )
        print(
            format_table(
                ["node", "stage", "depth", "inputs", "key"],
                [
                    (
                        m.provenance.get("node", "?"),
                        m.provenance.get("stage", "?"),
                        m.provenance.get("depth", "?"),
                        ", ".join(sorted(m.provenance.get("upstream") or {}))
                        or "-",
                        m.key,
                    )
                    for m in nodes
                ],
                title=(
                    f"Provenance graph: {store.root} "
                    f"({len(nodes)} stage artifact(s))"
                ),
            )
        )
        return 0
    if args.cache_command == "stats":
        from repro.runtime.provenance import provenance_stats

        stats = provenance_stats(store)
        print(
            format_table(
                ["stage", "artifacts"],
                list(stats["per_stage"].items()),
                title=(
                    f"Provenance: {stats['entries']} stage artifact(s), "
                    f"max lineage depth {stats['max_depth']}"
                ),
            )
        )
        print(
            f"\nrun_graph sessions: {stats['runs']}; "
            f"node reuse {stats['hits']} hit(s) / "
            f"{stats['misses']} miss(es)"
        )
        if stats["causes"]:
            breakdown = ", ".join(
                f"{cause}: {count}"
                for cause, count in sorted(stats["causes"].items())
            )
            print(f"miss causes: {breakdown}")
        return 0
    if args.cache_command == "verify":
        from repro.runtime.checkpoint import verify_checkpoints

        outcome = store.verify(repair=args.repair)
        # Checkpoints get a second, snapshot-level pass: an entry can
        # match its payload digest byte-for-byte yet be unresumable
        # (bad state_digest, undecodable snapshot) — those must be
        # reported, and with --repair quarantined, not left loadable.
        deep = verify_checkpoints(store, repair=args.repair)
        deep_corrupt = set(deep["corrupt"])
        outcome["ok"] = [k for k in outcome["ok"] if k not in deep_corrupt]
        outcome["corrupt"] = sorted(set(outcome["corrupt"]) | deep_corrupt)
        for key in outcome["corrupt"]:
            label = "quarantined" if args.repair else "CORRUPT"
            print(f"  {label}: {key}")
        print(
            f"{len(outcome['ok'])} ok, {len(outcome['corrupt'])} corrupt, "
            f"{len(outcome['unverified'])} unverified in {store.root} "
            f"({len(deep['ok'])} checkpoint(s) deep-verified)"
        )
        return 1 if outcome["corrupt"] and not args.repair else 0
    if args.cache_command == "checkpoints":
        from repro.runtime.checkpoint import iter_checkpoint_manifests
        from repro.runtime.snapshot import decode_state

        manifests = [
            m for m in iter_checkpoint_manifests(store)
            if args.job is None or m.params.get("job") == args.job
        ]
        manifests.sort(
            key=lambda m: (m.params.get("job", ""), m.params.get("position", 0))
        )
        if args.inspect is not None:
            manifest = next(
                (m for m in manifests if m.key == args.inspect), None
            )
            if manifest is None:
                print(f"error: no checkpoint {args.inspect!r} in {store.root}",
                      file=sys.stderr)
                return 1
            print(manifest.to_json())
            state = decode_state(store.get(manifest.key))
            kinds = {
                name: value.get("kind")
                for name, value in state.items()
                if isinstance(value, dict) and "kind" in value
            }
            print(f"snapshot components: {kinds}")
            return 0
        if args.gc:
            reclaimed = 0
            for manifest in manifests:
                reclaimed += manifest.size_bytes
                store.delete(manifest.key)
            print(f"removed {len(manifests)} checkpoint(s) "
                  f"({reclaimed / 1024:.0f}K)")
            return 0
        now = time.time()
        print(
            format_table(
                ["key", "job", "position", "size", "age"],
                [
                    (
                        m.key,
                        m.params.get("job", "?"),
                        m.params.get("position", "?"),
                        f"{m.size_bytes / 1024:.0f}K",
                        _format_age(now - m.created) if m.created else "?",
                    )
                    for m in manifests
                ],
                title=(
                    f"In-flight checkpoints: {store.root} "
                    f"({len(manifests)} across "
                    f"{len({m.params.get('job') for m in manifests})} job(s))"
                ),
            )
        )
        return 0
    if args.cache_command == "gc":
        if not (args.stale or args.older_than is not None or args.everything):
            print("error: pass --stale, --older-than DAYS and/or --all",
                  file=sys.stderr)
            return 2
        removed, reclaimed = store.gc(
            max_age_days=args.older_than,
            kind=args.kind,
            stale_only=args.stale,
            everything=args.everything,
            dry_run=args.dry_run,
        )
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {removed} entries ({reclaimed / 1024:.0f}K)")
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


def _cmd_stats() -> int:
    from repro.experiments.common import format_table
    from repro.runtime.provenance import provenance_stats
    from repro.runtime.store import default_store

    store = default_store()
    entries = list(store.entries())
    corrupt = sum(
        1 for m in entries if store.manifest_status(m.key) == "corrupt"
    )
    if corrupt:
        print(
            f"warning: {corrupt} corrupt manifest(s) counted with no "
            "stage data (run `simprof cache verify`)",
            file=sys.stderr,
        )
    stages: dict[str, tuple[int, float]] = {}
    counters: dict[str, dict[str, float]] = {}
    total_compute = 0.0
    for manifest in entries:
        total_compute += manifest.compute_seconds
        for name, seconds in manifest.stages.items():
            calls, secs = stages.get(name, (0, 0.0))
            stages[name] = (calls + 1, secs + seconds)
        for name, stage_counters in manifest.counters.items():
            acc = counters.setdefault(name, {})
            for key, value in stage_counters.items():
                acc[key] = acc.get(key, 0.0) + value
    print(
        format_table(
            ["stage", "artifacts", "total s", "share %"],
            [
                (
                    name,
                    calls,
                    f"{secs:.2f}",
                    f"{100 * secs / total_compute:.1f}"
                    if total_compute > 0 else "-",
                )
                for name, (calls, secs) in sorted(
                    stages.items(), key=lambda kv: -kv[1][1]
                )
            ],
            title=f"Pipeline stages across {len(entries)} cached artifacts",
        )
    )
    throughput = [
        (name, c["units"], c.get("unit_seconds", 0.0))
        for name, c in sorted(counters.items())
        if c.get("units")
    ]
    if throughput:
        print()
        print(
            format_table(
                ["stage", "units", "units/s", "us/unit"],
                [
                    (
                        name,
                        f"{units:.0f}",
                        f"{units / secs:,.0f}" if secs > 0 else "-",
                        f"{1e6 * secs / units:,.1f}" if secs > 0 else "-",
                    )
                    for name, units, secs in throughput
                ],
                title="Streaming throughput",
            )
        )
    reuse = provenance_stats(store)
    print(
        f"\ncompute invested: {total_compute:.2f}s; "
        f"node reuse over {reuse['runs']} graph run(s): "
        f"{reuse['hits']} hit(s) / {reuse['misses']} miss(es) "
        f"(cache dir {store.root})"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import (
        Baseline,
        render_json,
        render_sarif,
        render_text,
        run_check,
    )
    from repro.analysis.baseline import BASELINE_VERSION, DEFAULT_BASELINE_NAME
    from repro.analysis.reporters import render_rule_catalogue

    if args.list_rules:
        print(render_rule_catalogue())
        return 0
    baseline_path = args.baseline or DEFAULT_BASELINE_NAME
    rule_ids = None
    if args.rules:
        rule_ids = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
    store = None
    if not args.no_cache:
        from repro.runtime.store import default_store

        store = default_store()
    if args.changed and store is None:
        print("error: --changed needs the analysis cache (drop --no-cache)",
              file=sys.stderr)
        return 2
    try:
        baseline = Baseline.load(baseline_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_check(
            list(args.paths),
            rule_ids=rule_ids,
            baseline=baseline,
            jobs=args.jobs,
            store=store,
            changed_only=args.changed,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.write_baseline:
        everything = sorted(result.findings + result.baselined)
        Baseline().save(baseline_path, everything)
        print(f"wrote {baseline_path} ({len(everything)} grandfathered "
              "finding(s))")
        return 0
    # A v1 baseline that loaded cleanly is migrated in place: re-key the
    # findings it currently absorbs under the v2 fingerprint scheme.
    if baseline.version < BASELINE_VERSION and not result.parse_errors:
        Baseline().save(baseline_path, sorted(result.baselined))
        print(f"note: migrated {baseline_path} to version {BASELINE_VERSION} "
              f"({len(result.baselined)} grandfathered finding(s) re-keyed)",
              file=sys.stderr)
    if args.output_format == "json":
        print(render_json(result, strict=args.strict))
    elif args.output_format == "sarif":
        print(render_sarif(result, strict=args.strict))
    else:
        print(render_text(result, strict=args.strict))
    return result.exit_code(strict=args.strict)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``simprof`` console script."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "sensitivity":
        return _cmd_sensitivity(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "stats":
        return _cmd_stats()
    if args.command == "check":
        return _cmd_check(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
