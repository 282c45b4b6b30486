"""The fresh process each benchmark step runs in.

    python perfbench/child.py [--spans FILE] cli -- <simprof CLI args>
    python perfbench/child.py make-store ROOT
    python perfbench/child.py make-traces --out DIR --scale S --seed N --labels L,...
    python perfbench/child.py [--spans FILE] analyze --traces DIR --out DIR --seed N \
        --unit-size U --snapshot-period P --points N --draws D

``--spans FILE`` wraps the program's entry points (see ``spans.py``)
and writes the recorded spans to FILE.  Without it the program runs
untouched.  The parent sets ``PYTHONPATH`` to the checkout's ``src``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_FRAMEWORKS = {"sp": "spark", "hp": "hadoop"}


def _import_program(tracer, modules: list[str]) -> None:
    """Import the program, booking the time as ``startup.import``."""
    import importlib

    for name in modules:
        importlib.import_module(name)
    if tracer is not None:
        import spans

        spans.install(tracer)
        tracer.self_s["startup.import"] += time.perf_counter() - _START


def _cmd_cli(tracer, argv: list[str]) -> int:
    _import_program(tracer, ["repro.cli"])
    from repro.cli import main

    return main(argv)


def _cmd_make_store(root: str) -> int:
    from repro.runtime.store import ArtifactStore

    ArtifactStore(root)
    return 0


def _cmd_make_traces(args: argparse.Namespace) -> int:
    from repro.workloads import run_workload

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for label in args.labels.split(","):
        workload, suffix = label.split("_")
        trace = run_workload(
            workload, _FRAMEWORKS[suffix], scale=args.scale, seed=args.seed
        )
        with open(out / f"{label}.pkl", "wb") as fh:
            pickle.dump(trace, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


def _cmd_analyze(tracer, args: argparse.Namespace, spans_path) -> int:
    """Time ``SimProf.analyze`` over every trace; write points and timing.

    ``points.json`` is the deterministic output (checked against the
    goldens); ``timing.json`` holds the host-time measurements.  The
    extra stratified draws that average the CPI error run after the
    timed region and after the spans are written.
    """
    _import_program(tracer, ["repro.core.pipeline", "repro.workloads"])
    import numpy as np

    from repro.core.pipeline import SimProf, SimProfConfig

    paths = sorted(Path(args.traces).glob("*.pkl"))
    traces = {}
    for path in paths:
        with open(path, "rb") as fh:
            traces[path.stem] = pickle.load(fh)
    simprof = SimProf(
        SimProfConfig(
            unit_size=args.unit_size,
            snapshot_period=args.snapshot_period,
            seed=args.seed,
        )
    )
    results = {}
    start = time.perf_counter()
    for label, trace in traces.items():
        results[label] = simprof.analyze(trace, n_points=args.points)
    analyze_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(spans_path)

    points = {}
    for label, result in results.items():
        oracle = result.oracle_cpi()
        errors = [result.sampling_error()]
        for draw in range(1, args.draws):
            rng = np.random.default_rng(np.random.SeedSequence([args.seed, draw]))
            est = simprof.select_points(result.job, result.model, args.points, rng=rng)
            errors.append(abs(est.estimate - oracle) / oracle)
        points[label] = {
            "units": result.job.n_units,
            "phases": result.n_phases,
            "selected": [int(u) for u in result.simulation_points],
            "estimate": repr(float(result.points.estimate)),
            "oracle": repr(float(oracle)),
            "mean_error": repr(float(np.mean(errors))),
        }
    out = Path(args.out)
    (out / "points.json").write_text(json.dumps(points, sort_keys=True, indent=1))
    (out / "timing.json").write_text(json.dumps({"analyze_s": analyze_s}))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--spans", default=None, type=Path)
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    store = sub.add_parser("make-store")
    store.add_argument("root")
    traces = sub.add_parser("make-traces")
    traces.add_argument("--out", required=True)
    traces.add_argument("--scale", type=float, required=True)
    traces.add_argument("--seed", type=int, required=True)
    traces.add_argument("--labels", required=True)
    analyze = sub.add_parser("analyze")
    analyze.add_argument("--traces", required=True)
    analyze.add_argument("--out", required=True)
    analyze.add_argument("--seed", type=int, required=True)
    analyze.add_argument("--unit-size", type=int, required=True)
    analyze.add_argument("--snapshot-period", type=int, required=True)
    analyze.add_argument("--points", type=int, required=True)
    analyze.add_argument("--draws", type=int, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.spans is not None:
        import spans

        tracer = spans.Tracer()
    if args.mode == "cli":
        cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        code = _cmd_cli(tracer, cli_argv)
        if tracer is not None:
            tracer.dump(args.spans)
        return code
    if args.mode == "make-store":
        return _cmd_make_store(args.root)
    if args.mode == "make-traces":
        return _cmd_make_traces(args)
    return _cmd_analyze(tracer, args, args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
