"""The repository benchmark: end-to-end and per-layer, with output checks.

    python3 perfbench/run.py --workload {fig7-cold,report-warm,analyze-fine} \
        --seed N --seconds S --trace {0,1} [--tiny] [--record-golden]

Run it from the root of a checkout.  Each repetition runs in a fresh
Python process (``python -m repro.cli ...`` or ``perfbench/child.py``),
one process at a time.  A run sets up its inputs once, then repeats
until ``--seconds`` have passed since it started, at least
:data:`MIN_REPS` times.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced repetitions, prints the
per-layer metrics from the traced ones, and checks that traced outputs
are byte-identical to untraced ones.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--tiny`` shrinks every input (for the smoke test).
``--record-golden`` stores the output digest of this seed in
``perfbench/goldens.json`` instead of checking against it.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDENS = BENCH_DIR / "goldens.json"
CHILD = BENCH_DIR / "child.py"

#: A run never starts a repetition that could end after this many seconds.
RUN_BUDGET_S = 165.0
#: Per-process limit; a child past it is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
MIN_REPS = 3
#: Seconds :func:`calibrate` takes on a quiet CPU of the host the bounds
#: were tuned on (2-core x86-64 sandbox, CPython 3.11).
CALIBRATION_REF_S = 0.0201
_MB = 1024.0 * 1024.0

#: Input sizes.  ``tiny`` is the smoke test's.
CONFIGS = {
    "full": {
        "scale": 0.01,
        "draws": 40,
        "setup_draws": 5,
        "analyze_scale": 0.1,
        "analyze_labels": ("cc_sp", "rank_sp", "sort_hp", "wc_hp", "grep_sp"),
        "unit_size": 10_000_000,
        "snapshot_period": 500_000,
        "points": 20,
    },
    "tiny": {
        "scale": 0.01,
        "draws": 3,
        "setup_draws": 2,
        "analyze_scale": 0.01,
        "analyze_labels": ("cc_sp", "grep_sp"),
        "unit_size": 10_000_000,
        "snapshot_period": 500_000,
        "points": 20,
    },
}

#: ``(name, unit, better)`` — must match BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("units_per_s", "units/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("written_mb", "MB", "lower"),
    ("cpi_error_pct", "%", "lower"),
    ("ok_frac", "ratio", "higher"),
)

#: ``(metric, unit, span or counter, kind)``; kind ``self`` is a span's
#: self seconds, ``count`` a counter, ``derived`` computed below.
PER_LAYER = (
    ("startup.import_s", "s", "startup.import", "self"),
    ("workloads.run_s", "s", "workloads.run", "self"),
    ("workloads.spark_s", "s", "workloads.spark", "self"),
    ("workloads.hadoop_s", "s", "workloads.hadoop", "self"),
    ("workloads.calls", "count", "workloads.run.calls", "count"),
    ("workloads.sim_ginstr", "Ginstr", "workloads.sim_instr", "count"),
    ("datagen.s", "s", "datagen", "self"),
    ("store.put_s", "s", "store.put", "self"),
    ("store.puts", "count", "store.put.calls", "count"),
    ("store.write_mb", "MB", "store.write_mb", "count"),
    ("store.get_s", "s", "store.get", "self"),
    ("store.gets", "count", "store.get.calls", "count"),
    ("store.read_mb", "MB", "store.read_mb", "count"),
    ("store.hit_ratio", "ratio", None, "derived"),
    ("provenance.plan_s", "s", "provenance.plan", "self"),
    ("provenance.fingerprint_s", "s", "provenance.fingerprint", "self"),
    ("provenance.nodes", "count", "provenance.nodes", "count"),
    ("provenance.nodes_executed", "count", "provenance.nodes_executed", "count"),
    ("runner.run_graph_s", "s", "runner.run_graph", "self"),
    ("runner.stage_s", "s", None, "derived"),
    ("profiler.s", "s", "profiler", "self"),
    ("profiler.units", "count", "profiler.units", "count"),
    ("features.s", "s", "features", "self"),
    ("phases.fit_s", "s", "phases.fit", "self"),
    ("clustering.sweep_s", "s", "clustering.sweep", "self"),
    ("clustering.silhouette_s", "s", "clustering.silhouette", "self"),
    ("clustering.kmeans_s", "s", "clustering.kmeans", "self"),
    ("clustering.kmeans_calls", "count", "clustering.kmeans.calls", "count"),
    ("sampling.s", "s", "sampling", "self"),
    ("sampling.calls", "count", "sampling.calls", "count"),
    ("experiments.report_s", "s", "stage.report", "self"),
    ("unattributed_s", "s", None, "derived"),
    ("unattributed_frac", "ratio", None, "derived"),
    ("trace_overhead", "ratio", None, "derived"),
    ("failed_frac", "ratio", None, "derived"),
)

_ROW = re.compile(r"^([A-Za-z]+_(?:hp|sp)|AVERAGE)\s*\|(.*)$")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


# -- processes ----------------------------------------------------------------


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i
        best = min(best, time.perf_counter() - start)
    return best


def fastest_cpu() -> tuple[set[int], float]:
    """The CPU that runs :func:`calibrate` fastest now, and its slowdown.

    On a shared host one CPU can run at two thirds of another's speed
    for minutes at a time (a busy hyperthread sibling).  A child pinned
    to the faster CPU, with its times divided by the slowdown measured
    just before it starts (calibration time / :data:`CALIBRATION_REF_S`),
    reads about the same in quiet and in busy periods.
    """
    allowed = os.sched_getaffinity(0)
    timings = {}
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = calibrate()
    finally:
        os.sched_setaffinity(0, allowed)
    cpu = min(timings, key=timings.__getitem__)
    return {cpu}, timings[cpu] / CALIBRATION_REF_S


@dataclass
class Proc:
    """One finished child process."""

    code: int
    wall_s: float
    #: Host slowdown measured just before the child started (1.0 = reference).
    speed: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(cmd: list[str], *, env: dict, cwd: Path, timeout: float) -> Proc:
    """Run ``cmd`` to completion on the fastest CPU; time it, read its peak RSS.

    ``os.wait4`` gives this child's own resource usage, so the peak RSS
    is the process's, not the maximum over every child so far.
    """
    cpus, speed = fastest_cpu()
    allowed = os.sched_getaffinity(0)
    out_path, err_path = cwd / ".child.out", cwd / ".child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        # The child inherits the pinning; the parent only waits for it.
        os.sched_setaffinity(0, cpus)
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        finally:
            os.sched_setaffinity(0, allowed)
        # SIGKILL by pid: the pid cannot be reused before wait4 reaps it.
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): never leave the child running.
            os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return Proc(proc.returncode, wall, speed, usage.ru_maxrss / 1024.0, stdout, stderr)


def child_env(store: Path | None) -> dict:
    """The inherited environment without SIMPROF_* knobs, plus ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIMPROF_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["SIMPROF_JOBS"] = "1"
    if store is not None:
        env["SIMPROF_CACHE_DIR"] = str(store)
    return env


def dir_state(path: Path) -> dict[str, tuple[int, int]]:
    """``{name: (size, mtime_ns)}`` of every regular file under ``path``."""
    state = {}
    for entry in path.rglob("*"):
        if entry.is_file():
            st = entry.stat()
            state[str(entry.relative_to(path))] = (st.st_size, st.st_mtime_ns)
    return state


def written_bytes(before: dict, after: dict) -> int:
    """Bytes of files created or rewritten between two :func:`dir_state`."""
    return sum(size for name, (size, mt) in after.items() if before.get(name) != (size, mt))


def profile_units(store: Path) -> int:
    """Sampling units across the profile-stage entries of a store."""
    units = 0
    for path in store.glob("stage-*.json"):
        manifest = json.loads(path.read_text())
        if (manifest.get("provenance") or {}).get("stage") == "profile":
            units += int(manifest["counters"]["profiling"]["units"])
    return units


# -- one repetition -----------------------------------------------------------


@dataclass
class Rep:
    """What one repetition measured and whether its output checked out."""

    traced: bool
    #: Host wall time divided by the host slowdown (see :func:`fastest_cpu`).
    wall_s: float = 0.0
    host_wall_s: float = 0.0
    rss_mb: float = 0.0
    written: int = 0
    units: int = 0
    cpi_error_pct: float = math.nan
    digest: str = ""
    #: Exited 0 and produced its output.
    ran: bool = False
    #: Output differs from the golden or from another repetition.
    mismatch: bool = False
    #: Pairs or figures of the output that failed their check.
    failed_items: int = 0
    #: Wall time covers only the analyze calls, not the start-up imports.
    analyze_region: bool = False
    problems: list[str] = field(default_factory=list)
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return self.ran and not self.mismatch and not self.failed_items

    def failed_ops(self, items: int) -> int:
        """Failed operations: the repetition itself plus each pair/figure."""
        if not self.ran:
            return 1 + items
        return int(self.mismatch) + self.failed_items

    def fail_item(self, problem: str) -> None:
        self.failed_items += 1
        self.problems.append(problem)


def parse_table(text: str) -> dict[str, list[float]]:
    """``{label: [column values]}`` for every benchmark/AVERAGE row."""
    rows = {}
    for line in text.splitlines():
        match = _ROW.match(line.strip())
        if match:
            try:
                rows[match.group(1)] = [float(c) for c in match.group(2).split("|")]
            except ValueError:
                continue
    return rows


def check_fig7(rep: Rep, text: str) -> int:
    """Twelve pair rows and an AVERAGE row, four finite errors each.

    Sets the repetition's CPI error from the AVERAGE row's SimProf
    column; returns how many of the thirteen rows are missing or bad.
    """
    rows = parse_table(text)
    valid = {
        label for label, cols in rows.items()
        if len(cols) == 4 and all(map(math.isfinite, cols))
    }
    pairs = len(valid - {"AVERAGE"})
    if pairs != 12:
        rep.problems.append(f"fig7 table has {pairs} of 12 valid pair rows")
    if "AVERAGE" not in valid:
        rep.problems.append("fig7 table has no valid AVERAGE row")
        return 13 - pairs
    rep.cpi_error_pct = rows["AVERAGE"][3]
    return 12 - pairs


# -- workloads ----------------------------------------------------------------


class Workload:
    """Inputs, one repetition, and the output check of one workload."""

    name = ""

    def __init__(self, work: Path, seed: int, cfg: dict) -> None:
        self.work = work
        self.seed = seed
        self.cfg = cfg
        self.setup_times: list[float] = []

    @property
    def items(self) -> int:
        """Pairs or figures in one repetition's output."""
        raise NotImplementedError

    def golden_config(self) -> dict:
        """The settings the output digest depends on."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build the inputs every repetition shares (timed into setup_times)."""

    def rep(self, index: int, spans: Path | None) -> Rep:
        raise NotImplementedError

    def _timed_setup(self, cmd: list[str], store: Path | None) -> None:
        proc = run_child(cmd, env=child_env(store), cwd=self.work, timeout=CHILD_TIMEOUT_S)
        if proc.code != 0:
            raise BenchError(f"{self.name} setup failed: {proc.stderr.decode()[-2000:]}")
        self.setup_times.append(proc.wall_s / proc.speed)

    def _run_cli(self, store: Path, spans: Path | None, argv: list[str]) -> tuple[Rep, Proc]:
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", *argv]
        else:
            cmd = [sys.executable, str(CHILD), "--spans", str(spans), "cli", "--", *argv]
        before = dir_state(store)
        proc = run_child(cmd, env=child_env(store), cwd=self.work, timeout=CHILD_TIMEOUT_S)
        rep = Rep(
            traced=spans is not None, wall_s=proc.wall_s / proc.speed,
            host_wall_s=proc.wall_s, rss_mb=proc.rss_mb,
        )
        rep.written = written_bytes(before, dir_state(store))
        rep.ran = proc.code == 0
        if not rep.ran:
            rep.problems.append(f"exit {proc.code}: {proc.stderr.decode()[-500:]}")
        return rep, proc


class Fig7Cold(Workload):
    """``simprof figure fig7`` over all twelve pairs into an empty store."""

    name = "fig7-cold"
    items = 13  # twelve pair rows and the AVERAGE row

    def golden_config(self) -> dict:
        return {"scale": self.cfg["scale"], "draws": self.cfg["draws"]}

    def setup(self) -> None:
        self.empty = self.work / "empty-store"
        self._timed_setup([sys.executable, str(CHILD), "make-store", str(self.empty)], None)

    def rep(self, index: int, spans: Path | None) -> Rep:
        store = self.work / f"store-{index}"
        shutil.copytree(self.empty, store)
        rep, proc = self._run_cli(store, spans, [
            "figure", "fig7", "--scale", str(self.cfg["scale"]),
            "--draws", str(self.cfg["draws"]), "--seed", str(self.seed), "--jobs", "1",
        ])
        if rep.ran:
            rep.written += len(proc.stdout)
            rep.units = profile_units(store)
            rep.digest = hashlib.sha256(proc.stdout).hexdigest()
            rep.failed_items = check_fig7(rep, proc.stdout.decode())
        shutil.rmtree(store, ignore_errors=True)
        return rep


#: Every section ``simprof report --no-extensions`` writes.
REPORT_SECTIONS = (
    "Table I", "Table II", "Figure 6", "Figure 7", "Figure 8", "Figure 9",
    "Figure 10", "Figure 11", "Figures 12-13", "Figure 14", "Figure 15", "Headline",
)


class ReportWarm(Workload):
    """``simprof report`` on a copy of a store populated at other draws."""

    name = "report-warm"
    items = len(REPORT_SECTIONS)

    def golden_config(self) -> dict:
        return {
            "scale": self.cfg["scale"], "draws": self.cfg["draws"],
            "setup_draws": self.cfg["setup_draws"],
        }

    def _argv(self, draws: int, output: Path) -> list[str]:
        return [
            "report", "--no-extensions", "--scale", str(self.cfg["scale"]),
            "--seed", str(self.seed), "--draws", str(draws), "--jobs", "1",
            "--output", str(output),
        ]

    def setup(self) -> None:
        self.populated = self.work / "populated"
        argv = self._argv(self.cfg["setup_draws"], self.work / "setup-report.md")
        self._timed_setup([sys.executable, "-m", "repro.cli", *argv], self.populated)

    def rep(self, index: int, spans: Path | None) -> Rep:
        store = self.work / f"store-{index}"
        shutil.copytree(self.populated, store)
        output = self.work / f"report-{index}.md"
        rep, _ = self._run_cli(store, spans, self._argv(self.cfg["draws"], output))
        if rep.ran:
            data = output.read_bytes()
            rep.written += len(data)
            rep.units = profile_units(store)
            rep.digest = hashlib.sha256(data).hexdigest()
            self._check(rep, data.decode())
        shutil.rmtree(store, ignore_errors=True)
        output.unlink(missing_ok=True)
        return rep

    def _check(self, rep: Rep, text: str) -> None:
        """Every section is present and Figure 7's table is whole."""
        sections = {}
        for block in text.split("\n## ")[1:]:
            title, _, body = block.partition("\n")
            sections[title.split(" — ")[0]] = body
        for want in REPORT_SECTIONS:
            if want not in sections:
                rep.fail_item(f"report has no {want!r} section")
            elif want == "Figure 7" and check_fig7(rep, sections[want]):
                rep.failed_items += 1


class AnalyzeFine(Workload):
    """``SimProf.analyze`` at a fine unit size over pre-generated traces."""

    name = "analyze-fine"

    @property
    def items(self) -> int:
        return len(self.cfg["analyze_labels"])

    def golden_config(self) -> dict:
        keys = ("analyze_scale", "analyze_labels", "unit_size", "snapshot_period", "points", "draws")
        return {k: self.cfg[k] for k in keys}

    def setup(self) -> None:
        self.traces = self.work / "traces"
        self._timed_setup([
            sys.executable, str(CHILD), "make-traces", "--out", str(self.traces),
            "--scale", str(self.cfg["analyze_scale"]), "--seed", str(self.seed),
            "--labels", ",".join(self.cfg["analyze_labels"]),
        ], None)

    def rep(self, index: int, spans: Path | None) -> Rep:
        out = self.work / f"analyze-{index}"
        out.mkdir()
        cmd = [sys.executable, str(CHILD)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += [
            "analyze", "--traces", str(self.traces), "--out", str(out),
            "--seed", str(self.seed), "--unit-size", str(self.cfg["unit_size"]),
            "--snapshot-period", str(self.cfg["snapshot_period"]),
            "--points", str(self.cfg["points"]), "--draws", str(self.cfg["draws"]),
        ]
        proc = run_child(cmd, env=child_env(None), cwd=self.work, timeout=CHILD_TIMEOUT_S)
        rep = Rep(traced=spans is not None, rss_mb=proc.rss_mb, analyze_region=True)
        rep.ran = proc.code == 0
        if not rep.ran:
            rep.problems.append(f"exit {proc.code}: {proc.stderr.decode()[-500:]}")
        else:
            data = (out / "points.json").read_bytes()
            rep.host_wall_s = json.loads((out / "timing.json").read_text())["analyze_s"]
            rep.wall_s = rep.host_wall_s / proc.speed
            rep.written = len(data)
            rep.digest = hashlib.sha256(data).hexdigest()
            self._check(rep, json.loads(data))
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def _check(self, rep: Rep, points: dict) -> None:
        """Each trace has units, phases and distinct in-range points."""
        errors = []
        for label in self.cfg["analyze_labels"]:
            p = points.get(label)
            good = (
                p is not None
                and p["units"] > 0
                and 1 <= p["phases"] <= p["units"]
                and len(p["selected"]) == len(set(p["selected"]))
                and len(p["selected"]) >= min(self.cfg["points"], p["units"])
                and all(0 <= u < p["units"] for u in p["selected"])
                and math.isfinite(float(p["estimate"]))
                and math.isfinite(float(p["mean_error"]))
            )
            if not good:
                rep.fail_item(f"analyze output for {label} is missing or invalid")
                continue
            rep.units += p["units"]
            errors.append(100.0 * float(p["mean_error"]))
        if errors:
            rep.cpi_error_pct = statistics.fmean(errors)


WORKLOADS = {cls.name: cls for cls in (Fig7Cold, ReportWarm, AnalyzeFine)}


# -- metrics ------------------------------------------------------------------


def layer_metrics(reps: list[Rep], untraced_wall: float, failed_frac: float) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    per_rep = []
    for rep in reps:
        self_s, counts = rep.spans["self_s"], rep.spans["counts"]
        region = {k: v for k, v in self_s.items() if not (rep.analyze_region and k == "startup.import")}
        values = {}
        for name, _unit, source, kind in PER_LAYER:
            if kind == "self":
                values[name] = self_s.get(source, 0.0)
            elif kind == "count":
                values[name] = counts.get(source, 0.0)
        values["workloads.sim_ginstr"] /= 1e9
        gets = counts.get("store.get.calls", 0.0)
        values["store.hit_ratio"] = counts.get("store.hits", 0.0) / gets if gets else 0.0
        values["runner.stage_s"] = sum(
            v for k, v in self_s.items() if k.startswith("stage.") and k != "stage.report"
        )
        values["unattributed_s"] = rep.host_wall_s - sum(region.values())
        values["unattributed_frac"] = values["unattributed_s"] / rep.host_wall_s
        values["trace_overhead"] = rep.wall_s / untraced_wall
        values["failed_frac"] = failed_frac
        per_rep.append(values)
    return {
        name: {"value": statistics.median(v[name] for v in per_rep), "unit": unit}
        for name, unit, _source, _kind in PER_LAYER
    }


def end_to_end_metrics(reps: list[Rep], setup_times: list[float], attempted: int, failed: int) -> dict:
    """End-to-end metrics over the untraced repetitions.

    Host time is the best repetition, already divided by the host
    slowdown measured next to it: on a shared host, interference (a
    busy hyperthread sibling makes the same loop ~1.5x slower for
    seconds to minutes) only ever adds time, so the fastest repetition
    is the steadiest estimate of the program's own cost.  Everything
    else is a median.
    """
    values = {
        "wall_s": min(r.wall_s for r in reps),
        "units_per_s": max(r.units / r.wall_s for r in reps),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "written_mb": statistics.median(r.written for r in reps) / _MB,
        "cpi_error_pct": statistics.median(r.cpi_error_pct for r in reps),
        "ok_frac": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def run_record(args: argparse.Namespace, cfg: dict) -> dict:
    """What the numbers depend on, so results from different hosts or
    configurations are never compared by mistake."""
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()},
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over the program's source files (names and contents)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- goldens ------------------------------------------------------------------


def golden_key(workload: Workload) -> str:
    return f"{workload.name} {json.dumps(workload.golden_config(), sort_keys=True)}"


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}


def record_golden(workload: Workload, digest: str) -> None:
    goldens = load_goldens()
    goldens.setdefault(golden_key(workload), {})[str(workload.seed)] = digest
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


# -- the run ------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    return parser.parse_args(argv)


def measure(workload: Workload, args: argparse.Namespace) -> list[Rep]:
    """Repeat until ``--seconds`` have passed (at least :data:`MIN_REPS` times).

    The clock covers the shared setup and whole repetitions, process
    start-up and input staging included, so a run's length stays near
    ``--seconds`` whatever part of a repetition ``wall_s`` times.
    """
    start = time.perf_counter()
    workload.setup()
    reps: list[Rep] = []
    longest = 0.0
    while True:
        now = time.perf_counter()
        enough = now - start >= args.seconds and len(reps) >= MIN_REPS
        if enough and args.trace:
            enough = any(r.traced for r in reps) and not all(r.traced for r in reps)
        if enough or (reps and now - start + 1.5 * longest > RUN_BUDGET_S):
            break
        # Trace runs go untraced, traced, traced, untraced, ...
        traced = bool(args.trace) and len(reps) % 3 != 0
        spans = workload.work / f"spans-{len(reps)}.json" if traced else None
        rep = workload.rep(len(reps), spans)
        longest = max(longest, time.perf_counter() - now)
        if spans is not None and rep.ran:
            rep.spans = json.loads(spans.read_text())
        reps.append(rep)
    return reps


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so children are killed and reaped
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from a checkout", file=sys.stderr)
        return 2
    cfg = CONFIGS["tiny" if args.tiny else "full"]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, cfg)
        reps = measure(workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Failure accounting: a repetition is one operation plus one per
    # pair (fig7, analyze) or per figure (report) it produces.
    golden = None if args.record_golden else load_goldens().get(golden_key(workload), {}).get(str(args.seed))
    digests = {r.digest for r in reps if r.ran}
    for rep in reps:
        if not rep.ran:
            continue
        if golden is not None and rep.digest != golden:
            rep.mismatch = True
            rep.problems.append(f"output digest {rep.digest[:16]} != golden {golden[:16]}")
        elif len(digests) > 1:
            rep.mismatch = True
            rep.problems.append("outputs differ between repetitions")
    attempted = len(reps) * (1 + workload.items)
    failed = sum(r.failed_ops(workload.items) for r in reps)
    good = [r for r in reps if r.ok]
    correct = failed == 0
    if args.record_golden and correct:
        record_golden(workload, reps[0].digest)

    untraced = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    record = run_record(args, cfg)
    record["golden"] = "recorded" if args.record_golden and correct else ("checked" if golden else "none")
    print("run " + json.dumps(record, sort_keys=True))
    for i, rep in enumerate(reps):
        print(
            f"rep {i} {'traced' if rep.traced else 'untraced'} ok={rep.ok} wall_s={rep.wall_s:.3f} host_wall_s={rep.host_wall_s:.3f} "
            f"rss_mb={rep.rss_mb:.1f} cpi_error_pct={rep.cpi_error_pct:.3f} digest={rep.digest[:16]}"
            + "".join(f"\n  problem: {p}" for p in rep.problems)
        )
    metrics: dict = {}
    if untraced:
        e2e = end_to_end_metrics(untraced, workload.setup_times, attempted, failed)
        walls = sorted(r.wall_s for r in untraced)
        print(f"wall_s n={len(walls)} min={walls[0]:.3f} median={statistics.median(walls):.3f} max={walls[-1]:.3f}")
        print(f"setup_s n={len(workload.setup_times)} median={e2e['setup_s']['value']:.3f}")
        if not args.trace:
            metrics = e2e
        else:
            for name, m in e2e.items():
                print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.trace and traced and untraced:
        metrics = layer_metrics(traced, statistics.median(r.wall_s for r in untraced), failed / attempted)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not metrics:
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
