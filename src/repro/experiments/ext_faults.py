"""Extension experiment: stratified sampling accuracy under fault injection.

The fault framework (:mod:`repro.faults`) claims that recovery is
*semantically transparent*: task failures re-execute and stragglers and
GC pauses only stretch the trace, so the job's *results* never change,
while the profiled trace gains the extra work the recoveries cost.
This driver profiles the batch trace of :func:`run_workload` with those
cluster faults injected.  It sweeps a uniform fault rate and checks,
per rate:

* the injected run still produces the same workload output (HDFS and
  shuffle byte counters match the fault-free run),
* SimProf's stratified CPI estimate stays within its own 99.7 %
  confidence interval of the (now perturbed) trace's true CPI — the
  paper's accuracy claim must survive the perturbation,
* the whole run replays deterministically (the fault report of a
  repeat run is identical).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, format_table
from repro.faults import FaultPlan
from repro.workloads import run_workload

__all__ = ["FaultSweepRow", "FaultSweepResult", "run_fault_sweep"]


@dataclass(frozen=True)
class FaultSweepRow:
    """Accuracy evidence for one fault rate."""

    rate: float
    n_faults: int
    estimate: float
    oracle: float
    error: float
    within_ci: bool
    results_match: bool
    replay_identical: bool


@dataclass
class FaultSweepResult:
    """The sweep table plus the invariants it must uphold."""

    label: str
    rows: list[FaultSweepRow]

    @property
    def all_results_match(self) -> bool:
        return all(r.results_match for r in self.rows)

    @property
    def all_within_ci(self) -> bool:
        return all(r.within_ci for r in self.rows)

    @property
    def all_replays_identical(self) -> bool:
        return all(r.replay_identical for r in self.rows)

    def to_text(self) -> str:
        table = format_table(
            ["rate", "faults", "est CPI", "oracle CPI", "error",
             "within CI", "results", "replay"],
            [
                (
                    f"{r.rate:.0%}",
                    r.n_faults,
                    f"{r.estimate:.4f}",
                    f"{r.oracle:.4f}",
                    f"{r.error:.2%}",
                    "yes" if r.within_ci else "NO",
                    "same" if r.results_match else "CHANGED",
                    "ok" if r.replay_identical else "DIVERGED",
                )
                for r in self.rows
            ],
            title=f"Extension: fault injection sweep ({self.label})",
        )
        verdict = (
            "recoveries transparent, estimates in-CI, replay deterministic"
            if (self.all_results_match and self.all_within_ci
                and self.all_replays_identical)
            else "INVARIANT VIOLATED — see table"
        )
        return f"{table}\n{verdict}"


def _results_fingerprint(meta: dict) -> tuple:
    """Workload-output invariant: byte counters faults must not move."""
    return (meta.get("hdfs_bytes_written"), meta.get("shuffle_bytes"))


def run_fault_sweep(
    cfg: ExperimentConfig | None = None,
    *,
    workload: str = "wc",
    framework: str = "spark",
    rates: tuple[float, ...] = (0.0, 0.01, 0.02, 0.05),
    n_points: int = 20,
) -> FaultSweepResult:
    """Sweep a uniform fault rate and score accuracy + transparency.

    Each non-zero rate sets the task-failure, straggler and GC-pause
    probabilities simultaneously (:meth:`FaultPlan.uniform`).  The
    rate-0 row doubles as the baseline whose output fingerprint
    every injected run must reproduce.
    """
    cfg = cfg or ExperimentConfig()
    tool = cfg.simprof_tool()
    run_kwargs = dict(scale=cfg.scale, seed=cfg.seed)

    baseline_fp: tuple | None = None
    rows: list[FaultSweepRow] = []
    for rate in rates:
        plan = FaultPlan.uniform(rate, seed=cfg.seed)
        trace = run_workload(workload, framework, faults=plan, **run_kwargs)
        report = trace.meta.get("fault_report", {})
        fingerprint = _results_fingerprint(trace.meta)
        if baseline_fp is None:
            baseline_fp = fingerprint

        # Determinism: the same plan must replay to the same faults.
        repeat = run_workload(workload, framework, faults=plan, **run_kwargs)
        replay_identical = (
            repeat.meta.get("fault_report", {}) == report
            and _results_fingerprint(repeat.meta) == fingerprint
        )

        result = tool.analyze(trace, n_points=n_points)
        lo, hi = result.points.confidence_interval(0.997)
        oracle = result.oracle_cpi()
        rows.append(
            FaultSweepRow(
                rate=rate,
                n_faults=int(report.get("n_events", 0)),
                estimate=float(result.points.estimate),
                oracle=float(oracle),
                error=float(result.sampling_error()),
                within_ci=bool(lo <= oracle <= hi),
                results_match=fingerprint == baseline_fp,
                replay_identical=replay_identical,
            )
        )

    suffix = "sp" if framework == "spark" else "hp"
    return FaultSweepResult(label=f"{workload}_{suffix}", rows=rows)
