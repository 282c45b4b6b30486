"""Figure 8: required sample size, SimProf vs SECOND.

For each benchmark: the number of sampling units SimProf needs for a
99.7 % confidence interval at 5 % and at 2 % relative CPI error (via
the stratified sample-size solver), against the number of units a
10-second SECOND interval contains.  Paper averages: 85 / 244 / 611 —
SimProf needs far fewer units except for cc_sp and rank_sp, whose many
high-variance phases push its requirement above SECOND's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.core.baselines import SecondSampler
from repro.core.sampling import phase_sample_size
from repro.experiments.common import (
    ExperimentConfig,
    all_label_pairs,
    format_table,
    model_inputs,
    report_params,
    run_report,
)
from repro.runtime.provenance import StageGraph, stage_fn

__all__ = ["Fig8Row", "Fig8Result", "graph_fig8", "run_fig8"]


@dataclass(frozen=True)
class Fig8Row:
    """Sample sizes for one benchmark."""

    label: str
    simprof_5pct: int
    simprof_2pct: int
    second_units: int
    total_units: int


@dataclass
class Fig8Result:
    """All rows plus the three averages the paper quotes."""

    rows: list[Fig8Row]
    confidence: float = 0.997

    def averages(self) -> dict[str, float]:
        """Mean sample sizes (paper: 85 / 244 / 611)."""
        return {
            "SimProf_0.05": float(np.mean([r.simprof_5pct for r in self.rows])),
            "SimProf_0.02": float(np.mean([r.simprof_2pct for r in self.rows])),
            "SECOND": float(np.mean([r.second_units for r in self.rows])),
        }

    def to_text(self) -> str:
        """Render the figure as a table."""
        body = [
            (r.label, r.simprof_5pct, r.simprof_2pct, r.second_units, r.total_units)
            for r in self.rows
        ]
        avg = self.averages()
        body.append(
            (
                "AVERAGE",
                f"{avg['SimProf_0.05']:.0f}",
                f"{avg['SimProf_0.02']:.0f}",
                f"{avg['SECOND']:.0f}",
                "",
            )
        )
        return format_table(
            ["benchmark", "SimProf_0.05", "SimProf_0.02", "SECOND", "N_total"],
            body,
            title=(
                f"Figure 8: required sample size (units) @ "
                f"{100 * self.confidence:.1f}% confidence"
            ),
        )


@stage_fn("report")
def _fig8_report(
    inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> Fig8Result:
    """Sample-size table: stratified solver at 5 %/2 % vs SECOND units."""
    confidence = params["confidence"]
    rows: list[Fig8Row] = []
    for label in params["labels"]:
        job = inputs[f"job:{label}"]
        model = inputs[f"model:{label}"]
        n5 = phase_sample_size(
            job, model, relative_error=0.05, confidence=confidence
        )
        n2 = phase_sample_size(
            job, model, relative_error=0.02, confidence=confidence
        )
        second = SecondSampler(seconds=params["second_seconds"]).sample(job)
        rows.append(
            Fig8Row(
                label=label,
                simprof_5pct=n5,
                simprof_2pct=n2,
                second_units=second.sample_size,
                total_units=job.n_units,
            )
        )
    return Fig8Result(rows=rows, confidence=confidence)


def graph_fig8(
    graph: StageGraph,
    cfg: ExperimentConfig,
    *,
    confidence: float = 0.997,
    second_seconds: float = 10.0,
) -> str:
    """Wire Figure 8 into ``graph``; return the report node's name."""
    deps, labels = model_inputs(graph, all_label_pairs(), cfg)
    return graph.node(
        "report:fig08",
        _fig8_report,
        params=report_params(
            cfg, labels, confidence=confidence, second_seconds=second_seconds
        ),
        deps=deps,
    )


def run_fig8(
    cfg: ExperimentConfig | None = None,
    *,
    confidence: float = 0.997,
    second_seconds: float = 10.0,
) -> Fig8Result:
    """Compute Figure 8 for all twelve benchmark configurations."""
    cfg = cfg or ExperimentConfig()
    graph = StageGraph("fig08")
    node = graph_fig8(
        graph, cfg, confidence=confidence, second_seconds=second_seconds
    )
    return run_report(graph, node)
