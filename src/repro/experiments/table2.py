"""Table II: the evaluated graph inputs.

Regenerated from the input catalog, with measured topology statistics
(degree inequality, skew) demonstrating that the Kronecker initiators
really produce distinct connectivity styles per seed family.  The
table is one ``report`` stage keyed on the seed, so a warm run reads
one small store entry instead of synthesising the eight graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.datagen.kronecker import degree_statistics
from repro.datagen.seeds import GRAPH_INPUTS
from repro.experiments.common import format_table, run_report
from repro.runtime.provenance import StageGraph, stage_fn

__all__ = ["Table2Result", "graph_table2", "run_table2"]


@dataclass
class Table2Result:
    """Rows of Table II with topology statistics."""

    rows: list[tuple[str, str, str, int, int, float, float]]

    def to_text(self) -> str:
        """Render the table."""
        return format_table(
            ["input", "type", "role", "nodes", "edges", "degree CoV", "gini"],
            [
                (n, t, r, nodes, edges, f"{cov:.2f}", f"{gini:.2f}")
                for n, t, r, nodes, edges, cov, gini in self.rows
            ],
            title="Table II: evaluated graph inputs (Kronecker-synthesised)",
        )


@stage_fn("report", reads=("global:repro.datagen.seeds.GRAPH_INPUTS",))
def _table2_report(
    inputs: Mapping[str, Any], params: Mapping[str, Any]
) -> Table2Result:
    """Materialise each graph input once and measure its topology."""
    rows = []
    for g in GRAPH_INPUTS.values():
        edges = g.edges(seed=params["seed"])
        stats = degree_statistics(edges, g.n_nodes)
        rows.append(
            (
                g.name,
                g.category,
                g.role,
                g.n_nodes,
                int(stats["n_edges"]),
                stats["degree_cov"],
                stats["gini"],
            )
        )
    return Table2Result(rows=rows)


def graph_table2(graph: StageGraph, seed: int = 0) -> str:
    """Wire Table II into ``graph``; return the report node's name."""
    return graph.node("report:table2", _table2_report, params={"seed": seed})


def run_table2(seed: int = 0) -> Table2Result:
    """Regenerate Table II (cached on the seed)."""
    graph = StageGraph("table2")
    return run_report(graph, graph_table2(graph, seed))
