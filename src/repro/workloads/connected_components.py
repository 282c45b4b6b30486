"""Connected Components.

Spark: GraphX-style Pregel label propagation with a shrinking active
frontier — each superstep, vertices whose label improved broadcast it
(``aggregateMessages``), neighbors take the minimum
(``aggregateUsingIndex``).  Message volume decays as components merge,
so the per-phase CPI is time-varying and topology-dependent: exactly
why cc_sp's aggregate phase is the paper's flagship input-sensitive
phase (Section IV-E).

Hadoop: the classic iterative adjacency-list MapReduce — each job's
mapper forwards the vertex's label to its neighbors, the reducer takes
the minimum, and the updated adjacency file feeds the next job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.hadoop.api import Context, Mapper, Reducer
from repro.hadoop.job import HadoopJobConf
from repro.workloads.base import Workload, WorkloadInput
from repro.workloads.graph_common import (
    HADOOP_SCALE_DELTA,
    SPARK_SCALE_DELTA,
    adjacency_lines,
    parse_adjacency_line,
    resolve_graph,
    symmetrize,
)
from repro.workloads.graphx import GraphXGraph, pregel_step

if TYPE_CHECKING:
    from repro.hadoop.runtime import HadoopCluster
    from repro.spark.context import SparkContext

__all__ = ["ConnectedComponents", "CCMapper", "CCReducer"]

MAX_ITERATIONS = 20
HADOOP_MAX_ITERATIONS = 10


class CCMapper(Mapper):
    """Forwards the vertex label along every incident edge."""

    frames = (
        ("org.apache.hadoop.mapreduce.Mapper", "run"),
        ("pegasus.ConCmpt$MapStage1", "map"),
    )
    inst_per_record = 210_000.0

    def map(self, key: Any, value: str, context: Context) -> None:
        node, state, neighbors = parse_adjacency_line(value)
        context.write(node, f"S\t{state}\t{','.join(map(str, neighbors))}")
        label = int(state)
        for nbr in neighbors:
            context.write(nbr, label)


class CCReducer(Reducer):
    """Takes the minimum of the own and received labels."""

    frames = (
        ("org.apache.hadoop.mapreduce.Reducer", "run"),
        ("pegasus.ConCmpt$RedStage1", "reduce"),
    )
    inst_per_record = 130_000.0

    def reduce(self, key: Any, values: Any, context: Context) -> None:
        own_label: int | None = None
        neighbors = ""
        best: int | None = None
        for v in values:
            if isinstance(v, str) and v.startswith("S\t"):
                _tag, state, neighbors = v.split("\t", 2)
                own_label = int(state)
            else:
                lbl = int(v)
                if best is None or lbl < best:
                    best = lbl
        if own_label is None:
            # Vertex only appears as a neighbor (no adjacency line):
            # nothing to update.
            return
        new_label = own_label if best is None else min(own_label, best)
        context.write(key, f"{new_label}\t{neighbors}")


class ConnectedComponents(Workload):
    """Label every vertex with the smallest id in its component."""

    name = "cc"
    abbrev = "cc"
    workload_type = "Graph Analytics"
    paper_input = "2^24 nodes"
    is_graph = True
    spark_inst_scale = 3.0
    hadoop_inst_scale = 2.0

    def prepare_input(self, fs: Any, inp: WorkloadInput) -> dict[str, Any]:
        # Spark consumes the raw edge array; Hadoop reads adjacency text
        # at a reduced scale (see graph_common.HADOOP_SCALE_DELTA).
        graph, edges, n = resolve_graph(inp, scale_delta=SPARK_SCALE_DELTA)
        _g, h_edges, h_n = resolve_graph(inp, scale_delta=HADOOP_SCALE_DELTA)
        h_sym = symmetrize(h_edges)
        lines = adjacency_lines(
            h_sym, h_n, [str(v) for v in range(h_n)]
        )
        fs.write("/in/cc/iter0", lines, block_records=max(256, h_n // 8))
        return {
            "graph": graph.name,
            "edges": symmetrize(edges),
            "n_vertices": n,
            "hadoop_path": "/in/cc/iter0",
            "hadoop_n_vertices": h_n,
        }

    # -- Spark ----------------------------------------------------------------

    def run_spark(self, ctx: SparkContext, meta: dict[str, Any]) -> None:
        n = meta["n_vertices"]
        graph = GraphXGraph(ctx, meta["edges"], n)
        labels = np.arange(n, dtype=np.float64)
        active = np.ones(n, dtype=bool)
        for _it in range(MAX_ITERATIONS):
            agg, received = pregel_step(
                graph,
                labels,
                active,
                gather=lambda src, vals: vals,
                reduce_ufunc=np.minimum,
                reduce_identity=np.inf,
                frames_tag="ConnectedComponents",
            )
            improved = received & (agg < labels)
            if not improved.any():
                break
            labels[improved] = agg[improved]
            active = improved
        self._save_labels(ctx, labels)

    @staticmethod
    def _save_labels(ctx: SparkContext, labels: np.ndarray) -> None:
        records = [(int(v), int(l)) for v, l in enumerate(labels)]
        (
            ctx.parallelize(records)
            .map_values(lambda l: l, inst_per_record=30_000.0)
            .save_as_text_file("/out/cc")
        )

    # -- Hadoop ---------------------------------------------------------------

    def run_hadoop(self, cluster: HadoopCluster, meta: dict[str, Any]) -> None:
        path = meta["hadoop_path"]
        prev_labels: dict[int, int] | None = None
        for it in range(HADOOP_MAX_ITERATIONS):
            out = f"/out/cc/iter{it + 1}"
            conf = HadoopJobConf(
                name=f"cc-iter{it + 1}",
                mapper=CCMapper(),
                combiner=None,
                reducer=CCReducer(),
                n_reduces=cluster.config.n_slots,
                sort_buffer_bytes=2e6,
            )
            cluster.run_job(conf, path, out)
            # Driver-side convergence check on the (small) label column.
            labels: dict[int, int] = {}
            merged: list[str] = []
            for part in cluster.fs.ls(f"{out}/*"):
                merged.extend(cluster.fs.read_all(part))
            for line in merged:
                node, state, _n = parse_adjacency_line(line)
                labels[node] = int(state)
            cluster.fs.write(
                f"/in/cc/iter{it + 1}",
                merged,
                block_records=max(256, len(merged) // 8),
            )
            path = f"/in/cc/iter{it + 1}"
            if prev_labels == labels:
                break
            prev_labels = labels
