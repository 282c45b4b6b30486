"""PageRank.

Spark: GraphX-style supersteps over the directed edge partitions —
every iteration each vertex sends ``rank / out_degree`` along its out
edges (``aggregateMessages``), contributions are summed per destination
(``aggregateUsingIndex``), and ranks update as ``0.15 + 0.85 * sum``.
All vertices stay active, but the rank *values* keep moving, which is
what differentiates rank_sp's phase behaviour from cc_sp's shrinking
frontier.

Hadoop: the classic adjacency-list iteration (one MapReduce job per
superstep, state carried through HDFS text files).
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
)
from repro.workloads.graphx import GraphXGraph, pregel_step

if TYPE_CHECKING:
    from repro.hadoop.runtime import HadoopCluster
    from repro.spark.context import SparkContext

__all__ = ["PageRank", "PageRankMapper", "PageRankReducer"]

ITERATIONS = 10
HADOOP_ITERATIONS = 6
DAMPING = 0.85


class PageRankMapper(Mapper):
    """Distributes the vertex rank over its out-neighbors."""

    frames = (
        ("org.apache.hadoop.mapreduce.Mapper", "run"),
        ("pegasus.PageRankNaive$MapStage1", "map"),
    )
    inst_per_record = 230_000.0

    def map(self, key: Any, value: str, context: Context) -> None:
        node, state, neighbors = parse_adjacency_line(value)
        context.write(node, f"S\t{state}\t{','.join(map(str, neighbors))}")
        if neighbors:
            share = float(state) / len(neighbors)
            for nbr in neighbors:
                context.write(nbr, share)


class PageRankReducer(Reducer):
    """Sums contributions and applies the damping update."""

    frames = (
        ("org.apache.hadoop.mapreduce.Reducer", "run"),
        ("pegasus.PageRankNaive$RedStage1", "reduce"),
    )
    inst_per_record = 140_000.0

    def reduce(self, key: Any, values: Any, context: Context) -> None:
        neighbors = ""
        seen_state = False
        total = 0.0
        for v in values:
            if isinstance(v, str) and v.startswith("S\t"):
                _tag, _state, neighbors = v.split("\t", 2)
                seen_state = True
            else:
                total += float(v)
        if not seen_state:
            return
        new_rank = (1.0 - DAMPING) + DAMPING * total
        context.write(key, f"{new_rank:.6f}\t{neighbors}")


class PageRank(Workload):
    """Iterative PageRank over a Kronecker graph."""

    name = "rank"
    abbrev = "rank"
    workload_type = "Graph Analytics"
    paper_input = "2^24 nodes"
    is_graph = True
    spark_inst_scale = 2.0
    hadoop_inst_scale = 4.0

    def prepare_input(self, fs: Any, inp: WorkloadInput) -> dict[str, Any]:
        graph, edges, n = resolve_graph(inp, scale_delta=SPARK_SCALE_DELTA)
        _g, h_edges, h_n = resolve_graph(inp, scale_delta=HADOOP_SCALE_DELTA)
        lines = adjacency_lines(h_edges, h_n, "1.0")
        fs.write("/in/rank/iter0", lines, block_records=max(256, h_n // 8))
        return {
            "graph": graph.name,
            "edges": edges,
            "n_vertices": n,
            "hadoop_path": "/in/rank/iter0",
            "hadoop_n_vertices": h_n,
        }

    # -- Spark ----------------------------------------------------------------

    def run_spark(self, ctx: SparkContext, meta: dict[str, Any]) -> None:
        n = meta["n_vertices"]
        graph = GraphXGraph(ctx, meta["edges"], n)
        ranks = np.ones(n, dtype=np.float64)
        active = np.ones(n, dtype=bool)
        outdeg = np.maximum(graph.out_degree, 1.0)
        for _it in range(ITERATIONS):
            sums, _received = pregel_step(
                graph,
                ranks,
                active,
                gather=lambda src, vals: vals / outdeg[src],
                reduce_ufunc=np.add,
                reduce_identity=0.0,
                frames_tag="PageRank",
            )
            ranks = (1.0 - DAMPING) + DAMPING * sums
        records = [(int(v), float(f"{r:.6f}")) for v, r in enumerate(ranks)]
        (
            ctx.parallelize(records)
            .map_values(lambda r: r, inst_per_record=30_000.0)
            .save_as_text_file("/out/rank")
        )

    # -- Hadoop ---------------------------------------------------------------

    def run_hadoop(self, cluster: HadoopCluster, meta: dict[str, Any]) -> None:
        path = meta["hadoop_path"]
        for it in range(HADOOP_ITERATIONS):
            out = f"/out/rank/iter{it + 1}"
            conf = HadoopJobConf(
                name=f"rank-iter{it + 1}",
                mapper=PageRankMapper(),
                combiner=None,
                reducer=PageRankReducer(),
                n_reduces=cluster.config.n_slots,
                sort_buffer_bytes=2e6,
            )
            cluster.run_job(conf, path, out)
            merged: list[str] = []
            for part in cluster.fs.ls(f"{out}/*"):
                merged.extend(cluster.fs.read_all(part))
            cluster.fs.write(
                f"/in/rank/iter{it + 1}",
                merged,
                block_records=max(256, len(merged) // 8),
            )
            path = f"/in/rank/iter{it + 1}"
