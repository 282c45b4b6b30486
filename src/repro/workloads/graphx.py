"""GraphX-style graph processing on the Spark simulator.

Models how GraphX executes vertex programs: edges live in partitioned
``EdgePartition`` chunks (NumPy arrays); each Pregel superstep runs

1. ``aggregateMessages`` — an edge scan over the *active* edge set that
   gathers source-vertex attributes and emits per-destination messages
   (one Spark job stage; message volume decays with the frontier),
2. a shuffle grouping message chunks by destination vertex partition,
3. ``aggregateUsingIndex`` — the reduce that combines messages per
   vertex (the paper's canonical high-CPI-variance, input-sensitive
   phase in cc_sp), and
4. ``innerJoin`` — applying the aggregated values to the vertex state
   and computing the new frontier.

The numerical work is genuine (NumPy gathers/scatters over real
Kronecker edges), so message volume, frontier decay, and the
working-set sizes that drive CPI all depend on the input topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.hdfs.filesystem import estimate_record_bytes
from repro.jvm.machine import AccessPattern, OpKind
from repro.spark.ops import CustomOp

if TYPE_CHECKING:
    from repro.spark.context import SparkContext
    from repro.spark.rdd import RDD

__all__ = ["EdgeChunk", "GraphXGraph", "pregel_step"]

CHUNK_EDGES = 8192
# Heap bytes per vertex attribute entry (boxed value + index slot).
VERTEX_ENTRY_BYTES = 48


@dataclass(frozen=True)
class EdgeChunk:
    """A contiguous chunk of one edge partition."""

    src: np.ndarray
    dst: np.ndarray

    @property
    def n_edges(self) -> int:
        """Edges in the chunk."""
        return len(self.src)


def _chunk_edges(edges: np.ndarray, n_partitions: int) -> list[list[EdgeChunk]]:
    """Partition edges by ``src % n_partitions`` and chop into chunks."""
    part = edges[:, 0] % n_partitions
    out: list[list[EdgeChunk]] = []
    for p in range(n_partitions):
        sub = edges[part == p]
        chunks = [
            EdgeChunk(
                src=np.ascontiguousarray(sub[i : i + CHUNK_EDGES, 0]),
                dst=np.ascontiguousarray(sub[i : i + CHUNK_EDGES, 1]),
            )
            for i in range(0, len(sub), CHUNK_EDGES)
        ]
        out.append(chunks or [EdgeChunk(np.empty(0, np.int64), np.empty(0, np.int64))])
    return out


class GraphXGraph:
    """Driver-side handle on a partitioned graph.

    Vertex attributes are held as dense NumPy arrays on the driver (the
    simulator's stand-in for GraphX's co-partitioned ``VertexRDD``);
    edges are an RDD of ``(partition_id, EdgeChunk)`` records.
    """

    def __init__(
        self,
        ctx: SparkContext,
        edges: np.ndarray,
        n_vertices: int,
        n_partitions: int | None = None,
        *,
        load_inst_per_edge: float = 30_000.0,
    ) -> None:
        self.ctx = ctx
        self.n_vertices = n_vertices
        self.n_partitions = n_partitions or ctx.config.default_parallelism
        self._chunked = _chunk_edges(edges, self.n_partitions)
        self.out_degree = np.bincount(edges[:, 0], minlength=n_vertices).astype(
            np.float64
        )

        # Flat record list: (pid, chunk); partition assignment is by pid.
        records = [
            (p, chunk) for p, chunks in enumerate(self._chunked) for chunk in chunks
        ]
        base = ctx.parallelize(records, self.n_partitions)
        # The Figure 11 "phase 1" operation: sequential conversion of
        # the input into GraphX's internal edge representation.
        self.edges: RDD = base.custom_op(
            CustomOp(
                name="mapPartitionsWithIndex",
                frames=(
                    ("org.apache.spark.rdd.RDD", "mapPartitionsWithIndex"),
                    ("org.apache.spark.graphx.impl.EdgePartitionBuilder", "add"),
                    ("org.apache.spark.graphx.GraphLoader$$anonfun$1", "apply"),
                ),
                op_kind=OpKind.MAP,
                batch_fn=lambda batch, _state: batch,
                inst_fn=lambda batch: sum(
                    c.n_edges for _p, c in batch
                ) * load_inst_per_edge,
                access_fn=lambda batch, _state: AccessPattern.sequential(
                    max(1.0, sum(estimate_record_bytes(c.src) * 2 for _p, c in batch))
                ),
            )
        )


def pregel_step(
    graph: GraphXGraph,
    values: np.ndarray,
    active: np.ndarray,
    *,
    gather: Callable[[np.ndarray, np.ndarray], np.ndarray],
    reduce_ufunc: Any,
    reduce_identity: float,
    frames_tag: str,
    gather_inst_per_edge: float = 60_000.0,
    aggregate_inst_per_msg: float = 45_000.0,
    join_inst_per_vertex: float = 55_000.0,
    ship_inst_per_vertex: float = 40_000.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one superstep; returns ``(aggregated, received_mask)``.

    ``gather(src_ids, src_values) -> messages`` computes one message per
    active edge; ``reduce_ufunc`` (e.g. ``np.minimum``/``np.add``)
    combines messages per destination.  ``aggregated`` has
    ``reduce_identity`` where a vertex received nothing.

    As in GraphX, a superstep spans several Spark jobs: the
    aggregate-messages job (edge scan → shuffle → aggregateUsingIndex),
    the vertex-update job (``innerJoin``), and the replication job
    (``shipVertexAttributes``) that sends updated attributes back to
    the edge partitions.
    """
    ctx = graph.ctx
    n_parts = graph.n_partitions
    vertex_bytes = graph.n_vertices * VERTEX_ENTRY_BYTES / n_parts

    def aggregate_messages(
        batch: list[tuple[int, EdgeChunk]], _state: Any
    ) -> list[tuple[int, tuple[np.ndarray, np.ndarray]]]:
        out = []
        for _pid, chunk in batch:
            if chunk.n_edges == 0:
                continue
            mask = active[chunk.src]
            if not mask.any():
                continue
            src = chunk.src[mask]
            dst = chunk.dst[mask]
            msgs = gather(src, values[src])
            dst_pid = dst % n_parts
            for p in np.unique(dst_pid):
                sel = dst_pid == p
                out.append((int(p), (dst[sel], msgs[sel])))
        return out

    def gather_access(batch: list[Any], _state: Any) -> AccessPattern:
        # Gathering src attributes touches the resident vertex span of
        # the *distinct* sources in the chunk: skewed graphs concentrate
        # on hubs (small span), flat graphs touch everything.
        spans = 0.0
        for _pid, chunk in batch:
            if chunk.n_edges:
                act = chunk.src[active[chunk.src]]
                if len(act):
                    spans += len(np.unique(act)) * VERTEX_ENTRY_BYTES
        return AccessPattern.random(max(1.0, spans))

    def gather_inst(batch: list[Any]) -> float:
        total = sum(
            int(active[c.src].sum()) for _p, c in batch if c.n_edges
        )
        scan = sum(c.n_edges for _p, c in batch)
        return total * gather_inst_per_edge + scan * 2_000.0

    msgs = graph.edges.custom_op(
        CustomOp(
            name="aggregateMessages",
            frames=(
                ("org.apache.spark.graphx.impl.GraphImpl", "aggregateMessages"),
                (
                    "org.apache.spark.graphx.impl.EdgePartition",
                    "aggregateMessagesEdgeScan",
                ),
                (f"org.apache.spark.graphx.lib.{frames_tag}$$anonfun$sendMessage", "apply"),
            ),
            op_kind=OpKind.MAP,
            batch_fn=aggregate_messages,
            inst_fn=gather_inst,
            access_fn=gather_access,
        )
    )
    grouped = msgs.group_by_key(n_parts)

    def aggregate_using_index(
        batch: list[tuple[int, list[tuple[np.ndarray, np.ndarray]]]], _state: Any
    ) -> list[tuple[int, tuple[np.ndarray, np.ndarray]]]:
        out = []
        for pid, chunks in batch:
            agg = np.full(graph.n_vertices, reduce_identity, dtype=np.float64)
            hit = np.zeros(graph.n_vertices, dtype=bool)
            for dst, vals in chunks:
                reduce_ufunc.at(agg, dst, vals)
                hit[dst] = True
            ids = np.nonzero(hit)[0]
            out.append((pid, (ids, agg[ids])))
        return out

    def aggregate_inst(batch: list[Any]) -> float:
        n_msgs = sum(len(d) for _pid, chunks in batch for d, _v in chunks)
        return n_msgs * aggregate_inst_per_msg

    def aggregate_access(batch: list[Any], _state: Any) -> AccessPattern:
        # Scattering into the per-partition vertex index: working set is
        # the local index plus the incoming message buffers.
        msg_bytes = sum(
            d.nbytes + v.nbytes for _pid, chunks in batch for d, v in chunks
        )
        return AccessPattern.random(max(1.0, vertex_bytes + msg_bytes))

    updates = grouped.custom_op(
        CustomOp(
            name="aggregateUsingIndex",
            frames=(
                ("org.apache.spark.graphx.impl.VertexRDDImpl", "aggregateUsingIndex"),
                (
                    "org.apache.spark.graphx.impl.ShippableVertexPartition",
                    "aggregateUsingIndex",
                ),
            ),
            op_kind=OpKind.REDUCE,
            batch_fn=aggregate_using_index,
            inst_fn=aggregate_inst,
            access_fn=aggregate_access,
        )
    )

    # Job 1: aggregate-messages job ends here; collect the aggregated
    # per-partition updates on the driver.
    update_chunks = updates.collect()

    # Job 2: innerJoin — apply the aggregated values to the vertex state.
    def inner_join(
        batch: list[tuple[int, tuple[np.ndarray, np.ndarray]]], _state: Any
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        return [pair for _pid, pair in batch]

    joined_chunks = (
        ctx.parallelize(update_chunks, n_parts)
        .custom_op(
            CustomOp(
                name="innerJoin",
                frames=(
                    ("org.apache.spark.graphx.impl.VertexRDDImpl", "innerJoin"),
                    (
                        "org.apache.spark.graphx.impl.VertexPartitionBaseOps",
                        "innerJoin",
                    ),
                ),
                op_kind=OpKind.REDUCE,
                batch_fn=inner_join,
                inst_fn=lambda batch: sum(
                    len(pair[0]) for _pid, pair in batch
                ) * join_inst_per_vertex,
                access_fn=lambda batch, _state: AccessPattern.random(
                    max(1.0, vertex_bytes)
                ),
            )
        )
        .collect()
    )

    aggregated = np.full(graph.n_vertices, reduce_identity, dtype=np.float64)
    received = np.zeros(graph.n_vertices, dtype=bool)
    for ids, vals in joined_chunks:
        reduce_ufunc.at(aggregated, ids, vals)
        received[ids] = True

    # Job 3: shipVertexAttributes — replicate the updated attributes to
    # the edge partitions for the next superstep.
    updated_ids = np.nonzero(received)[0]
    if len(updated_ids):
        ship_records = [
            (p, updated_ids[updated_ids % n_parts == p]) for p in range(n_parts)
        ]
        (
            ctx.parallelize(ship_records, n_parts)
            .custom_op(
                CustomOp(
                    name="shipVertexAttributes",
                    frames=(
                        (
                            "org.apache.spark.graphx.impl.RoutingTablePartition",
                            "foreachWithinEdgePartition",
                        ),
                        (
                            "org.apache.spark.graphx.impl.ShippableVertexPartition",
                            "shipVertexAttributes",
                        ),
                    ),
                    op_kind=OpKind.SHUFFLE,
                    batch_fn=lambda batch, _state: batch,
                    inst_fn=lambda batch: sum(
                        len(ids) for _p, ids in batch
                    ) * ship_inst_per_vertex,
                    access_fn=lambda batch, _state: AccessPattern.sequential(
                        max(
                            1.0,
                            sum(len(ids) for _p, ids in batch)
                            * VERTEX_ENTRY_BYTES,
                        )
                    ),
                )
            )
            .count()
        )
    return aggregated, received
