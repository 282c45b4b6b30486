"""Stochastic-Kronecker graph generator (Leskovec et al., JMLR 2010).

The paper synthesises its graph inputs as Kronecker graphs whose
initiator matrices are fitted to SNAP seed graphs so that each synthetic
input keeps the connectivity style of its seed (web graph vs social
network vs road network, …).  We implement the standard *ball dropping*
sampler: each edge independently descends ``scale`` levels of the 2×2
initiator, choosing a quadrant per level with probability proportional
to the initiator entries; the chosen bits assemble the source/target
node ids.

The sampler is fully vectorised: all edges descend all levels in one
``(n_edges, scale)`` categorical draw, and deduplication sorts one
packed ``(src << scale) | dst`` key per edge rather than 2-column rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KroneckerSpec", "generate_kronecker_edges", "degree_statistics"]


@dataclass(frozen=True, slots=True)
class KroneckerSpec:
    """Parameters of one Kronecker graph.

    ``initiator`` is the 2×2 probability seed (need not be normalised;
    it is normalised internally).  ``scale`` gives ``2**scale`` nodes;
    ``edge_factor`` gives ``edge_factor * 2**scale`` sampled edges
    (before deduplication, if requested).
    """

    initiator: tuple[tuple[float, float], tuple[float, float]]
    scale: int
    edge_factor: int = 16
    deduplicate: bool = True
    drop_self_loops: bool = True

    def __post_init__(self) -> None:
        if self.scale <= 0 or self.scale > 30:
            raise ValueError("scale must be in [1, 30]")
        if self.edge_factor <= 0:
            raise ValueError("edge_factor must be positive")
        flat = [v for row in self.initiator for v in row]
        if len(flat) != 4 or any(v < 0 for v in flat) or sum(flat) <= 0:
            raise ValueError("initiator must be a non-negative 2x2 matrix")

    @property
    def n_nodes(self) -> int:
        """Number of nodes, ``2**scale``."""
        return 1 << self.scale

    @property
    def n_edges_sampled(self) -> int:
        """Edges drawn before dedup/self-loop removal."""
        return self.edge_factor * self.n_nodes


def generate_kronecker_edges(spec: KroneckerSpec, seed: int) -> np.ndarray:
    """Sample the edge list of a Kronecker graph.

    Returns
    -------
    numpy.ndarray
        ``(n_edges, 2)`` int64 array of directed ``(src, dst)`` pairs.
    """
    rng = np.random.default_rng(seed)
    probs = np.asarray(spec.initiator, dtype=np.float64).ravel()
    probs = probs / probs.sum()

    n = spec.n_edges_sampled
    # One categorical draw per (edge, level): quadrant in {0,1,2,3}.
    quadrants = rng.choice(4, size=(n, spec.scale), p=probs)
    row_bits = quadrants >> 1  # quadrant index: bit1 = row, bit0 = column
    col_bits = quadrants & 1

    # Assemble node ids: level 0 is the most significant bit.
    weights = (1 << np.arange(spec.scale - 1, -1, -1)).astype(np.int64)
    src = row_bits.astype(np.int64) @ weights
    dst = col_bits.astype(np.int64) @ weights

    edges = np.stack([src, dst], axis=1)
    if spec.drop_self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    if spec.deduplicate:
        # One int64 key per edge (scale <= 30, so 2 * scale bits fit);
        # its sort order is the lexicographic (src, dst) row order.
        keys = np.unique((edges[:, 0] << spec.scale) | edges[:, 1])
        mask = (1 << spec.scale) - 1
        edges = np.stack([keys >> spec.scale, keys & mask], axis=1)
        # unique() sorts; restore a shuffled on-disk order so input
        # partitions are not trivially degree-sorted.
        edges = edges[rng.permutation(len(edges))]
    return edges


def degree_statistics(edges: np.ndarray, n_nodes: int) -> dict[str, float]:
    """Summary statistics of the out-degree distribution.

    Used by tests and by the input catalog to check that different
    initiators yield genuinely different topologies.
    """
    deg = np.bincount(edges[:, 0], minlength=n_nodes)
    nonzero = deg[deg > 0]
    mean = float(deg.mean())
    return {
        "n_edges": float(len(edges)),
        "mean_degree": mean,
        "max_degree": float(deg.max(initial=0)),
        "degree_cov": float(deg.std() / mean) if mean > 0 else 0.0,
        "isolated_fraction": float(np.mean(deg == 0)),
        "gini": _gini(nonzero) if len(nonzero) else 0.0,
    }


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (degree inequality)."""
    v = np.sort(values.astype(np.float64))
    n = len(v)
    if n == 0 or v.sum() == 0:
        return 0.0
    cum = np.cumsum(v)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)
