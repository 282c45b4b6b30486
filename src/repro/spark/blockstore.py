"""The block store backing ``RDD.cache()``.

A miniature of Spark's BlockManager memory store: cached partitions
live in a dict keyed by ``(rdd_id, split)`` with byte accounting.  The
executor tees records into it while a pipeline streams past a cached
RDD and reads them back (as cheap memory scans) on later jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.hdfs.filesystem import estimate_block_bytes

__all__ = ["BlockStore"]


@dataclass
class BlockStore:
    """In-memory cached-partition storage."""

    _blocks: dict[tuple[int, int], tuple[list[Any], int]] = field(
        default_factory=dict
    )
    bytes_cached: int = 0
    hits: int = 0
    misses: int = 0

    def has(self, rdd_id: int, split: int) -> bool:
        """Whether a partition is cached (counts a hit/miss probe)."""
        present = (rdd_id, split) in self._blocks
        if present:
            self.hits += 1
        else:
            self.misses += 1
        return present

    def put(self, rdd_id: int, split: int, records: list[Any]) -> int:
        """Cache one partition; returns its estimated byte size."""
        nbytes = estimate_block_bytes(records)
        key = (rdd_id, split)
        if key in self._blocks:
            self.bytes_cached -= self._blocks[key][1]
        self._blocks[key] = (list(records), nbytes)
        self.bytes_cached += nbytes
        return nbytes

    def get(self, rdd_id: int, split: int) -> tuple[list[Any], int]:
        """Read one cached partition: ``(records, estimated_bytes)``."""
        return self._blocks[(rdd_id, split)]

    def evict_rdd(self, rdd_id: int) -> None:
        """Drop every cached partition of one RDD."""
        for key in [k for k in self._blocks if k[0] == rdd_id]:
            self.bytes_cached -= self._blocks[key][1]
            del self._blocks[key]

    @property
    def n_blocks(self) -> int:
        """Number of cached partitions."""
        return len(self._blocks)
