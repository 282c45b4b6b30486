"""Shuffle machinery: partitioners, the Aggregator, and block storage.

Mirrors Spark's hash-shuffle data plane: map tasks write one bucket per
reduce partition; reduce tasks fetch every map's bucket for their
partition.  The :class:`Aggregator` carries the three combine functions
of ``combineByKey`` and is applied on the map side (map-side combine —
the paper's Figure 14 effect) and/or the reduce side.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.hdfs.filesystem import estimate_block_bytes

__all__ = [
    "stable_hash",
    "HashPartitioner",
    "RangePartitioner",
    "Aggregator",
    "ShuffleManager",
]


def stable_hash(key: Any) -> int:
    """Deterministic, process-independent hash for shuffle routing.

    Python's ``hash`` for ``str`` is salted per process; shuffle routing
    must be reproducible across runs, so strings/bytes go through CRC32
    and other values through their ``repr``.
    """
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, bytes):
        return zlib.crc32(key)
    if isinstance(key, tuple):
        h = 0x811C9DC5
        for item in key:
            h = ((h * 0x01000193) ^ stable_hash(item)) & 0x7FFFFFFF
        return h
    return zlib.crc32(repr(key).encode("utf-8"))


@dataclass(frozen=True, slots=True)
class HashPartitioner:
    """Routes a key to ``stable_hash(key) % num_partitions``."""

    num_partitions: int

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ValueError("num_partitions must be positive")

    def partition(self, key: Any) -> int:
        """Reduce-partition index for ``key``."""
        return stable_hash(key) % self.num_partitions


@dataclass(frozen=True, slots=True)
class RangePartitioner:
    """Routes keys into sorted ranges (Spark's ``sortByKey`` partitioner).

    ``bounds`` are the ``num_partitions - 1`` split points, ascending;
    keys ≤ ``bounds[i]`` (and above earlier bounds) go to partition i.
    """

    bounds: tuple[Any, ...]

    @property
    def num_partitions(self) -> int:
        """Number of output ranges."""
        return len(self.bounds) + 1

    def partition(self, key: Any) -> int:
        """Range index for ``key`` via binary search."""
        return bisect_left(self.bounds, key)

    @staticmethod
    def from_sample(sample: Iterable[Any], num_partitions: int) -> "RangePartitioner":
        """Fit bounds from a key sample, like Spark's sampling pass."""
        keys = sorted(sample)
        if num_partitions <= 1 or not keys:
            return RangePartitioner(bounds=())
        step = len(keys) / num_partitions
        bounds = []
        for i in range(1, num_partitions):
            bounds.append(keys[min(len(keys) - 1, int(i * step))])
        # Deduplicate while preserving order (heavily skewed samples can
        # repeat a bound, which would create empty ranges).
        uniq: list[Any] = []
        for b in bounds:
            if not uniq or b > uniq[-1]:
                uniq.append(b)
        return RangePartitioner(bounds=tuple(uniq))


@dataclass(frozen=True, slots=True)
class Aggregator:
    """The three combine functions of ``combineByKey``."""

    create_combiner: Callable[[Any], Any]
    merge_value: Callable[[Any, Any], Any]
    merge_combiners: Callable[[Any, Any], Any]

    @staticmethod
    def from_reduce(fn: Callable[[Any, Any], Any]) -> "Aggregator":
        """Aggregator equivalent of ``reduceByKey(fn)``."""
        return Aggregator(
            create_combiner=lambda v: v,
            merge_value=fn,
            merge_combiners=fn,
        )

    @staticmethod
    def group() -> "Aggregator":
        """Aggregator equivalent of ``groupByKey()``."""

        def create(v: Any) -> list[Any]:
            return [v]

        def merge_value(c: list[Any], v: Any) -> list[Any]:
            c.append(v)
            return c

        def merge_combiners(a: list[Any], b: list[Any]) -> list[Any]:
            a.extend(b)
            return a

        return Aggregator(create, merge_value, merge_combiners)


@dataclass
class ShuffleManager:
    """In-memory shuffle block store.

    Keyed by ``(shuffle_id, map_task, reduce_partition)``; values are
    ``(records, estimated_bytes)``.  Fetches return one block per map
    task so the reduce side prices each network/disk read separately.
    """

    _blocks: dict[tuple[int, int, int], tuple[list[Any], int]] = field(
        default_factory=dict
    )
    bytes_written: int = 0
    bytes_fetched: int = 0

    def write_block(
        self, shuffle_id: int, map_task: int, reduce_part: int, records: list[Any]
    ) -> int:
        """Store one map-output bucket; returns its estimated bytes."""
        nbytes = estimate_block_bytes(records)
        self._blocks[(shuffle_id, map_task, reduce_part)] = (records, nbytes)
        self.bytes_written += nbytes
        return nbytes

    def fetch(
        self, shuffle_id: int, reduce_part: int
    ) -> list[tuple[list[Any], int]]:
        """All map buckets for one reduce partition, in map-task order."""
        out = []
        for (sid, mtask, rpart), (records, nbytes) in sorted(self._blocks.items()):
            if sid == shuffle_id and rpart == reduce_part:
                out.append((records, nbytes))
                self.bytes_fetched += nbytes
        return out

    def map_tasks_for(self, shuffle_id: int) -> set[int]:
        """Map-task ids that wrote output for a shuffle."""
        return {m for (sid, m, _r) in self._blocks if sid == shuffle_id}
