"""Block-structured simulated HDFS.

Both framework simulators read their inputs from and write their outputs
to this filesystem.  Files are split into fixed-size blocks (sized in
records, with byte sizes estimated per record) so that

* input splits / partitions fall out of the block structure the same way
  they do on real HDFS, and
* read/write volumes are available to the executors, which price the
  corresponding IO trace segments.

The store is in-memory and deterministic; replication is tracked as
metadata only (a single simulated node holds every replica).
"""

from __future__ import annotations

import fnmatch
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "estimate_block_bytes",
    "estimate_record_bytes",
    "HDFSFile",
    "SimulatedHDFS",
]

DEFAULT_BLOCK_RECORDS = 8192


def estimate_record_bytes(record: Any) -> int:
    """Rough on-disk size of one record, in bytes.

    Strings cost their length plus newline; tuples/lists cost the sum of
    their fields plus separators; numbers cost 8; NumPy arrays cost their
    buffer.  The goal is a stable, monotone estimate for IO pricing, not
    exact serialisation.
    """
    # Exact-type fast path for (key, value) pairs of plain strings and
    # numbers, the commonest shuffled and written record.  Subclasses
    # (bool) and NumPy scalars take the isinstance chain below, to the
    # same sizes.
    if type(record) is tuple and len(record) == 2:
        a, b = record
        ta, tb = type(a), type(b)
        if (ta is str or ta is int or ta is float) and (
            tb is str or tb is int or tb is float
        ):
            return (
                (len(a) + 1 if ta is str else 8)
                + (len(b) + 1 if tb is str else 8)
                + 2
            )
    if isinstance(record, str):
        return len(record) + 1
    if isinstance(record, bytes):
        return len(record) + 1
    if isinstance(record, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(record, np.ndarray):
        return int(record.nbytes)
    if isinstance(record, (tuple, list)):
        return sum(map(estimate_record_bytes, record)) + len(record)
    if isinstance(record, dict):
        return sum(
            estimate_record_bytes(k) + estimate_record_bytes(v)
            for k, v in record.items()
        )
    return max(8, sys.getsizeof(record) // 4)


def estimate_block_bytes(records: Sequence[Any]) -> int:
    """Estimated size of a block: the sum of its records' sizes."""
    return sum(map(estimate_record_bytes, records))


@dataclass
class HDFSFile:
    """One file: an ordered list of record blocks plus size metadata."""

    path: str
    blocks: list[list[Any]] = field(default_factory=list)
    block_bytes: list[int] = field(default_factory=list)
    replication: int = 3

    @property
    def n_blocks(self) -> int:
        """Number of blocks (== number of input splits)."""
        return len(self.blocks)

    @property
    def n_records(self) -> int:
        """Total records across blocks."""
        return sum(len(b) for b in self.blocks)

    @property
    def total_bytes(self) -> int:
        """Estimated file size in bytes (one replica)."""
        return sum(self.block_bytes)

    def iter_records(self) -> Iterator[Any]:
        """All records of the file in order."""
        for block in self.blocks:
            yield from block


class SimulatedHDFS:
    """The simulated distributed filesystem.

    A write chops the record stream into blocks of ``block_records``
    records; a read hands back ``(records, bytes)`` per block so the
    caller can price IO.  Paths are flat strings; ``ls`` supports glob
    patterns.
    """

    def __init__(self, block_records: int = DEFAULT_BLOCK_RECORDS) -> None:
        if block_records <= 0:
            raise ValueError("block_records must be positive")
        self.block_records = block_records
        self._files: dict[str, HDFSFile] = {}
        self.bytes_read: int = 0
        self.bytes_written: int = 0

    # -- namespace ---------------------------------------------------------

    def exists(self, path: str) -> bool:
        """Whether ``path`` names a file."""
        return path in self._files

    def ls(self, pattern: str = "*") -> list[str]:
        """Paths matching a glob ``pattern``, sorted."""
        return sorted(p for p in self._files if fnmatch.fnmatch(p, pattern))

    def delete(self, path: str) -> None:
        """Remove a file (missing paths are ignored, like ``-f``)."""
        self._files.pop(path, None)

    def stat(self, path: str) -> HDFSFile:
        """File metadata; raises ``FileNotFoundError`` if absent."""
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    # -- data --------------------------------------------------------------

    def write(
        self,
        path: str,
        records: Iterable[Any],
        *,
        block_records: int | None = None,
        replication: int = 3,
    ) -> HDFSFile:
        """Create/overwrite ``path`` with ``records``.

        Returns the resulting :class:`HDFSFile`.  Record byte sizes are
        estimated as the stream is chopped into blocks.
        """
        size = block_records or self.block_records
        f = HDFSFile(path=path, replication=replication)
        it = iter(records)
        while block := list(islice(it, size)):
            f.blocks.append(block)
            f.block_bytes.append(estimate_block_bytes(block))
        self._files[path] = f
        self.bytes_written += f.total_bytes
        return f

    def write_blocks(
        self, path: str, blocks: Sequence[list[Any]], replication: int = 3
    ) -> HDFSFile:
        """Create ``path`` from pre-chopped blocks (keeps split layout)."""
        f = HDFSFile(path=path, replication=replication)
        for block in blocks:
            block = list(block)
            f.blocks.append(block)
            f.block_bytes.append(estimate_block_bytes(block))
        self._files[path] = f
        self.bytes_written += f.total_bytes
        return f

    def read_block(self, path: str, index: int) -> tuple[list[Any], int]:
        """Read one block: ``(records, estimated_bytes)``."""
        f = self.stat(path)
        if not 0 <= index < f.n_blocks:
            raise IndexError(f"{path} has {f.n_blocks} blocks, not {index}")
        self.bytes_read += f.block_bytes[index]
        return f.blocks[index], f.block_bytes[index]

    def read_all(self, path: str) -> list[Any]:
        """All records of a file (accounting the full read volume)."""
        f = self.stat(path)
        self.bytes_read += f.total_bytes
        return list(f.iter_records())

    def append_block(self, path: str, records: list[Any]) -> int:
        """Append one block to an existing (or new) file.

        Returns the estimated byte size of the appended block.
        """
        f = self._files.get(path)
        if f is None:
            f = HDFSFile(path=path)
            self._files[path] = f
        nbytes = estimate_block_bytes(records)
        f.blocks.append(list(records))
        f.block_bytes.append(nbytes)
        self.bytes_written += nbytes
        return nbytes
