"""Simulated HDFS: a block-structured in-memory distributed filesystem."""

from repro.hdfs.filesystem import (
    HDFSFile,
    SimulatedHDFS,
    estimate_block_bytes,
    estimate_record_bytes,
)

__all__ = [
    "HDFSFile",
    "SimulatedHDFS",
    "estimate_block_bytes",
    "estimate_record_bytes",
]
