"""Hadoop-like MapReduce simulator.

Models the classic MapReduce execution pipeline at the fidelity the
paper's analysis needs: record-at-a-time mappers feeding a sort buffer,
sort-and-spill with an instrumented quicksort, an optional combiner
(map-side reduce), compressed spill output, a fetch/merge shuffle, and
record-at-a-time reducers writing to HDFS.

Unlike Spark, executor threads are short-lived — one per task — so the
runtime merges the traces of tasks that ran on the same core into one
long pseudo-thread, exactly as the paper's profiler does (Section III-A).
The paper's Hadoop tuning (bigger sort buffers, compressed map output)
is the default configuration here as well.
"""

import importlib
from typing import TYPE_CHECKING

#: Public names and the modules that define them.  They load on first
#: access (PEP 562), so importing one submodule does not load the rest.
_EXPORTS = {
    "Context": "repro.hadoop.api",
    "HadoopCluster": "repro.hadoop.runtime",
    "HadoopJobConf": "repro.hadoop.job",
    "Mapper": "repro.hadoop.api",
    "Reducer": "repro.hadoop.api",
}

if TYPE_CHECKING:  # also the import edges that code fingerprints follow
    from repro.hadoop.api import Context, Mapper, Reducer
    from repro.hadoop.job import HadoopJobConf
    from repro.hadoop.runtime import HadoopCluster

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
