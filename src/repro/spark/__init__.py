"""Spark-like framework simulator.

A faithful-in-structure miniature of Apache Spark's execution model:
RDDs with lazy lineage, stages cut at shuffle dependencies, tasks per
partition scheduled in waves onto long-lived executor threads, hash and
range partitioners, and the map-side-combine path through an
``Aggregator`` (the mechanism behind the paper's Figure 14 observation
that WordCount's reduce work actually happens in stage 1).

Executors really compute on the data while emitting hardware trace
segments through :mod:`repro.jvm`.
"""

import importlib
from typing import TYPE_CHECKING

#: Public names and the modules that define them.  They load on first
#: access (PEP 562), so importing one submodule does not load the rest.
_EXPORTS = {
    "CustomOp": "repro.spark.ops",
    "Operation": "repro.spark.ops",
    "RDD": "repro.spark.rdd",
    "SparkConfig": "repro.spark.context",
    "SparkContext": "repro.spark.context",
}

if TYPE_CHECKING:  # also the import edges that code fingerprints follow
    from repro.spark.context import SparkConfig, SparkContext
    from repro.spark.ops import CustomOp, Operation
    from repro.spark.rdd import RDD

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
