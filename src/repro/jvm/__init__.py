"""Simulated JVM substrate.

The real SimProf attaches to a JVM through JVMTI (call-stack snapshots)
and to the kernel through ``perf_event`` (hardware counters).  Offline we
reproduce that bridge with a simulated JVM:

* :mod:`repro.jvm.methods` — method registry, frames and call stacks,
  interned to integer ids so feature vectorisation is array work.
* :mod:`repro.jvm.threads` — executor threads emit *trace segments*
  (call stack + instructions + cycles + cache misses) as the framework
  simulators execute real computation.
* :mod:`repro.jvm.machine` — the analytic hardware model that converts
  operation descriptors into counter values (base CPI + miss penalties
  from a working-set cache model, LLC sharing, OS-migration cold starts).
* :mod:`repro.jvm.jvmti` / :mod:`repro.jvm.perf` — the JVMTI-like
  snapshot interface and the perf_event-like counter reader that
  SimProf's thread profiler consumes; they see only what the real
  interfaces would expose (stacks at sampled instants, counters per
  window), never the underlying segments.
* :mod:`repro.jvm.segments` / :mod:`repro.jvm.stream` /
  :mod:`repro.jvm.shm` — the columnar trace plane: the packed
  ``SEGMENT_DTYPE`` wire format, the incremental event stream that
  moves batches by reference, and the shared-memory transport that
  keeps batches zero-copy across a process boundary.
"""

import importlib

from repro.jvm.methods import CallStack, MethodRef, MethodRegistry, StackTable
from repro.jvm.machine import (
    AccessPattern,
    HardwareModel,
    MachineConfig,
    OpKind,
)
from repro.jvm.threads import ThreadTrace, TraceBuilder, TraceSegment
from repro.jvm.jvmti import StackSnapshot, StackSnapshotter
from repro.jvm.perf import CounterWindow, PerfCounterReader
from repro.jvm.job import JobTrace, StageInfo
from repro.jvm.segments import SEGMENT_DTYPE, segment_checksum
from repro.jvm.stream import (
    JobEnd,
    SegmentBatch,
    StageEvent,
    StreamClosed,
    ThreadStart,
    TraceStream,
    pump_events,
    trace_to_stream,
)

# The shared-memory transport loads on first use: most callers never
# cross a process boundary with a stream.
_LAZY = {"recv_stream": "repro.jvm.shm", "send_stream": "repro.jvm.shm"}

__all__ = [
    "AccessPattern",
    "CallStack",
    "CounterWindow",
    "HardwareModel",
    "JobEnd",
    "JobTrace",
    "MachineConfig",
    "MethodRef",
    "MethodRegistry",
    "OpKind",
    "PerfCounterReader",
    "SEGMENT_DTYPE",
    "SegmentBatch",
    "StackSnapshot",
    "StackSnapshotter",
    "StackTable",
    "StageEvent",
    "StageInfo",
    "StreamClosed",
    "ThreadStart",
    "ThreadTrace",
    "TraceBuilder",
    "TraceSegment",
    "TraceStream",
    "pump_events",
    "recv_stream",
    "segment_checksum",
    "send_stream",
    "trace_to_stream",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.jvm' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
