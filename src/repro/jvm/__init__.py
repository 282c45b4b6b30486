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
* :mod:`repro.jvm.perf` — the perf_event-like counter reader
  (counter totals over any instruction window, which systematic
  sampling prices its samples with) and the counter-glitch fault model.
* :mod:`repro.jvm.segments` / :mod:`repro.jvm.stream` — the columnar
  trace plane: the packed ``SEGMENT_DTYPE`` batch format and the
  in-process event stream that moves batches by reference from the
  running workload to its consumer, as SimProf's agent reads stacks
  and counters from inside the profiled JVM.
"""

import importlib
from typing import TYPE_CHECKING

#: Public names and the modules that define them.  They load on first
#: access (PEP 562), so importing one submodule does not load the rest.
_EXPORTS = {
    "AccessPattern": "repro.jvm.machine",
    "CallStack": "repro.jvm.methods",
    "CounterWindow": "repro.jvm.perf",
    "HardwareModel": "repro.jvm.machine",
    "JobEnd": "repro.jvm.stream",
    "JobTrace": "repro.jvm.job",
    "MachineConfig": "repro.jvm.machine",
    "MethodRef": "repro.jvm.methods",
    "MethodRegistry": "repro.jvm.methods",
    "OpKind": "repro.jvm.machine",
    "PerfCounterReader": "repro.jvm.perf",
    "SEGMENT_DTYPE": "repro.jvm.segments",
    "SegmentBatch": "repro.jvm.stream",
    "StackTable": "repro.jvm.methods",
    "StageEvent": "repro.jvm.stream",
    "StageInfo": "repro.jvm.job",
    "StreamClosed": "repro.jvm.stream",
    "ThreadStart": "repro.jvm.stream",
    "ThreadTrace": "repro.jvm.threads",
    "TraceBuilder": "repro.jvm.threads",
    "TraceSegment": "repro.jvm.threads",
    "TraceStream": "repro.jvm.stream",
    "pump_events": "repro.jvm.stream",
    "trace_to_stream": "repro.jvm.stream",
}

if TYPE_CHECKING:  # also the import edges that code fingerprints follow
    from repro.jvm.methods import CallStack, MethodRef, MethodRegistry, StackTable
    from repro.jvm.machine import (
        AccessPattern,
        HardwareModel,
        MachineConfig,
        OpKind,
    )
    from repro.jvm.threads import ThreadTrace, TraceBuilder, TraceSegment
    from repro.jvm.perf import CounterWindow, PerfCounterReader
    from repro.jvm.job import JobTrace, StageInfo
    from repro.jvm.segments import SEGMENT_DTYPE
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

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
