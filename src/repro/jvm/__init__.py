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
    "segment_checksum",
    "trace_to_stream",
]
