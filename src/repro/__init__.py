"""SimProf reproduction: a sampling framework for data analytic workloads.

Reproduces Huang et al., *SimProf: A Sampling Framework for Data
Analytic Workloads* (IPDPS 2017), end to end on simulated substrates:

* :mod:`repro.jvm` — simulated JVM, call stacks, hardware model, and
  the JVMTI / perf_event-style profiling interfaces;
* :mod:`repro.spark` / :mod:`repro.hadoop` — framework simulators that
  really execute the dataflows while emitting hardware traces;
* :mod:`repro.hdfs`, :mod:`repro.datagen` — storage and input synthesis
  (Zipf text, Kronecker graphs fitted to Table II seed families);
* :mod:`repro.workloads` — the six Table I benchmarks on both
  frameworks;
* :mod:`repro.core` — SimProf itself: thread profiling, phase
  formation, stratified phase sampling, and the input-sensitivity test;
* :mod:`repro.experiments` — drivers regenerating every table/figure.

Quickstart::

    from repro import SimProf
    from repro.workloads import run_workload

    trace = run_workload("wc", "spark")
    result = SimProf().analyze(trace, n_points=20)
    print(result.simulation_points, result.sampling_error())

Or streaming — the trace is profiled while the workload runs and is
never materialised (bit-identical result under the same seed)::

    from repro.workloads import run_workload_stream

    stream = run_workload_stream("wc", "spark")
    result = SimProf().analyze_stream(stream, n_points=20)
"""

import importlib

__version__ = "1.0.0"

#: Public names and the modules that define them.  They load on first
#: access (PEP 562), so ``import repro.<subpackage>`` does not pull in
#: numpy and scipy through this package's init.
_EXPORTS = {
    "JobProfile": "repro.core.units",
    "ProfilerConfig": "repro.core.profiler",
    "SamplingUnit": "repro.core.units",
    "SimProf": "repro.core.pipeline",
    "SimProfConfig": "repro.core.pipeline",
    "SimProfProfiler": "repro.core.profiler",
    "SimProfResult": "repro.core.pipeline",
    "StreamingProfiler": "repro.core.profiler",
    "ThreadProfile": "repro.core.units",
    "TraceStream": "repro.jvm.stream",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
