"""SimProf core: profiling, phase formation, phase sampling, input
sensitivity (Sections III-A through III-D of the paper)."""

import importlib
from typing import TYPE_CHECKING

#: Public names and the modules that define them.  They load on first
#: access (PEP 562), so importing one submodule does not load the rest.
_EXPORTS = {
    "ClassifySession": "repro.core.pipeline",
    "CoVReport": "repro.core.analysis",
    "CodeSampler": "repro.core.baselines",
    "FeatureSpace": "repro.core.features",
    "InputSensitivityResult": "repro.core.sensitivity",
    "JobProfile": "repro.core.units",
    "KMeansResult": "repro.core.clustering",
    "OnlineKMeans": "repro.core.clustering",
    "PhaseModel": "repro.core.phases",
    "PhaseSensitivity": "repro.core.sensitivity",
    "PhaseStats": "repro.core.phases",
    "ProfilerConfig": "repro.core.profiler",
    "ProfilerSession": "repro.core.profiler",
    "SRSSampler": "repro.core.baselines",
    "SamplingUnit": "repro.core.units",
    "SecondSampler": "repro.core.baselines",
    "SimProf": "repro.core.pipeline",
    "SimProfConfig": "repro.core.pipeline",
    "SimProfProfiler": "repro.core.profiler",
    "SimProfResult": "repro.core.pipeline",
    "SimProfSampler": "repro.core.baselines",
    "StratifiedEstimate": "repro.core.sampling",
    "StreamingProfiler": "repro.core.profiler",
    "ThreadProfile": "repro.core.units",
    "UnitFeaturizer": "repro.core.features",
    "build_feature_matrix": "repro.core.features",
    "choose_k": "repro.core.clustering",
    "classify_units": "repro.core.sensitivity",
    "cov_report": "repro.core.analysis",
    "input_sensitivity_test": "repro.core.sensitivity",
    "kmeans": "repro.core.clustering",
    "optimal_allocation": "repro.core.sampling",
    "phase_type_of": "repro.core.analysis",
    "phase_types": "repro.core.analysis",
    "required_sample_size": "repro.core.sampling",
    "select_features": "repro.core.features",
    "silhouette_score": "repro.core.clustering",
    "stratified_sample": "repro.core.sampling",
}

if TYPE_CHECKING:  # also the import edges that code fingerprints follow
    from repro.core.units import JobProfile, SamplingUnit, ThreadProfile
    from repro.core.profiler import (
        ProfilerConfig,
        ProfilerSession,
        SimProfProfiler,
        StreamingProfiler,
    )
    from repro.core.features import (
        FeatureSpace,
        UnitFeaturizer,
        build_feature_matrix,
        select_features,
    )
    from repro.core.clustering import (
        KMeansResult,
        OnlineKMeans,
        choose_k,
        kmeans,
        silhouette_score,
    )
    from repro.core.phases import PhaseModel, PhaseStats
    from repro.core.sampling import (
        StratifiedEstimate,
        optimal_allocation,
        required_sample_size,
        stratified_sample,
    )
    from repro.core.baselines import (
        CodeSampler,
        SecondSampler,
        SimProfSampler,
        SRSSampler,
    )
    from repro.core.sensitivity import (
        InputSensitivityResult,
        PhaseSensitivity,
        classify_units,
        input_sensitivity_test,
    )
    from repro.core.analysis import CoVReport, cov_report, phase_type_of, phase_types
    from repro.core.pipeline import ClassifySession, SimProf, SimProfConfig, SimProfResult

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
