"""The SimProf facade: profile → phases → simulation points.

The one-stop entry point a user of the library needs (Figure 2):

>>> from repro.core import SimProf
>>> from repro.workloads import run_workload
>>> trace = run_workload("wc", "spark")
>>> simprof = SimProf()
>>> result = simprof.analyze(trace, n_points=20)
>>> result.points.selected        # simulation-point unit ids
>>> result.points.confidence_interval(0.997)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.analysis import CoVReport, cov_report, phase_types
from repro.core.features import UnitFeaturizer
from repro.core.phases import PhaseModel, PhaseStats
from repro.core.profiler import (
    ProfilerConfig,
    ProfilerSession,
    StreamingProfiler,
    profile_trace,
)
from repro.core.sampling import StratifiedEstimate, phase_sample_size
from repro.core.sampling import select_points as _select_points
from repro.core.sensitivity import InputSensitivityResult, input_sensitivity_test
from repro.core.units import JobProfile, SamplingUnit
from repro.jvm.job import JobTrace
from repro.jvm.stream import TraceStream
from repro.runtime.instrument import ThroughputMeter, stage_timer

__all__ = ["ClassifySession", "SimProfConfig", "SimProfResult", "SimProf"]


@dataclass(frozen=True, slots=True)
class SimProfConfig:
    """All SimProf knobs with the paper's defaults."""

    unit_size: int = 100_000_000
    snapshot_period: int = 2_000_000
    snapshot_jitter: float = 0.5
    top_k_methods: int = 100
    max_phases: int = 20
    silhouette_threshold: float = 0.9
    seed: int = 0

    def profiler_config(self, thread_id: int | None = None) -> ProfilerConfig:
        """The profiling subset of the configuration."""
        return ProfilerConfig(
            unit_size=self.unit_size,
            snapshot_period=self.snapshot_period,
            thread_id=thread_id,
            snapshot_jitter=self.snapshot_jitter,
            seed=self.seed,
        )


@dataclass
class SimProfResult:
    """Everything one SimProf run produces for a job."""

    job: JobProfile
    model: PhaseModel
    points: StratifiedEstimate
    phase_stats: list[PhaseStats] = field(default_factory=list)

    @property
    def simulation_points(self) -> np.ndarray:
        """Selected sampling-unit ids (the final simulation points)."""
        return self.points.selected

    @property
    def n_phases(self) -> int:
        """Number of phases formed."""
        return self.model.k

    def oracle_cpi(self) -> float:
        """Ground-truth mean CPI over all units."""
        return self.job.oracle_cpi()

    def sampling_error(self) -> float:
        """Relative error of the stratified estimate vs the oracle."""
        oracle = self.oracle_cpi()
        return abs(self.points.estimate - oracle) / oracle

    def cov_report(self) -> CoVReport:
        """Figure 6 numbers for this job."""
        return cov_report(self.job.profile.cpi(), self.model.assignments)

    def phase_type_map(self) -> dict[int, str]:
        """Figure 10 phase-type judgement for this job."""
        return phase_types(self.job, self.model.assignments)


class SimProf:
    """The sampling framework (Figure 2), end to end."""

    def __init__(self, config: SimProfConfig | None = None) -> None:
        self.config = config or SimProfConfig()

    # -- pipeline stages ------------------------------------------------------

    def profile(self, trace: JobTrace, thread_id: int | None = None) -> JobProfile:
        """Stage 1: thread profiling."""
        return profile_trace(trace, self.config.profiler_config(thread_id))

    def profile_stream(
        self,
        stream: TraceStream,
        thread_id: int | None = None,
        *,
        checkpoint=None,
    ) -> JobProfile:
        """Stage 1, streaming: profile a live trace stream incrementally.

        Consuming the stream drives the underlying run; sampling units
        are cut as segment events arrive, so the full trace is never
        materialised.  Bit-identical to :meth:`profile` on the same run
        and seed.  Per-unit emission latency and unit throughput land
        in the ``stream-profiling`` instrumentation stage.

        ``checkpoint`` (a
        :class:`~repro.runtime.checkpoint.CheckpointPolicy`) makes the
        run suspendable: session snapshots are persisted periodically
        and a killed run resumes bit-identically from its latest
        checkpoint (see :mod:`repro.runtime.checkpoint`).
        """
        profiler = StreamingProfiler(self.config.profiler_config(thread_id))
        with stage_timer("stream-profiling") as rec:
            job = profiler.consume(
                stream, meter=ThroughputMeter(rec), checkpoint=checkpoint
            )
        return job

    def form_phases(self, job: JobProfile) -> PhaseModel:
        """Stage 2: phase formation."""
        return PhaseModel.fit(
            job,
            top_k=self.config.top_k_methods,
            max_phases=self.config.max_phases,
            score_threshold=self.config.silhouette_threshold,
            seed=self.config.seed,
        )

    def select_points(
        self,
        job: JobProfile,
        model: PhaseModel,
        n_points: int = 20,
        *,
        rng: np.random.Generator | None = None,
    ) -> StratifiedEstimate:
        """Stage 3: phase sampling (stratified, optimal allocation)."""
        rng = rng or np.random.default_rng(self.config.seed)
        return _select_points(job, model, n_points, rng=rng)

    def input_sensitivity(
        self,
        model: PhaseModel,
        train_job: JobProfile,
        ref_jobs: dict[str, JobProfile],
    ) -> InputSensitivityResult:
        """Stage 4: the input sensitivity test over reference inputs."""
        return input_sensitivity_test(model, train_job, ref_jobs)

    # -- conveniences -----------------------------------------------------------

    def analyze(
        self, trace: JobTrace, n_points: int = 20, thread_id: int | None = None
    ) -> SimProfResult:
        """Run stages 1–3 on a job trace."""
        job = self.profile(trace, thread_id)
        model = self.form_phases(job)
        points = self.select_points(job, model, n_points)
        return SimProfResult(
            job=job,
            model=model,
            points=points,
            phase_stats=model.phase_stats(job.profile.cpi()),
        )

    def analyze_stream(
        self,
        stream: TraceStream,
        n_points: int = 20,
        thread_id: int | None = None,
        *,
        checkpoint=None,
    ) -> SimProfResult:
        """Run stages 1–3 over a live trace stream.

        Profiling is incremental (:meth:`profile_stream`); phase
        formation and point selection then run on the emitted units.
        With the same configuration and seed the result — unit vectors,
        phase model, selected simulation points — is bit-identical to
        :meth:`analyze` on the materialised trace of the same run.
        ``checkpoint`` makes the profiling stage suspendable, exactly
        as in :meth:`profile_stream`.
        """
        job = self.profile_stream(stream, thread_id, checkpoint=checkpoint)
        model = self.form_phases(job)
        points = self.select_points(job, model, n_points)
        return SimProfResult(
            job=job,
            model=model,
            points=points,
            phase_stats=model.phase_stats(job.profile.cpi()),
        )

    def classify_stream(
        self,
        model: PhaseModel,
        stream: TraceStream,
        thread_id: int | None = None,
    ) -> Iterator[tuple[int, SamplingUnit, int]]:
        """Live unit classification (Pac-Sim-style online mode).

        Yields ``(thread_id, unit, phase)`` the moment each sampling
        unit completes, classifying against an existing ``model`` while
        the job is still running.  Restrict to one thread with
        ``thread_id`` (recommended: the trained profile's thread);
        otherwise units of every thread are classified.
        """
        profiler = StreamingProfiler(self.config.profiler_config(thread_id))
        featurizer = UnitFeaturizer(
            model.space, stream.registry, stream.stack_table
        )
        # One reusable row buffer: live mode classifies unit by unit,
        # so a fresh allocation per unit would dominate the loop.
        row = np.zeros((1, model.space.n_features))
        for tid, unit in profiler.units(stream):
            row.fill(0.0)
            featurizer.row_into(unit, row[0])
            yield tid, unit, int(model.classify(row)[0])

    def classify_session(
        self,
        model: PhaseModel,
        stream: TraceStream,
        thread_id: int | None = None,
    ) -> "ClassifySession":
        """Suspendable twin of :meth:`classify_stream`.

        Returns a push-mode :class:`ClassifySession` that can be driven
        by :func:`repro.runtime.checkpoint.drive_session` — checkpoint,
        kill, and resume mid-classification bit-identically.
        """
        return ClassifySession(
            self.config.profiler_config(thread_id), model, stream
        )

    def sample_size_for(
        self,
        job: JobProfile,
        model: PhaseModel,
        *,
        relative_error: float,
        confidence: float = 0.997,
    ) -> int:
        """Figure 8: points needed for a target error bound."""
        return phase_sample_size(
            job, model, relative_error=relative_error, confidence=confidence
        )


class ClassifySession:
    """Push-mode online classification: profile, featurize, classify.

    Wraps a :class:`~repro.core.profiler.ProfilerSession` (collect
    mode) with the live classification stage: every completed sampling
    unit is projected into the model's feature space and assigned its
    nearest phase.  Feed events with :meth:`feed`, seal with
    :meth:`finish`, harvest ``(JobProfile, labels)`` with
    :meth:`result`.

    The session is :class:`~repro.runtime.snapshot.Snapshotable`
    end to end — profiler state, featurizer pairing, phase model, and
    the labels emitted so far — so an online classification job can be
    checkpointed, killed, and resumed bit-identically (same units,
    same phases) by :func:`repro.runtime.checkpoint.drive_session`.
    """

    def __init__(
        self,
        config: ProfilerConfig,
        model: PhaseModel,
        stream: TraceStream,
    ) -> None:
        self.model = model
        self.profiler = ProfilerSession(config, stream, collect=True)
        self._featurizer = UnitFeaturizer(
            model.space, stream.registry, stream.stack_table
        )
        # One reusable row buffer, as in classify_stream.
        self._row = np.zeros((1, model.space.n_features))
        #: ``(thread_id, phase)`` per emitted unit, in emission order.
        self.labels: list[tuple[int, int]] = []

    @property
    def batches_fed(self) -> int:
        return self.profiler.batches_fed

    def _classify(self, unit: SamplingUnit) -> int:
        self._row.fill(0.0)
        self._featurizer.row_into(unit, self._row[0])
        return int(self.model.classify(self._row)[0])

    def feed(self, event) -> list[tuple[int, SamplingUnit, int]]:
        """Feed one raw stream event; returns ``(tid, unit, phase)`` triples."""
        out = []
        for tid, unit in self.profiler.feed(event):
            phase = self._classify(unit)
            self.labels.append((tid, phase))
            out.append((tid, unit, phase))
        return out

    def finish(self) -> list[tuple[int, SamplingUnit, int]]:
        """End of stream: flush the profiler, classify trailing units."""
        out = []
        for tid, unit in self.profiler.finish():
            phase = self._classify(unit)
            self.labels.append((tid, phase))
            out.append((tid, unit, phase))
        return out

    def result(self) -> tuple[JobProfile, list[tuple[int, int]]]:
        """The profiled job and the full label sequence."""
        return self.profiler.result(), list(self.labels)

    # -- snapshot protocol -------------------------------------------

    def snapshot(self) -> dict:
        return {
            "kind": "classify-session",
            "profiler": self.profiler.snapshot(),
            "featurizer": self._featurizer.snapshot(),
            "model": self.model.snapshot(),
            "labels": [[tid, phase] for tid, phase in self.labels],
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "classify-session":
            raise ValueError(
                f"not a classify-session snapshot: {state.get('kind')!r}"
            )
        self.profiler.restore(state["profiler"])
        # Restoring the model from the checkpoint guarantees "same
        # phases" even if the caller reloaded a drifted model object.
        self.model.restore(state["model"])
        self._featurizer.restore(state["featurizer"])
        self._row = np.zeros((1, self.model.space.n_features))
        self.labels = [(int(tid), int(phase)) for tid, phase in state["labels"]]
