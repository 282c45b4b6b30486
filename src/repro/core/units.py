"""Sampling units and profiles — SimProf's unit of account.

A *sampling unit* is a fixed-size instruction interval of one executor
thread (100 M instructions by default).  The profiler summarises each
unit by (a) the call-stack snapshots taken inside it and (b) its
hardware-counter totals.  A :class:`ThreadProfile` is the unit sequence
of the profiled thread; a :class:`JobProfile` adds job identity and the
interning tables needed to interpret stack ids.  :class:`ProfilerConfig`
holds the knobs that define a unit; it lives here, not beside the
profiler, so that code which only keys or describes profiles (a warm
report) never loads the trace-stream machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.jvm.job import StageInfo
from repro.jvm.machine import MachineConfig
from repro.jvm.methods import MethodRegistry, StackTable

__all__ = ["ProfilerConfig", "SamplingUnit", "ThreadProfile", "JobProfile"]


@dataclass(frozen=True, slots=True)
class ProfilerConfig:
    """Profiling knobs.

    ``thread_id=None`` profiles the busiest executor thread (the paper
    samples a single executor thread; the busiest one covers every
    stage).  ``unit_size`` keeps the paper's 100 M-instruction units;
    ``snapshot_period`` defaults to 2 M rather than the paper's 10 M
    (see the field comment below).
    """

    unit_size: int = 100_000_000
    # The paper polls every 10 M instructions.  With the simulator's
    # narrower stack vocabulary, 10 samples per unit quantise mixture
    # fractions into a coarse lattice that manufactures phantom phases,
    # so the default here is 2 M (50 samples/unit); the ablation bench
    # covers the paper's 10 M setting.
    snapshot_period: int = 2_000_000
    thread_id: int | None = None
    # Relative jitter of the poll timer: real JVMTI sampling is not
    # phase-locked to the instruction counter, so the stack mixture a
    # unit sees carries multinomial sampling noise.
    snapshot_jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.unit_size <= 0:
            raise ValueError("unit_size must be positive")
        if self.snapshot_period <= 0:
            raise ValueError("snapshot_period must be positive")
        if self.snapshot_period > self.unit_size:
            raise ValueError("snapshot_period cannot exceed unit_size")
        if not 0.0 <= self.snapshot_jitter < 1.0:
            raise ValueError("snapshot_jitter must be in [0, 1)")


@dataclass(frozen=True, slots=True)
class SamplingUnit:
    """One fixed-size instruction interval of the profiled thread.

    ``stack_ids``/``stack_counts`` hold the distinct call stacks seen by
    the snapshot poller inside the unit and how often each was seen.
    """

    index: int
    stack_ids: np.ndarray
    stack_counts: np.ndarray
    instructions: float
    cycles: float
    l1d_misses: float
    llc_misses: float

    @property
    def cpi(self) -> float:
        """Cycles per instruction of the unit."""
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        """Instructions per cycle of the unit."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def n_snapshots(self) -> int:
        """Number of call-stack snapshots taken in the unit."""
        return int(self.stack_counts.sum())


@dataclass
class ThreadProfile:
    """The sampling-unit sequence of one profiled executor thread."""

    thread_id: int
    unit_size: int
    snapshot_period: int
    units: list[SamplingUnit]

    def __len__(self) -> int:
        return len(self.units)

    @property
    def n_units(self) -> int:
        """Total number of sampling units (the paper's N)."""
        return len(self.units)

    def cpi(self) -> np.ndarray:
        """Per-unit CPI vector."""
        return np.array([u.cpi for u in self.units], dtype=np.float64)

    def ipc(self) -> np.ndarray:
        """Per-unit IPC vector."""
        return np.array([u.ipc for u in self.units], dtype=np.float64)

    def cycles(self) -> np.ndarray:
        """Per-unit cycle totals."""
        return np.array([u.cycles for u in self.units], dtype=np.float64)

    def llc_mpki(self) -> np.ndarray:
        """Per-unit LLC misses per kilo-instruction."""
        return np.array(
            [1000.0 * u.llc_misses / u.instructions for u in self.units],
            dtype=np.float64,
        )

    def oracle_cpi(self) -> float:
        """The paper's oracle: the mean CPI over all sampling units."""
        if not self.units:
            raise ValueError("profile has no sampling units")
        return float(self.cpi().mean())


@dataclass
class JobProfile:
    """A thread profile plus the job context needed to interpret it."""

    workload: str
    framework: str
    input_name: str
    profile: ThreadProfile
    registry: MethodRegistry
    stack_table: StackTable
    machine: MachineConfig
    stages: list[StageInfo] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Paper-style short label (``wc_sp``, ``cc_hp``, …)."""
        suffix = {"hadoop": "hp", "spark": "sp"}.get(self.framework, self.framework)
        return f"{self.workload}_{suffix}"

    @property
    def n_units(self) -> int:
        """Number of sampling units in the profiled thread."""
        return self.profile.n_units

    def oracle_cpi(self) -> float:
        """Mean CPI over all units (ground truth for sampling error)."""
        return self.profile.oracle_cpi()

    def content_digest(self) -> str:
        """Stable SHA-256 of everything featurization consumes.

        Covers the job identity, the profiler geometry, the registry
        and stack-table interning (in id order), and every unit's stack
        histogram and hardware counters — two profiles digest equally
        iff featurizing them yields identical matrices.  Used as the
        cache key for assembled feature matrices in the artifact store.
        Cached on the instance: a built profile is never mutated.
        """
        cached = self.__dict__.get("_content_digest")
        if cached is not None:
            return cached
        from repro.runtime.store import digest_arrays

        units = self.profile.units
        table = self.stack_table
        parts: list[Any] = [
            "job-profile",
            self.workload,
            self.framework,
            self.input_name,
            self.profile.thread_id,
            self.profile.unit_size,
            self.profile.snapshot_period,
            "\n".join(ref.fqn for ref in self.registry.all_refs()),
        ]
        frame_tuples = [table.frames_of(sid) for sid in range(len(table))]
        parts.append(
            np.array([len(f) for f in frame_tuples], dtype=np.int64)
        )
        parts.append(
            np.array(
                [mid for frames in frame_tuples for mid in frames],
                dtype=np.int64,
            )
        )
        parts.append(
            np.array(
                [
                    (u.index, u.instructions, u.cycles, u.l1d_misses, u.llc_misses)
                    for u in units
                ],
                dtype=np.float64,
            ).reshape(len(units), 5)
        )
        parts.append(np.array([len(u.stack_ids) for u in units], dtype=np.int64))
        if units:
            parts.append(
                np.concatenate(
                    [np.asarray(u.stack_ids, dtype=np.int64) for u in units]
                )
                if any(len(u.stack_ids) for u in units)
                else np.zeros(0, dtype=np.int64)
            )
            parts.append(
                np.concatenate(
                    [np.asarray(u.stack_counts, dtype=np.float64) for u in units]
                )
                if any(len(u.stack_counts) for u in units)
                else np.zeros(0, dtype=np.float64)
            )
        digest = digest_arrays(parts)
        self._content_digest = digest
        return digest
