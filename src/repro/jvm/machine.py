"""Analytic hardware model of the simulated testbed.

The paper's testbed is an Intel i7-4820K (4 cores / 8 threads, 32 KB L1D
per core, 10 MB shared LLC) read through ``perf_event``.  Offline we
replace the silicon with an analytic model that turns an *operation
descriptor* — kind of work, number of records, per-record instruction
cost, and a memory :class:`AccessPattern` — into the counter values the
real machine would report:

``cycles = instructions * base_cpi
         + l1d_misses * l1_penalty
         + llc_misses * memory_penalty``

with miss counts derived from a working-set capacity model.  The model
deliberately reproduces the four sources of intra-phase heterogeneity
Section III-B.1 names:

* **data access pattern** — random accesses over a working set larger
  than the (contended) LLC miss; quicksort partitions and hash-map
  reduces therefore get size-dependent CPI,
* **OS scheduling** — a migrated thread pays a cold-cache window
  (elevated miss rates for the first segment on the new core),
* **phase interleaving** — co-scheduled threads share the LLC, so the
  effective capacity seen by one thread shrinks with contention,
* **executed code difference** — base CPI differs by operation kind.

All randomness flows through an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "OpKind",
    "AccessPattern",
    "MachineConfig",
    "CostResult",
    "HardwareModel",
]

CACHE_LINE_BYTES = 64


class OpKind(enum.Enum):
    """Kind of work a trace segment performs.

    The first four values mirror the phase taxonomy of Figure 10
    (map / reduce / sort / IO); the rest are framework and managed-runtime
    overheads that appear in call stacks but rarely dominate a phase.
    """

    MAP = "map"
    REDUCE = "reduce"
    SORT = "sort"
    IO = "io"
    SHUFFLE = "shuffle"
    FRAMEWORK = "framework"
    GC = "gc"

    @property
    def is_phase_type(self) -> bool:
        """Whether this kind is one of the paper's four phase types."""
        return self in (OpKind.MAP, OpKind.REDUCE, OpKind.SORT, OpKind.IO)


@dataclass(frozen=True, slots=True)
class AccessPattern:
    """Memory behaviour of an operation.

    Parameters
    ----------
    kind:
        ``"sequential"`` (streaming scans, prefetch-friendly),
        ``"random"`` (hash probes, key lookups), or ``"pointer"``
        (dependent pointer chasing: GC, tree walks — random and
        unprefetchable).
    working_set_bytes:
        Bytes the operation touches repeatedly; capacity misses appear
        once this exceeds the effective cache size.
    accesses_per_instruction:
        Accesses *to this working set* per executed instruction.  Most
        memory operations of real code hit stack/hot locals and are not
        modelled; only the fraction that reaches the described data
        structure matters for misses.  Defaults by kind: 0.15 for a
        streaming scan, 0.02 for scattered probes, 0.03 for pointer
        chasing.
    """

    kind: str
    working_set_bytes: float
    accesses_per_instruction: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sequential", "random", "pointer"):
            raise ValueError(f"unknown access-pattern kind: {self.kind!r}")
        if self.working_set_bytes < 0:
            raise ValueError("working_set_bytes must be non-negative")
        if self.accesses_per_instruction is None:
            default = {"sequential": 0.15, "random": 0.02, "pointer": 0.03}
            object.__setattr__(
                self, "accesses_per_instruction", default[self.kind]
            )
        if not 0.0 <= self.accesses_per_instruction <= 1.0:
            raise ValueError("accesses_per_instruction must be in [0, 1]")

    @staticmethod
    def sequential(working_set_bytes: float, api: float = 0.15) -> "AccessPattern":
        """Streaming access over ``working_set_bytes``."""
        return AccessPattern("sequential", working_set_bytes, api)

    @staticmethod
    def random(working_set_bytes: float, api: float = 0.02) -> "AccessPattern":
        """Scattered probes into a structure of ``working_set_bytes``."""
        return AccessPattern("random", working_set_bytes, api)

    @staticmethod
    def pointer(working_set_bytes: float, api: float = 0.03) -> "AccessPattern":
        """Dependent pointer chasing over ``working_set_bytes``."""
        return AccessPattern("pointer", working_set_bytes, api)


# Base CPI by operation kind: JVM map/filter code is branchy but cache
# friendly; sorts are compare/swap heavy; IO is dominated by copies and
# syscall-ish overhead (high CPI even before misses).
_BASE_CPI: dict[OpKind, float] = {
    OpKind.MAP: 0.55,
    OpKind.REDUCE: 0.65,
    OpKind.SORT: 0.80,
    OpKind.IO: 1.10,
    OpKind.SHUFFLE: 0.95,
    OpKind.FRAMEWORK: 0.70,
    OpKind.GC: 0.90,
}


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Parameters of the simulated machine (defaults: i7-4820K-like).

    ``instruction_scale`` uniformly multiplies every per-record
    instruction cost, letting experiments trade trace resolution against
    runtime without touching workload code.
    """

    cores: int = 4
    smt_per_core: int = 2
    clock_ghz: float = 3.7
    l1d_bytes: int = 32 * 1024
    llc_bytes: int = 10 * 1024 * 1024
    l1_miss_penalty: float = 12.0
    memory_penalty: float = 200.0
    prefetch_efficiency: float = 0.92
    migration_cold_factor: float = 3.0
    migration_probability: float = 0.004
    noise_sigma: float = 0.03
    instruction_scale: float = 1.0
    # Managed-runtime warm-up: early execution runs interpreted/C1 and
    # costs extra cycles, decaying exponentially as the JIT compiles the
    # hot paths.  Off by default (0.0) — the paper profiles long runs
    # where warm-up is negligible; enable to study start-up effects.
    jit_warmup_penalty: float = 0.0
    jit_warmup_scale: float = 2e9

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("need at least one core")
        if not 0.0 <= self.prefetch_efficiency < 1.0:
            raise ValueError("prefetch_efficiency must be in [0, 1)")
        if not 0.0 <= self.migration_probability <= 1.0:
            raise ValueError("migration_probability must be in [0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.jit_warmup_penalty < 0:
            raise ValueError("jit_warmup_penalty must be non-negative")
        if self.jit_warmup_scale <= 0:
            raise ValueError("jit_warmup_scale must be positive")

    @property
    def hardware_threads(self) -> int:
        """Total SMT contexts on the socket."""
        return self.cores * self.smt_per_core

    @property
    def clock_hz(self) -> float:
        """Core clock in Hz (used to convert cycles to wall time)."""
        return self.clock_ghz * 1e9

    def seconds(self, cycles: float) -> float:
        """Wall-clock seconds for a cycle count on one core."""
        return cycles / self.clock_hz


class CostResult(NamedTuple):
    """Counters produced for one trace segment."""

    instructions: int
    cycles: int
    l1d_misses: int
    llc_misses: int

    @property
    def cpi(self) -> float:
        """Cycles per instruction of this segment."""
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class HardwareModel:
    """Turns operation descriptors into hardware-counter values.

    One model instance is shared by all executor threads of a job.  Its
    only state besides the configuration is a memo of deterministic
    pricing terms, so threads can interleave calls freely.  Contention
    (how many threads share the LLC) and cold-cache migration flags are
    supplied per call by the scheduler.
    """

    config: MachineConfig = field(default_factory=MachineConfig)
    # (op_kind, access fields, contention, cold) -> pricing terms; see
    # _terms_of.
    _terms: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- miss-rate model -------------------------------------------------

    def _capacity_miss_fraction(self, working_set: float, cache: float) -> float:
        """Fraction of accesses that miss a cache of ``cache`` bytes.

        Uniform random access over a working set ``W`` hits with
        probability ``cache / W`` when ``W > cache`` (the resident
        fraction), so the miss fraction is ``1 - cache / W``; a working
        set that fits produces only a small conflict-miss floor.
        """
        if working_set <= cache:
            return 0.002  # conflict/coherence floor
        return 1.0 - cache / working_set

    def miss_rates(
        self,
        access: AccessPattern,
        *,
        contention: int = 1,
        cold: bool = False,
    ) -> tuple[float, float]:
        """(L1D, LLC) misses **per instruction** for an access pattern.

        ``contention`` is the number of threads sharing the LLC; the
        effective capacity seen by this thread is divided accordingly
        (the paper's *phase interleaving* effect).  ``cold`` applies the
        post-migration cold-cache multiplier.
        """
        cfg = self.config
        eff_llc = cfg.llc_bytes / max(1, contention)
        api = access.accesses_per_instruction

        if access.kind == "sequential":
            # One miss per cache line of fresh data; the L1 streams.
            l1_rate = api / (CACHE_LINE_BYTES / 8)
            if access.working_set_bytes > eff_llc:
                llc_rate = l1_rate  # streaming through memory
            else:
                llc_rate = l1_rate * 0.05
        else:  # random / pointer
            l1_frac = self._capacity_miss_fraction(
                access.working_set_bytes, cfg.l1d_bytes
            )
            llc_frac = self._capacity_miss_fraction(access.working_set_bytes, eff_llc)
            l1_rate = api * max(l1_frac, 0.01)
            llc_rate = api * l1_frac * llc_frac

        if cold:
            l1_rate = min(api, l1_rate * cfg.migration_cold_factor)
            llc_rate = min(l1_rate, llc_rate * cfg.migration_cold_factor)
        return l1_rate, llc_rate

    def _memory_penalty(self, access: AccessPattern) -> float:
        """Effective cycles per LLC miss, after prefetching.

        Hardware prefetchers hide most of the DRAM latency of streaming
        misses; random and especially dependent (pointer) misses pay the
        full round trip.
        """
        cfg = self.config
        if access.kind == "sequential":
            return cfg.memory_penalty * (1.0 - cfg.prefetch_efficiency)
        if access.kind == "pointer":
            return cfg.memory_penalty * 1.15  # dependent chains stall harder
        return cfg.memory_penalty

    # -- cost computation -------------------------------------------------

    def base_cpi(self, op_kind: OpKind) -> float:
        """Miss-free CPI of an operation kind."""
        return _BASE_CPI[op_kind]

    def jit_multiplier(self, retired_instructions: float) -> float:
        """Cycle multiplier from JIT warm-up at a point in the run."""
        cfg = self.config
        if cfg.jit_warmup_penalty <= 0:
            return 1.0
        return 1.0 + cfg.jit_warmup_penalty * math.exp(
            -retired_instructions / cfg.jit_warmup_scale
        )

    def cost(
        self,
        op_kind: OpKind,
        access: AccessPattern,
        instructions: float,
        rng: np.random.Generator,
        *,
        contention: int = 1,
        cold: bool = False,
        retired_instructions: float = 0.0,
    ) -> CostResult:
        """Counter values for a segment executing ``instructions``.

        Parameters
        ----------
        op_kind:
            What the code is doing (selects the base CPI).
        access:
            Memory behaviour of the segment.
        instructions:
            Final instruction count of the segment (``instruction_scale``
            is applied by the trace builder, before chunking).
        rng:
            Source of the multiplicative log-normal noise modelling
            micro-architectural jitter.
        contention:
            Threads sharing the LLC during this segment.
        cold:
            True for the first segment after an OS migration.
        retired_instructions:
            Instructions the thread retired before this segment (drives
            the JIT warm-up multiplier; ignored when warm-up is off).
        """
        return CostResult(
            *self.price(
                op_kind,
                access,
                instructions,
                rng,
                contention,
                cold,
                retired_instructions,
            )
        )

    def price(
        self,
        op_kind: OpKind,
        access: AccessPattern,
        instructions: float,
        rng: np.random.Generator,
        contention: int = 1,
        cold: bool = False,
        retired_instructions: float = 0.0,
    ) -> tuple[int, int, int, int]:
        """:meth:`cost` as a plain ``(instructions, cycles, l1d, llc)`` tuple.

        The one pricing formula, shared by :meth:`cost` and the trace
        builder's per-segment path.  The deterministic terms come from
        :meth:`_terms_of`; what varies per call is the instruction
        count, the JIT warm-up point and the noise draw.
        """
        # Keyed on the access fields: hashing and comparing them is
        # cheaper than the dataclass's generated __hash__/__eq__.
        key = (
            op_kind,
            access.kind,
            access.working_set_bytes,
            access.accesses_per_instruction,
            contention,
            cold,
        )
        terms = self._terms.get(key)
        if terms is None:
            terms = self._terms_of(key, op_kind, access, contention, cold)
        cpi, l1_rate, llc_rate, l1_penalty, memory_penalty = terms
        cfg = self.config
        insts = max(1, int(round(instructions)))
        l1_misses = insts * l1_rate
        llc_misses = insts * llc_rate
        cycles = (
            insts * cpi
            + l1_misses * l1_penalty
            + llc_misses * memory_penalty
        )
        # Without warm-up the multiplier is exactly 1.0, a no-op.
        if cfg.jit_warmup_penalty > 0:
            cycles *= self.jit_multiplier(retired_instructions)
        if cfg.noise_sigma > 0.0:
            cycles *= math.exp(rng.normal(0.0, cfg.noise_sigma))
        # round() of a float is already an int.
        return (
            insts,
            max(1, round(cycles)),
            round(l1_misses),
            round(llc_misses),
        )

    def _terms_of(
        self,
        key: tuple,
        op_kind: OpKind,
        access: AccessPattern,
        contention: int,
        cold: bool,
    ) -> tuple[float, float, float, float, float]:
        """Base CPI, (L1D, LLC) miss rates and penalties, memoised.

        They depend only on the key.  A model lives for one job, whose
        segments repeat their keys: the twelve fig7 jobs at scale 0.01
        price 71,143 segments over 9,242 distinct keys (87 % hits).
        """
        l1_rate, llc_rate = self.miss_rates(access, contention=contention, cold=cold)
        terms = (
            self.base_cpi(op_kind),
            l1_rate,
            llc_rate,
            self.config.l1_miss_penalty,
            self._memory_penalty(access),
        )
        self._terms[key] = terms
        return terms

    def migration_occurs(self, rng: np.random.Generator) -> bool:
        """Bernoulli draw: does the OS migrate the thread before the
        next segment?  Called by executors once per emitted segment."""
        return bool(rng.random() < self.config.migration_probability)
