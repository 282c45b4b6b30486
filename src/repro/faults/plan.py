"""The fault plan: a serialisable, seed-deterministic set of knobs.

Determinism contract
--------------------
Every injection decision draws from its own freshly-derived generator::

    default_rng(SeedSequence([plan.seed, FAULTS_KEY, crc32(site), *coords]))

There is no shared fault RNG stream, so decisions are independent of
the *order* hook points fire in — two runs with the same plan make the
same calls and therefore inject the same faults, and adding a new hook
point never perturbs existing ones.  ``FAULTS_KEY`` is the CRC-32 of
the literal ``b"faults"`` (``SeedSequence`` entries must be
non-negative integers, so the spelled-out domain string is folded to
one).

A *null* plan (every rate zero) is treated everywhere as "no plan":
hook points short-circuit before deriving any RNG, so the output is
byte-identical to a run without fault injection at all.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["FAULTS_KEY", "FaultPlan", "site_rng"]

#: Integer domain tag for SeedSequence([seed, FAULTS_KEY, ...]) spawns.
FAULTS_KEY = zlib.crc32(b"faults")

_RATE_FIELDS = (
    "task_failure_rate",
    "straggler_rate",
    "gc_pause_rate",
    "counter_glitch_rate",
)


def site_rng(seed: int, site: str, *coords: int) -> np.random.Generator:
    """Fresh generator for one injection decision at one hook point."""
    folded = [c & 0x7FFFFFFF for c in coords]
    entropy = [seed & 0xFFFFFFFF, FAULTS_KEY, zlib.crc32(site.encode())]
    return np.random.default_rng(np.random.SeedSequence(entropy + folded))


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Knobs for every fault class, plus the seed that replays them.

    Rates are per-opportunity probabilities: per task attempt for the
    cluster faults, per trace segment for counter glitches.
    """

    seed: int = 0
    # Cluster faults (spark scheduler / hadoop runtime hook points).
    task_failure_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_slowdown: float = 1.5
    gc_pause_rate: float = 0.0
    gc_pause_inst: float = 10e6
    # Counter perturbations (repro.jvm.perf arithmetic).
    counter_glitch_rate: float = 0.0
    counter_glitch_scale: float = 0.25

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1.0")
        if self.gc_pause_inst < 0 or self.counter_glitch_scale < 0:
            raise ValueError("magnitudes must be non-negative")

    # -- activity predicates (hook points short-circuit on these) -----

    @property
    def cluster_active(self) -> bool:
        return (
            self.task_failure_rate > 0
            or self.straggler_rate > 0
            or self.gc_pause_rate > 0
        )

    @property
    def perf_active(self) -> bool:
        return self.counter_glitch_rate > 0

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.cluster_active or self.perf_active)

    # -- serialisation (``simprof profile --faults plan.json``) -------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(
                f"unknown FaultPlan fields: {sorted(unknown)}"
            )
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def uniform(cls, rate: float, *, seed: int = 0) -> "FaultPlan":
        """One rate across every cluster fault — the ext_faults sweep axis."""
        return cls(
            seed=seed,
            task_failure_rate=rate,
            straggler_rate=rate,
            gc_pause_rate=rate,
        )
