"""perf_event-like hardware-counter interface.

The real SimProf programs ``perf_event`` to report cycles and cache
misses per instruction window.  :class:`PerfCounterReader` provides that
contract over a simulated trace: counter totals for any instruction
interval ``[a, b)`` of a thread.

Within a trace segment counters accrue linearly with instructions (our
hardware model prices a whole batch at a uniform rate), so cumulative
counters can be interpolated exactly at any instruction offset; windows
that straddle segment boundaries are therefore split precisely rather
than rounded to segments.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.jvm.threads import ThreadTrace

__all__ = ["CounterWindow", "PerfCounterReader", "apply_counter_glitches"]


class CounterWindow(NamedTuple):
    """Hardware-counter totals over one instruction window."""

    instructions: float
    cycles: float
    l1d_misses: float
    llc_misses: float

    @property
    def cpi(self) -> float:
        """Cycles per instruction over the window."""
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the window."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def llc_mpki(self) -> float:
        """LLC misses per kilo-instruction."""
        if not self.instructions:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions


def apply_counter_glitches(
    trace: ThreadTrace,
    *,
    rate: float,
    scale: float,
    rng: np.random.Generator,
) -> tuple[ThreadTrace, int]:
    """Perturb a thread's counter readings, modelling perf multiplexing.

    Real ``perf_event`` sessions occasionally deliver windows whose
    cycle/miss counts are off (counter multiplexing, PMI skid).  Each
    segment is independently glitched with probability ``rate``: its
    ``cycles``, ``l1d_misses`` and ``llc_misses`` are rescaled by a
    factor drawn uniformly from ``[1 - scale, 1 + scale]`` (clamped to
    stay non-negative).  Instruction counts are never touched — the
    instruction clock is ground truth, only derived counters glitch.

    Returns a new :class:`ThreadTrace` plus the number of glitched
    segments; the input trace is left untouched.  With ``rate == 0``
    the original trace object is returned unchanged.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate!r}")
    n = len(trace)
    if rate == 0.0 or not n:
        return trace, 0
    hits = np.nonzero(rng.random(n) < rate)[0]
    factors = 1.0 + scale * (2.0 * rng.random(n) - 1.0)
    f = np.maximum(factors[hits], 0.0)
    data = trace.to_structured().copy()
    for name in ("cycles", "l1d_misses", "llc_misses"):
        # np.rint rounds half to even, as round() does.
        data[name][hits] = np.maximum(0, np.rint(data[name][hits] * f))
    out = ThreadTrace.from_structured(
        trace.thread_id, trace.core_id, data, start_cycle=trace.start_cycle
    )
    return out, len(hits)


class PerfCounterReader:
    """Reads counter totals for instruction windows of one thread."""

    def __init__(self, trace: ThreadTrace) -> None:
        arrays = trace.to_arrays()
        insts = arrays["instructions"].astype(np.float64)
        zero = np.zeros(1)
        self._cum_i = np.concatenate([zero, np.cumsum(insts)])
        self._cum_c = np.concatenate(
            [zero, np.cumsum(arrays["cycles"].astype(np.float64))]
        )
        self._cum_l1 = np.concatenate(
            [zero, np.cumsum(arrays["l1d_misses"].astype(np.float64))]
        )
        self._cum_llc = np.concatenate(
            [zero, np.cumsum(arrays["llc_misses"].astype(np.float64))]
        )
        self._total = float(self._cum_i[-1])

    @property
    def total_instructions(self) -> float:
        """Instructions retired by the thread."""
        return self._total

    @property
    def total_cycles(self) -> float:
        """Cycles consumed by the thread."""
        return float(self._cum_c[-1])

    def _interp(self, cum: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self._cum_i, cum)

    def read(self, start: float, stop: float) -> CounterWindow:
        """Counter totals over instruction interval ``[start, stop)``."""
        if not 0 <= start <= stop <= self._total:
            raise ValueError(
                f"window [{start}, {stop}) outside [0, {self._total}]"
            )
        pts = np.array([start, stop], dtype=np.float64)
        c = self._interp(self._cum_c, pts)
        l1 = self._interp(self._cum_l1, pts)
        llc = self._interp(self._cum_llc, pts)
        return CounterWindow(
            instructions=stop - start,
            cycles=float(c[1] - c[0]),
            l1d_misses=float(l1[1] - l1[0]),
            llc_misses=float(llc[1] - llc[0]),
        )

    def time_of_instruction(self, offset: float, clock_hz: float) -> float:
        """Wall-clock seconds (thread-local) at an instruction offset."""
        cyc = float(self._interp(self._cum_c, np.array([offset]))[0])
        return cyc / clock_hz

    def instruction_at_time(self, seconds: float, clock_hz: float) -> float:
        """Instruction offset reached after ``seconds`` of thread time."""
        target_cycles = seconds * clock_hz
        return float(np.interp(target_cycles, self._cum_c, self._cum_i))
