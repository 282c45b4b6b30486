"""Shared test helpers: synthetic traces and profiles.

Core-algorithm tests should not need to run a whole workload; these
builders produce controlled traces (known phase structure, known CPI
per phase) so assertions can be exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.units import JobProfile, SamplingUnit, ThreadProfile
from repro.jvm.machine import MachineConfig
from repro.jvm.methods import CallStack, MethodRegistry, StackTable
from repro.jvm.threads import ThreadTrace, TraceSegment
from repro.jvm.machine import OpKind

__all__ = [
    "PhaseSpec",
    "make_registry_with_stacks",
    "make_trace",
    "make_synthetic_profile",
]


@dataclass(frozen=True)
class PhaseSpec:
    """Blueprint of one synthetic phase."""

    n_units: int
    cpi_mean: float
    cpi_std: float
    # index of the stack (from the shared stack list) that dominates
    stack_index: int
    op_kind: OpKind = OpKind.MAP


def busiest_thread(job) -> ThreadTrace:
    """The thread that retired the most instructions (the default pick)."""
    return max(job.traces, key=lambda t: t.total_instructions)


def make_registry_with_stacks(
    n_stacks: int = 4, depth: int = 5
) -> tuple[MethodRegistry, StackTable, list[CallStack]]:
    """A registry with ``n_stacks`` distinct stacks sharing a base."""
    registry = MethodRegistry()
    table = StackTable(registry)
    base = CallStack(
        (
            registry.intern("java.lang.Thread", "run"),
            registry.intern("framework.Task", "run"),
        )
    )
    stacks = []
    for i in range(n_stacks):
        stack = base
        for d in range(depth - 2):
            stack = stack.push(registry.intern(f"workload.Op{i}", f"step{d}"))
        table.intern(stack)
        stacks.append(stack)
    return registry, table, stacks


def make_trace(
    segments: list[tuple[CallStack, float, float]],
    table: StackTable,
    thread_id: int = 0,
    op_kind: OpKind = OpKind.MAP,
) -> ThreadTrace:
    """Trace from ``(stack, instructions, cpi)`` triples."""
    trace = ThreadTrace(thread_id=thread_id, core_id=0)
    for stack, insts, cpi in segments:
        insts_i = int(insts)
        trace.append(
            TraceSegment(
                stack_id=table.intern(stack),
                op_kind=op_kind,
                instructions=insts_i,
                cycles=max(1, int(insts_i * cpi)),
                l1d_misses=insts_i // 100,
                llc_misses=insts_i // 1000,
            )
        )
    return trace


def make_synthetic_profile(
    phases: list[PhaseSpec],
    *,
    seed: int = 0,
    snapshots_per_unit: int = 20,
    unit_size: int = 1_000_000,
    shuffle_units: bool = True,
    workload: str = "synthetic",
    framework: str = "spark",
    input_name: str = "default",
) -> JobProfile:
    """A JobProfile with exactly the requested phase structure.

    Each unit's snapshots are all drawn from its phase's dominant stack
    (plus one snapshot of a shared base stack so phases overlap in some
    dimensions); CPIs are normal around the phase mean.
    """
    n_stacks = max(p.stack_index for p in phases) + 2
    registry, table, stacks = make_registry_with_stacks(n_stacks=n_stacks)
    shared = stacks[-1]
    rng = np.random.default_rng(seed)

    units: list[SamplingUnit] = []
    order: list[int] = []
    for phase_id, spec in enumerate(phases):
        for _ in range(spec.n_units):
            order.append(phase_id)
    if shuffle_units:
        rng.shuffle(order)

    for index, phase_id in enumerate(order):
        spec = phases[phase_id]
        dominant = table.intern(stacks[spec.stack_index])
        base = table.intern(shared)
        ids = np.array(sorted({dominant, base}), dtype=np.int64)
        counts = np.array(
            [snapshots_per_unit - 1, 1]
            if dominant < base
            else [1, snapshots_per_unit - 1],
            dtype=np.int64,
        )
        cpi = max(0.05, rng.normal(spec.cpi_mean, spec.cpi_std))
        units.append(
            SamplingUnit(
                index=index,
                stack_ids=ids,
                stack_counts=counts,
                instructions=float(unit_size),
                cycles=float(unit_size) * cpi,
                l1d_misses=unit_size / 100,
                llc_misses=unit_size / 1000,
            )
        )
    profile = ThreadProfile(
        thread_id=0,
        unit_size=unit_size,
        snapshot_period=unit_size // snapshots_per_unit,
        units=units,
    )
    return JobProfile(
        workload=workload,
        framework=framework,
        input_name=input_name,
        profile=profile,
        registry=registry,
        stack_table=table,
        machine=MachineConfig(),
    )
