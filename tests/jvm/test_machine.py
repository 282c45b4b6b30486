"""Unit tests for the hardware model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jvm.machine import (
    AccessPattern,
    HardwareModel,
    MachineConfig,
    OpKind,
)


@pytest.fixture()
def model() -> HardwareModel:
    return HardwareModel(MachineConfig(noise_sigma=0.0))


class TestAccessPattern:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            AccessPattern("diagonal", 1024)

    def test_rejects_negative_working_set(self):
        with pytest.raises(ValueError):
            AccessPattern.sequential(-1)

    def test_rejects_bad_api(self):
        with pytest.raises(ValueError):
            AccessPattern("random", 1024, accesses_per_instruction=2.0)

    def test_constructors(self):
        assert AccessPattern.sequential(10).kind == "sequential"
        assert AccessPattern.random(10).kind == "random"
        assert AccessPattern.pointer(10).kind == "pointer"


class TestMachineConfig:
    def test_hardware_threads(self):
        cfg = MachineConfig(cores=4, smt_per_core=2)
        assert cfg.hardware_threads == 8

    def test_seconds_conversion(self):
        cfg = MachineConfig(clock_ghz=2.0)
        assert cfg.seconds(2e9) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(cores=0)
        with pytest.raises(ValueError):
            MachineConfig(prefetch_efficiency=1.5)
        with pytest.raises(ValueError):
            MachineConfig(migration_probability=2.0)


class TestMissRates:
    def test_small_working_set_hits(self, model):
        l1, llc = model.miss_rates(AccessPattern.random(1024))
        assert llc < 1e-3

    def test_big_working_set_misses_llc(self, model):
        small = model.miss_rates(AccessPattern.random(1e6))[1]
        big = model.miss_rates(AccessPattern.random(100e6))[1]
        assert big > small

    def test_contention_shrinks_effective_cache(self, model):
        ws = 4e6  # fits the 10 MB LLC alone, not an eighth of it
        alone = model.miss_rates(AccessPattern.random(ws), contention=1)[1]
        shared = model.miss_rates(AccessPattern.random(ws), contention=8)[1]
        assert shared > alone

    def test_cold_cache_raises_misses(self, model):
        warm = model.miss_rates(AccessPattern.random(1e6))[0]
        cold = model.miss_rates(AccessPattern.random(1e6), cold=True)[0]
        assert cold > warm

    def test_sequential_misses_bounded_by_line_size(self, model):
        l1, llc = model.miss_rates(AccessPattern.sequential(100e6))
        assert llc <= l1  # cannot miss LLC more often than L1

    @given(
        ws=st.floats(min_value=1.0, max_value=1e9),
        contention=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=50)
    def test_rates_always_valid(self, ws, contention):
        model = HardwareModel(MachineConfig(noise_sigma=0.0))
        for pattern in (
            AccessPattern.sequential(ws),
            AccessPattern.random(ws),
            AccessPattern.pointer(ws),
        ):
            l1, llc = model.miss_rates(pattern, contention=contention)
            assert 0.0 <= llc <= l1 <= 1.0


def _reference_cost(model, op_kind, access, instructions, rng, contention,
                    cold, retired):
    """The pricing formula evaluated term by term, with nothing memoised."""
    cfg = model.config
    insts = max(1, int(round(instructions)))
    l1_rate, llc_rate = model.miss_rates(access, contention=contention, cold=cold)
    l1_misses = insts * l1_rate
    llc_misses = insts * llc_rate
    cycles = (
        insts * model.base_cpi(op_kind)
        + l1_misses * cfg.l1_miss_penalty
        + llc_misses * model._memory_penalty(access)
    )
    cycles *= model.jit_multiplier(retired)
    if cfg.noise_sigma > 0.0:
        cycles *= math.exp(rng.normal(0.0, cfg.noise_sigma))
    return (
        insts,
        max(1, int(round(cycles))),
        int(round(l1_misses)),
        int(round(llc_misses)),
    )


class TestCost:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(OpKind)),
                st.sampled_from(["sequential", "random", "pointer"]),
                st.sampled_from([0.0, 4e3, 3e4, 1e6, 2e7, 3e8]),
                st.integers(1, 8),
                st.booleans(),
                st.floats(0.0, 1e8),
                st.floats(0.0, 1e10),
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([0.0, 0.5]),
        st.sampled_from([0.0, 0.03]),
    )
    @settings(max_examples=60, deadline=None)
    def test_memoised_terms_match_the_formula(self, requests, jit, sigma):
        # Few distinct working sets, so later requests hit the memo.
        model = HardwareModel(
            MachineConfig(noise_sigma=sigma, jit_warmup_penalty=jit)
        )
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        for op_kind, kind, ws, contention, cold, insts, retired in requests:
            access = AccessPattern(kind, ws)
            got = model.cost(
                op_kind, access, insts, rng_a, contention=contention,
                cold=cold, retired_instructions=retired,
            )
            assert tuple(got) == _reference_cost(
                model, op_kind, access, insts, rng_b, contention, cold, retired
            )

    def test_cpi_grows_with_working_set(self, model, rng):
        seq = model.cost(OpKind.MAP, AccessPattern.sequential(1e4), 1e6, rng)
        rand = model.cost(OpKind.REDUCE, AccessPattern.random(100e6), 1e6, rng)
        assert rand.cpi > seq.cpi

    def test_io_has_higher_base_cpi_than_map(self, model):
        assert model.base_cpi(OpKind.IO) > model.base_cpi(OpKind.MAP)

    def test_deterministic_without_noise(self, model):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        a = model.cost(OpKind.MAP, AccessPattern.sequential(1e5), 1e6, rng1)
        b = model.cost(OpKind.MAP, AccessPattern.sequential(1e5), 1e6, rng2)
        assert a == b

    def test_noise_perturbs_cycles_only(self, rng):
        noisy = HardwareModel(MachineConfig(noise_sigma=0.05))
        costs = {
            noisy.cost(OpKind.MAP, AccessPattern.sequential(1e5), 1e6, rng).cycles
            for _ in range(10)
        }
        assert len(costs) > 1

    def test_instruction_count_unscaled(self, model, rng):
        # instruction_scale is applied by the trace builder, not here.
        cost = model.cost(OpKind.MAP, AccessPattern.sequential(1e4), 12345, rng)
        assert cost.instructions == 12345

    def test_cpi_property(self, model, rng):
        cost = model.cost(OpKind.MAP, AccessPattern.sequential(1e4), 1e6, rng)
        assert cost.cpi == pytest.approx(cost.cycles / cost.instructions)

    def test_realistic_cpi_range(self, model, rng):
        """Sanity: CPIs stay in a plausible 0.4-8 band."""
        for kind, ws, pattern in [
            (OpKind.MAP, 1e5, "sequential"),
            (OpKind.SORT, 50e6, "random"),
            (OpKind.IO, 1e6, "sequential"),
            (OpKind.GC, 30e6, "pointer"),
        ]:
            access = AccessPattern(pattern, ws)
            cost = model.cost(kind, access, 1e6, rng, contention=8)
            assert 0.4 <= cost.cpi <= 8.0, (kind, cost.cpi)

    def test_migration_probability_zero_never_migrates(self, rng):
        model = HardwareModel(MachineConfig(migration_probability=0.0))
        assert not any(model.migration_occurs(rng) for _ in range(100))

    def test_migration_probability_one_always_migrates(self, rng):
        model = HardwareModel(MachineConfig(migration_probability=1.0))
        assert all(model.migration_occurs(rng) for _ in range(10))


class TestOpKind:
    def test_phase_type_flags(self):
        assert OpKind.MAP.is_phase_type
        assert OpKind.SORT.is_phase_type
        assert not OpKind.GC.is_phase_type
        assert not OpKind.FRAMEWORK.is_phase_type
