"""Unit, property and statistical tests for stratified sampling
(Section III-C: Eq. 1 allocation, Eq. 4 standard error, size solver)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.sampling import (
    optimal_allocation,
    required_sample_size,
    stratified_sample,
    stratified_standard_error,
    z_for_confidence,
)


class TestZScore:
    def test_known_values(self):
        assert z_for_confidence(0.954) == pytest.approx(2.0, abs=0.01)
        assert z_for_confidence(0.997) == pytest.approx(2.97, abs=0.03)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            z_for_confidence(0.0)
        with pytest.raises(ValueError):
            z_for_confidence(1.0)


class TestOptimalAllocation:
    def test_eq1_proportions(self):
        """Allocation follows n_h ∝ N_h σ_h (Eq. 1) up to the floors."""
        N = np.array([100, 100])
        s = np.array([1.0, 3.0])
        alloc = optimal_allocation(N, s, 40)
        assert alloc.sum() == 40
        assert alloc[1] == pytest.approx(30, abs=1)

    def test_minimum_one_per_nonempty_stratum(self):
        N = np.array([1000, 5])
        s = np.array([10.0, 0.0])
        alloc = optimal_allocation(N, s, 10)
        assert alloc[1] >= 1

    def test_empty_stratum_gets_zero(self):
        N = np.array([100, 0, 100])
        s = np.array([1.0, 1.0, 1.0])
        alloc = optimal_allocation(N, s, 10)
        assert alloc[1] == 0

    def test_capped_by_stratum_size(self):
        N = np.array([3, 100])
        s = np.array([100.0, 0.1])
        alloc = optimal_allocation(N, s, 20)
        assert alloc[0] <= 3
        assert alloc.sum() == 20

    def test_zero_variances_fall_back_to_proportional(self):
        N = np.array([300, 100])
        s = np.array([0.0, 0.0])
        alloc = optimal_allocation(N, s, 40)
        assert alloc[0] > alloc[1]
        assert alloc.sum() == 40

    def test_n_exceeding_population_clamped(self):
        N = np.array([5, 5])
        s = np.array([1.0, 1.0])
        alloc = optimal_allocation(N, s, 100)
        assert alloc.sum() == 10

    def test_n_below_stratum_count_raises(self):
        with pytest.raises(ValueError):
            optimal_allocation(np.array([10, 10, 10]), np.ones(3), 2)

    def test_negative_inputs_raise(self):
        with pytest.raises(ValueError):
            optimal_allocation(np.array([-1, 5]), np.ones(2), 3)
        with pytest.raises(ValueError):
            optimal_allocation(np.array([5, 5]), np.array([1.0, -1.0]), 3)

    @given(
        sizes=st.lists(st.integers(0, 200), min_size=1, max_size=8),
        stds=st.data(),
        n=st.integers(1, 150),
    )
    @settings(max_examples=60)
    def test_invariants(self, sizes, stds, n):
        N = np.array(sizes, dtype=np.int64)
        s = np.array(
            stds.draw(
                st.lists(
                    st.floats(0, 10, allow_nan=False),
                    min_size=len(sizes),
                    max_size=len(sizes),
                )
            )
        )
        n_min = int((N > 0).sum())
        if n < n_min:
            with pytest.raises(ValueError):
                optimal_allocation(N, s, n)
            return
        alloc = optimal_allocation(N, s, n)
        assert (alloc >= 0).all()
        assert (alloc <= N).all()
        assert alloc.sum() == min(n, N.sum())
        assert ((N > 0) <= (alloc > 0)).all()  # non-empty => sampled

    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_uncapped_allocation_is_floor_then_neyman(self, sizes, data):
        """Without binding caps, n_h = 1 + (n − H)·N_h s_h / Σ N s ± 1."""
        N = np.array(sizes, dtype=np.int64)
        s = np.array(
            data.draw(
                st.lists(
                    st.one_of(st.just(0.0), st.floats(0.01, 5)),
                    min_size=len(sizes),
                    max_size=len(sizes),
                )
            )
        )
        weights = N * s
        total = weights.sum()
        if total <= 0:
            return  # proportional fallback, a different rule
        H = len(sizes)
        # The largest n at which no stratum's Neyman share exceeds the
        # N_h − 1 units left after its floor point.
        positive = weights > 0
        extra_max = int(np.min((N[positive] - 1) * total / weights[positive]))
        n = H + data.draw(st.integers(0, extra_max))
        alloc = optimal_allocation(N, s, n)
        ideal = 1 + (n - H) * weights / total
        assert alloc.sum() == n
        assert np.all(np.abs(alloc - ideal) <= 1 + 1e-9)


class TestStandardError:
    def test_eq4_hand_computed(self):
        N = np.array([80, 20])
        n = np.array([8, 2])
        s = np.array([0.5, 1.0])
        # (1/100) * sqrt(80^2*(1-0.1)*0.25/8 + 20^2*(1-0.1)*1/2)
        expected = np.sqrt(6400 * 0.9 * 0.25 / 8 + 400 * 0.9 * 1.0 / 2) / 100
        got = stratified_standard_error(N, n, s)
        assert got == pytest.approx(expected)

    def test_census_has_zero_error(self):
        N = np.array([10, 20])
        got = stratified_standard_error(N, N, np.array([1.0, 2.0]))
        assert got == pytest.approx(0.0)

    def test_empty_population_raises(self):
        with pytest.raises(ValueError):
            stratified_standard_error(np.zeros(2), np.zeros(2), np.ones(2))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="stratum count"):
            stratified_standard_error([10, 20], [2, 3], [1.0])
        with pytest.raises(ValueError, match="stratum count"):
            stratified_standard_error([10, 20], [2], [1.0, 2.0])

    @given(
        strata=st.lists(
            st.integers(0, 20).flatmap(
                lambda size: st.tuples(
                    st.just(size),
                    st.integers(0, size),
                    st.floats(0, 5, allow_nan=False),
                )
            ),
            min_size=1,
            max_size=6,
        )
    )
    # One sample of ten units: s_h comes from outside, so it still adds
    # N_h²(1 - 1/N_h)s_h² (= 360 here), not zero.
    @example(strata=[(10, 1, 2.0)])
    @example(strata=[(1, 1, 3.0), (4, 4, 1.5), (6, 2, 0.5)])
    @example(strata=[(5, 0, 2.0), (3, 1, 1.0)])
    @settings(max_examples=200, deadline=None)
    def test_matches_per_stratum_loop(self, strata):
        """Eq. 4 against a plain loop over the strata, written here.

        Covers one-unit strata, fully sampled strata (no variance left)
        and unsampled strata (no term).
        """
        sizes, samples, stds = (list(column) for column in zip(*strata))
        population = sum(sizes)
        assume(population > 0)
        variance = 0.0
        for size, n, std in strata:
            if n == 0:
                continue
            variance += size * size * (1 - n / size) * std * std / n
        expected = math.sqrt(variance) / population
        got = stratified_standard_error(sizes, samples, stds)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_matches_monte_carlo(self):
        """The analytic SE matches the empirical spread of the
        stratified estimator over many draws."""
        rng = np.random.default_rng(0)
        cpi = np.concatenate([
            rng.normal(1.0, 0.2, 300),
            rng.normal(3.0, 0.6, 100),
        ])
        assignments = np.array([0] * 300 + [1] * 100)
        estimates = []
        for i in range(400):
            est = stratified_sample(
                assignments, cpi, 24, rng=np.random.default_rng(1000 + i)
            )
            estimates.append(est.estimate)
        analytic = stratified_sample(
            assignments, cpi, 24, rng=np.random.default_rng(5)
        ).standard_error
        empirical = np.std(estimates)
        assert empirical == pytest.approx(analytic, rel=0.3)


class TestStratifiedSample:
    @pytest.fixture()
    def population(self):
        rng = np.random.default_rng(1)
        cpi = np.concatenate([
            rng.normal(1.0, 0.05, 200),   # calm phase
            rng.normal(2.0, 0.8, 100),    # wild phase
        ])
        assignments = np.array([0] * 200 + [1] * 100)
        return assignments, cpi

    def test_high_variance_phase_gets_more_points(self, population):
        assignments, cpi = population
        est = stratified_sample(assignments, cpi, 30,
                                rng=np.random.default_rng(0))
        # Phase 1 is 1/3 of the population but much noisier.
        assert est.allocation[1] > est.allocation[0]

    def test_selected_points_belong_to_population(self, population):
        assignments, cpi = population
        est = stratified_sample(assignments, cpi, 20,
                                rng=np.random.default_rng(0))
        assert est.sample_size == 20
        assert len(np.unique(est.selected)) == 20
        assert est.selected.max() < len(cpi)

    def test_estimate_unbiased(self, population):
        assignments, cpi = population
        estimates = [
            stratified_sample(
                assignments, cpi, 30, rng=np.random.default_rng(i)
            ).estimate
            for i in range(300)
        ]
        assert np.mean(estimates) == pytest.approx(cpi.mean(), rel=0.02)

    def test_confidence_interval_widens_with_confidence(self, population):
        assignments, cpi = population
        est = stratified_sample(assignments, cpi, 20,
                                rng=np.random.default_rng(0))
        lo95, hi95 = est.confidence_interval(0.95)
        lo997, hi997 = est.confidence_interval(0.997)
        assert hi997 - lo997 > hi95 - lo95
        assert lo95 < est.estimate < hi95

    def test_ci_coverage(self, population):
        """~99.7% of intervals cover the true mean."""
        assignments, cpi = population
        truth = cpi.mean()
        covered = 0
        trials = 300
        for i in range(trials):
            est = stratified_sample(
                assignments, cpi, 30, rng=np.random.default_rng(10_000 + i)
            )
            lo, hi = est.confidence_interval(0.997)
            covered += lo <= truth <= hi
        assert covered / trials > 0.97

    def test_mismatched_inputs_raise(self):
        with pytest.raises(ValueError):
            stratified_sample(np.zeros(5, dtype=int), np.ones(4), 2)


class TestRequiredSampleSize:
    @pytest.fixture()
    def strata(self):
        N = np.array([500, 300, 200])
        s = np.array([0.1, 0.4, 0.9])
        return N, s

    def test_solver_meets_target(self, strata):
        N, s = strata
        mean = 1.5
        for rel in (0.05, 0.02):
            n = required_sample_size(N, s, mean, relative_error=rel)
            alloc = optimal_allocation(N, s, n)
            se = stratified_standard_error(N, alloc, s)
            z = z_for_confidence(0.997)
            assert z * se <= rel * mean + 1e-12

    def test_solver_is_minimal(self, strata):
        N, s = strata
        mean = 1.5
        n = required_sample_size(N, s, mean, relative_error=0.05)
        if n > int((N > 0).sum()):
            alloc = optimal_allocation(N, s, n - 1)
            se = stratified_standard_error(N, alloc, s)
            assert z_for_confidence(0.997) * se > 0.05 * mean

    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=6),
        data=st.data(),
        mean=st.floats(0.5, 5.0),
        rel=st.floats(0.005, 0.5),
        confidence=st.sampled_from([0.9, 0.954, 0.997]),
    )
    @settings(max_examples=100, deadline=None)
    def test_solver_returns_true_minimum(
        self, sizes, data, mean, rel, confidence
    ):
        """Brute force over every n in [H, Σ N_h] on small populations."""
        N = np.array(sizes, dtype=np.int64)
        s = np.array(
            data.draw(
                st.lists(
                    st.floats(0, 5, allow_nan=False),
                    min_size=len(sizes),
                    max_size=len(sizes),
                )
            )
        )
        target = rel * mean / z_for_confidence(confidence)
        brute = next(
            n
            for n in range(len(sizes), int(N.sum()) + 1)
            if stratified_standard_error(N, optimal_allocation(N, s, n), s)
            <= target
        )
        assert required_sample_size(
            N, s, mean, relative_error=rel, confidence=confidence
        ) == brute

    def test_tighter_error_needs_more_points(self, strata):
        N, s = strata
        n5 = required_sample_size(N, s, 1.5, relative_error=0.05)
        n2 = required_sample_size(N, s, 1.5, relative_error=0.02)
        assert n2 >= n5

    def test_zero_variance_population_needs_minimum(self):
        N = np.array([100, 50])
        s = np.zeros(2)
        n = required_sample_size(N, s, 1.0, relative_error=0.05)
        assert n == 2  # one per stratum

    def test_rejects_bad_error(self, strata):
        N, s = strata
        with pytest.raises(ValueError):
            required_sample_size(N, s, 1.0, relative_error=0.0)
