"""Parity and property tests for the phase-formation fast path.

The fast path (shared-distance silhouette, parallel k-sweep, batched
featurization, sweep-result reuse) must be *pure acceleration*: every
test here pins its output to the straightforward pre-fast-path
implementations kept in :mod:`repro.core._reference` — bitwise for
feature matrices, phase counts, assignments and centres; ``allclose``
for silhouette scores, whose summation order legitimately changed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core._reference import (
    reference_build_feature_matrix,
    reference_choose_k,
    reference_silhouette_score,
)
from repro.core.clustering import (
    SilhouetteDistances,
    choose_k,
    kmeans,
    pick_k,
    select_phases,
    silhouette_score,
    sweep_k,
)
from repro.core.features import FeatureSpace, UnitFeaturizer, build_feature_matrix
from repro.core.phases import PhaseModel
from repro.core.units import SamplingUnit, ThreadProfile
from repro.runtime.store import ArtifactStore
from tests.helpers import PhaseSpec, make_synthetic_profile


def blobs(centers, n_per, spread, seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack(
        [rng.normal(c, spread, size=(n_per, len(c))) for c in centers]
    )


def two_phase_job(seed=0, n=40):
    return make_synthetic_profile(
        [
            PhaseSpec(n_units=n, cpi_mean=0.6, cpi_std=0.02, stack_index=0),
            PhaseSpec(n_units=n, cpi_mean=1.6, cpi_std=0.05, stack_index=1),
        ],
        seed=seed,
    )


class TestFeaturizerParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_matrix_bitwise_vs_reference(self, seed, normalize):
        job = two_phase_job(seed=seed)
        fast = build_feature_matrix(job, normalize=normalize)
        ref = reference_build_feature_matrix(job, normalize=normalize)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)

    def test_single_stack_units(self):
        job = two_phase_job()
        for i, unit in enumerate(job.profile.units):
            job.profile.units[i] = SamplingUnit(
                index=unit.index,
                stack_ids=unit.stack_ids[:1],
                stack_counts=unit.stack_counts[:1],
                instructions=unit.instructions,
                cycles=unit.cycles,
                l1d_misses=unit.l1d_misses,
                llc_misses=unit.llc_misses,
            )
        fast = build_feature_matrix(job)
        ref = reference_build_feature_matrix(job)
        assert np.array_equal(fast, ref)

    def test_empty_stack_unit_row_is_zero(self):
        job = two_phase_job()
        unit = job.profile.units[0]
        job.profile.units[0] = SamplingUnit(
            index=unit.index,
            stack_ids=np.zeros(0, dtype=np.int64),
            stack_counts=np.zeros(0, dtype=np.float64),
            instructions=unit.instructions,
            cycles=unit.cycles,
            l1d_misses=unit.l1d_misses,
            llc_misses=unit.llc_misses,
        )
        fast = build_feature_matrix(job)
        ref = reference_build_feature_matrix(job)
        assert np.array_equal(fast, ref)
        assert not fast[0].any()

    def test_empty_profile(self):
        job = two_phase_job()
        job.profile = ThreadProfile(
            thread_id=0, unit_size=1, snapshot_period=1, units=[]
        )
        fast = build_feature_matrix(job)
        assert fast.shape == (0, len(job.registry))

    def test_project_job_equals_row_loop(self):
        train = two_phase_job(seed=0)
        other = two_phase_job(seed=3)
        space, _X = FeatureSpace.fit(train, top_k=50)
        batched = space.project_job(other)
        featurizer = UnitFeaturizer(space, other.registry, other.stack_table)
        looped = np.vstack(
            [featurizer.row(u) for u in other.profile.units]
        )
        assert np.array_equal(batched, looped)


class TestSilhouetteSharing:
    def test_exact_path_ignores_seed(self):
        X = blobs([[0, 0], [6, 6]], 20, 0.3)
        labels = kmeans(X, 2, seed=0).assignments
        a = silhouette_score(X, labels, seed=0)
        b = silhouette_score(X, labels, seed=99)
        assert a == b  # exact path never draws from the seed

    def test_subsample_deterministic_per_seed(self):
        X = blobs([[0, 0], [6, 6]], 60, 0.3)
        labels = kmeans(X, 2, seed=0).assignments
        a = silhouette_score(X, labels, max_points=40, seed=7)
        b = silhouette_score(X, labels, max_points=40, seed=7)
        assert a == b
        d1 = SilhouetteDistances.build(X, max_points=40, seed=7)
        d2 = SilhouetteDistances.build(X, max_points=40, seed=7)
        assert np.array_equal(d1.idx, d2.idx)
        assert np.array_equal(d1.dist, d2.dist)
        assert not d1.exact

    def test_prebuilt_distances_match_direct_call(self):
        X = blobs([[0, 0], [6, 6], [0, 6]], 25, 0.4)
        dist = SilhouetteDistances.build(X, max_points=3000, seed=0)
        assert dist.exact
        for k in (2, 3, 4):
            labels = kmeans(X, k, seed=0).assignments
            assert silhouette_score(X, labels, distances=dist) == (
                silhouette_score(X, labels)
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_exact(self, seed):
        X = blobs([[0, 0], [6, 6], [0, 6]], 20, 0.5, seed=seed)
        labels = kmeans(X, 3, seed=seed).assignments
        fast = silhouette_score(X, labels)
        ref = reference_silhouette_score(X, labels)
        assert np.isclose(fast, ref, rtol=1e-9, atol=1e-12)

    def test_matches_reference_subsampled(self):
        X = blobs([[0, 0], [8, 8]], 100, 0.5)
        labels = kmeans(X, 2, seed=0).assignments
        # Same seed -> same subsample indices -> comparable estimates.
        fast = silhouette_score(X, labels, max_points=50, seed=3)
        ref = reference_silhouette_score(X, labels, max_points=50, seed=3)
        assert np.isclose(fast, ref, rtol=1e-9, atol=1e-12)

    def test_rejects_mismatched_assignments(self):
        X = blobs([[0, 0], [6, 6]], 10, 0.3)
        dist = SilhouetteDistances.build(X)
        with pytest.raises(ValueError):
            dist.score(np.zeros(5, dtype=np.int64))


class TestPickK:
    def test_prefers_smallest_qualifying_k(self):
        assert pick_k({2: 0.81, 3: 0.9, 4: 0.89}) == 2

    def test_fallback_is_smallest_best_k(self):
        # No k clears an above-best cutoff; among the tied best scores
        # the smallest k must win regardless of dict insertion order.
        scores = {4: 0.6, 3: 0.6, 2: 0.5}
        assert pick_k(scores, score_threshold=1.5, min_structure=0.0) == 3

    def test_below_min_structure_returns_one(self):
        assert pick_k({2: 0.2, 3: 0.3}) == 1

    def test_empty_scores_return_one(self):
        assert pick_k({}) == 1


class TestSweepParity:
    def test_serial_and_parallel_sweeps_bitwise_identical(self):
        X = blobs([[0, 0], [8, 8], [0, 8]], 40, 0.4)
        s_scores, s_results = sweep_k(X, k_max=6, seed=0, jobs=1)
        p_scores, p_results = sweep_k(X, k_max=6, seed=0, jobs=2)
        assert list(s_scores.items()) == list(p_scores.items())
        assert list(s_results) == list(p_results)
        for k in s_results:
            assert np.array_equal(s_results[k].centers, p_results[k].centers)
            assert np.array_equal(
                s_results[k].assignments, p_results[k].assignments
            )
            assert s_results[k].inertia == p_results[k].inertia

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_select_phases_matches_reference(self, seed):
        X = blobs([[0, 0], [8, 8], [0, 8]], 30, 0.5, seed=seed)
        k, scores, result = select_phases(X, k_max=6, seed=seed, jobs=1)
        k_ref, scores_ref, result_ref = reference_choose_k(
            X, k_max=6, seed=seed
        )
        assert k == k_ref
        assert sorted(scores) == sorted(scores_ref)
        for kk in scores:
            assert np.isclose(
                scores[kk], scores_ref[kk], rtol=1e-9, atol=1e-12
            )
        assert (result is None) == (result_ref is None)
        if result is not None:
            assert np.array_equal(result.centers, result_ref.centers)
            assert np.array_equal(result.assignments, result_ref.assignments)

    def test_choose_k_wrapper_matches_select_phases(self):
        X = blobs([[0, 0], [8, 8]], 30, 0.4)
        k, scores = choose_k(X, k_max=5, seed=0)
        k2, scores2, _result = select_phases(X, k_max=5, seed=0)
        assert (k, scores) == (k2, scores2)

    def test_degenerate_inputs(self):
        assert select_phases(np.zeros((2, 3))) == (1, {1: 0.0}, None)
        constant = np.ones((30, 4))
        assert select_phases(constant) == (1, {1: 0.0}, None)
        assert reference_choose_k(constant) == (1, {1: 0.0}, None)


class TestPhaseModelFastPath:
    def test_fit_matches_reference_pipeline_bitwise(self):
        job = two_phase_job()
        model = PhaseModel.fit(job, top_k=50, max_phases=5, seed=0)

        X_full = reference_build_feature_matrix(job)
        space, X_sel = FeatureSpace.fit(job, top_k=50)
        assert np.array_equal(X_sel, space.transform(X_full))
        k_ref, _scores, result_ref = reference_choose_k(
            X_sel, k_max=5, score_threshold=0.9, seed=0
        )
        assert model.k == k_ref
        assert result_ref is not None
        assert np.array_equal(model.assignments, result_ref.assignments)
        assert np.array_equal(model.centers, result_ref.centers)

    def test_fit_parallel_jobs_bitwise_identical(self):
        job = two_phase_job()
        serial = PhaseModel.fit(job, top_k=50, max_phases=5, seed=0, jobs=1)
        parallel = PhaseModel.fit(job, top_k=50, max_phases=5, seed=0, jobs=2)
        assert serial.k == parallel.k
        assert np.array_equal(serial.assignments, parallel.assignments)
        assert np.array_equal(serial.centers, parallel.centers)
        assert list(serial.silhouette_by_k.items()) == (
            list(parallel.silhouette_by_k.items())
        )

    def test_fit_with_feature_cache_bit_identical(self, tmp_path):
        """Features served from a store entry (the graph's featurize
        stage) fit the same model as features computed in ``fit``."""
        job = two_phase_job()
        store = ArtifactStore(tmp_path)
        store.put("featurize", FeatureSpace.fit(job, top_k=50))
        store.clear_memory()
        cached = store.get("featurize")
        warm = PhaseModel.fit(
            job, top_k=50, max_phases=5, seed=0, features=cached
        )
        plain = PhaseModel.fit(job, top_k=50, max_phases=5, seed=0)
        assert warm.k == plain.k
        assert np.array_equal(warm.assignments, plain.assignments)
        assert np.array_equal(warm.centers, plain.centers)
        assert tuple(warm.space.method_fqns) == tuple(plain.space.method_fqns)


class TestContentDigest:
    def test_stable_and_reproducible(self):
        a = two_phase_job(seed=0)
        b = two_phase_job(seed=0)
        assert a.content_digest() == a.content_digest()
        assert a.content_digest() == b.content_digest()

    def test_sensitive_to_counters(self):
        a = two_phase_job(seed=0)
        b = two_phase_job(seed=0)
        unit = b.profile.units[0]
        b.profile.units[0] = SamplingUnit(
            index=unit.index,
            stack_ids=unit.stack_ids,
            stack_counts=unit.stack_counts,
            instructions=unit.instructions,
            cycles=unit.cycles + 1.0,
            l1d_misses=unit.l1d_misses,
            llc_misses=unit.llc_misses,
        )
        assert a.content_digest() != b.content_digest()

    def test_sensitive_to_identity_and_geometry(self):
        a = two_phase_job(seed=0)
        c = two_phase_job(seed=0)
        c.input_name = "other"
        assert a.content_digest() != c.content_digest()
        d = two_phase_job(seed=0)
        d.profile.unit_size += 1
        assert a.content_digest() != d.content_digest()
