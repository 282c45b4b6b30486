"""Unit tests for feature vectorisation and selection (Section III-B)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import features
from repro.core._reference import reference_select_features
from repro.core.features import (
    FeatureSpace,
    _f_critical_bracket,
    build_feature_matrix,
    select_features,
    univariate_regression_scores,
)
from tests.helpers import PhaseSpec, make_synthetic_profile


@pytest.fixture()
def two_phase_job():
    return make_synthetic_profile(
        [
            PhaseSpec(n_units=40, cpi_mean=1.0, cpi_std=0.02, stack_index=0),
            PhaseSpec(n_units=40, cpi_mean=3.0, cpi_std=0.05, stack_index=1),
        ],
        seed=1,
    )


class TestBuildFeatureMatrix:
    def test_shape(self, two_phase_job):
        X = build_feature_matrix(two_phase_job)
        assert X.shape == (80, len(two_phase_job.registry))

    def test_rows_normalised(self, two_phase_job):
        X = build_feature_matrix(two_phase_job)
        np.testing.assert_allclose(X.sum(axis=1), 1.0)

    def test_raw_counts_mode(self, two_phase_job):
        raw = build_feature_matrix(two_phase_job, normalize=False)
        # Every unit has 20 snapshots over stacks of depth 5.
        assert raw.sum(axis=1).min() == pytest.approx(100)

    def test_shared_base_frames_in_every_unit(self, two_phase_job):
        X = build_feature_matrix(two_phase_job)
        # Thread.run (method id 0) is on every stack.
        assert (X[:, 0] > 0).all()


class TestRegressionScores:
    def test_correlated_feature_scores_high(self):
        rng = np.random.default_rng(0)
        n = 200
        y = rng.normal(1.0, 0.3, n)
        X = np.column_stack([
            y + rng.normal(0, 0.01, n),     # strongly correlated
            rng.normal(0, 1, n),            # noise
            np.full(n, 0.5),                # constant
        ])
        scores = univariate_regression_scores(X, y)
        assert scores[0] > scores[1]
        assert scores[2] == 0.0

    def test_too_few_units(self):
        scores = univariate_regression_scores(np.ones((2, 3)), np.ones(2))
        assert (scores == 0).all()

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            univariate_regression_scores(np.ones((5, 2)), np.ones(4))


class TestSelectFeatures:
    def test_selects_phase_discriminating_methods(self, two_phase_job):
        X = build_feature_matrix(two_phase_job)
        ipc = two_phase_job.profile.ipc()
        ids, scores = select_features(X, ipc, top_k=10)
        assert len(ids) > 0
        # The selected methods must include the phase-specific ops,
        # whose frequency tracks the CPI split.
        names = {two_phase_job.registry.fqn(int(m)) for m in ids}
        assert any("Op0" in n or "Op1" in n for n in names)

    def test_flat_ipc_selects_nothing(self):
        job = make_synthetic_profile(
            [
                PhaseSpec(n_units=40, cpi_mean=1.0, cpi_std=0.0, stack_index=0),
                PhaseSpec(n_units=40, cpi_mean=1.0, cpi_std=0.0, stack_index=1),
            ],
            seed=0,
        )
        X = build_feature_matrix(job)
        ids, _ = select_features(X, job.profile.ipc(), top_k=10)
        assert len(ids) == 0

    def test_top_k_bounds_count(self, two_phase_job):
        X = build_feature_matrix(two_phase_job)
        ipc = two_phase_job.profile.ipc()
        ids, _ = select_features(X, ipc, top_k=2)
        assert len(ids) <= 2

    def test_min_appearances_floor(self, two_phase_job):
        X = build_feature_matrix(two_phase_job)
        raw = build_feature_matrix(two_phase_job, normalize=False)
        ipc = two_phase_job.profile.ipc()
        # An absurd floor removes everything.
        ids, _ = select_features(
            X, ipc, mean_appearances=raw.mean(axis=0), min_appearances=1e9
        )
        assert len(ids) == 0


class TestSelectFeaturesMatchesScipy:
    """The bracketed F-test decides every method as scipy's value does."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 80),
        n_features=st.integers(0, 12),
        significance=st.floats(1e-12, 1.0),
        min_r2=st.floats(0.0, 0.95),
        top_k=st.integers(1, 15),
        with_appearances=st.booleans(),
    )
    def test_equals_reference(
        self, seed, n, n_features, significance, min_r2, top_k, with_appearances
    ):
        rng = np.random.default_rng(seed)
        ipc = rng.normal(1.0, 0.3, n)
        # Columns from pure noise to near-copies of the IPC, so scores
        # land on both sides of the critical value.
        strength = rng.uniform(0.0, 3.0, n_features)
        X = ipc[:, None] * strength + rng.normal(0.0, 1.0, (n, n_features))
        appearances = rng.uniform(0.0, 2.0, n_features) if with_appearances else None
        kwargs = dict(
            top_k=top_k,
            significance=significance,
            mean_appearances=appearances,
            min_r2=min_r2,
        )
        ids, scores = select_features(X, ipc, **kwargs)
        ref_ids, ref_scores = reference_select_features(X, ipc, **kwargs)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(scores, ref_scores)

    @staticmethod
    def _data():
        rng = np.random.default_rng(3)
        ipc = rng.normal(1.0, 0.3, 50)
        X = np.column_stack([ipc + rng.normal(0.0, 0.8, 50), rng.normal(0, 1, 50)])
        return X, ipc

    def _count_scipy_calls(self, monkeypatch):
        calls = []
        exact = features._f_critical

        def counted(q, dfd):
            calls.append((q, dfd))
            return exact(q, dfd)

        monkeypatch.setattr(features, "_f_critical", counted)
        return calls

    def test_score_inside_the_bracket_asks_scipy(self, monkeypatch):
        from scipy import special

        X, ipc = self._data()
        score = univariate_regression_scores(X, ipc)[0]
        dfd = len(ipc) - 2
        # The significance whose critical value is this very score.
        q = float(special.fdtrc(1, dfd, score))
        significance = q * X.shape[1]
        lo, hi = _f_critical_bracket(min(1.0, significance / X.shape[1]), dfd)
        assert lo < score <= hi
        calls = self._count_scipy_calls(monkeypatch)
        kwargs = dict(significance=significance, min_r2=0.0)
        ids, _ = select_features(X, ipc, **kwargs)
        assert len(calls) == 1
        ref_ids, _ = reference_select_features(X, ipc, **kwargs)
        np.testing.assert_array_equal(ids, ref_ids)

    def test_scores_outside_the_bracket_leave_scipy_alone(self, monkeypatch):
        X, ipc = self._data()
        calls = self._count_scipy_calls(monkeypatch)
        ids, _ = select_features(X, ipc, significance=0.01, min_r2=0.0)
        assert calls == []
        assert ids.tolist() == [0]


class TestFeatureSpace:
    def test_fit_returns_selected_matrix(self, two_phase_job):
        space, X_sel = FeatureSpace.fit(two_phase_job, top_k=50)
        assert X_sel.shape == (80, space.n_features)
        assert len(space.method_fqns) == space.n_features

    def test_transform_slices_columns(self, two_phase_job):
        space, X_sel = FeatureSpace.fit(two_phase_job)
        X_full = build_feature_matrix(two_phase_job)
        np.testing.assert_allclose(space.transform(X_full), X_sel)

    def test_project_job_self_consistent(self, two_phase_job):
        """Projecting the training job reproduces the training matrix."""
        space, X_sel = FeatureSpace.fit(two_phase_job)
        X_proj = space.project_job(two_phase_job)
        np.testing.assert_allclose(X_proj, X_sel, atol=1e-12)

    def test_project_job_matches_methods_by_name(self):
        """A reference profile with a different registry projects into
        the training space through method names."""
        train = make_synthetic_profile(
            [
                PhaseSpec(n_units=30, cpi_mean=1.0, cpi_std=0.02, stack_index=0),
                PhaseSpec(n_units=30, cpi_mean=2.5, cpi_std=0.05, stack_index=1),
            ],
            seed=2,
        )
        # Same structure, independent registry (fresh intern order).
        ref = make_synthetic_profile(
            [
                PhaseSpec(n_units=20, cpi_mean=1.1, cpi_std=0.02, stack_index=1),
                PhaseSpec(n_units=20, cpi_mean=2.4, cpi_std=0.05, stack_index=0),
            ],
            seed=3,
        )
        space, _ = FeatureSpace.fit(train)
        X_ref = space.project_job(ref)
        assert X_ref.shape == (40, space.n_features)
        assert X_ref.sum() > 0  # names resolved across registries
