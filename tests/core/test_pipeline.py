"""Integration tests for the SimProf facade on real workload traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import SimProf, SimProfConfig


class TestConfig:
    def test_defaults(self):
        cfg = SimProfConfig()
        assert cfg.unit_size == 100_000_000
        assert cfg.top_k_methods == 100
        assert cfg.max_phases == 20
        assert cfg.silhouette_threshold == 0.9

    def test_profiler_config_projection(self):
        cfg = SimProfConfig(unit_size=1000, snapshot_period=100, seed=7)
        pc = cfg.profiler_config(thread_id=2)
        assert pc.unit_size == 1000
        assert pc.snapshot_period == 100
        assert pc.thread_id == 2
        assert pc.seed == 7


class TestAnalyze:
    def test_end_to_end_on_wordcount(self, wc_spark_trace, simprof_tool):
        result = simprof_tool.analyze(wc_spark_trace, n_points=20)
        assert result.n_phases >= 1
        assert result.points.sample_size >= result.n_phases
        assert 0 <= result.sampling_error() < 0.5
        assert result.oracle_cpi() > 0
        lo, hi = result.points.confidence_interval(0.997)
        assert lo < result.points.estimate < hi

    def test_simulation_points_are_unit_ids(self, wc_spark_trace, simprof_tool):
        result = simprof_tool.analyze(wc_spark_trace, n_points=10)
        points = result.simulation_points
        assert len(np.unique(points)) == len(points)
        assert points.max() < result.job.n_units

    def test_phase_stats_populated(self, wc_spark_trace, simprof_tool):
        result = simprof_tool.analyze(wc_spark_trace)
        assert len(result.phase_stats) == result.n_phases
        assert sum(s.weight for s in result.phase_stats) == pytest.approx(1.0)

    def test_cov_report_shape(self, wc_spark_trace, simprof_tool):
        result = simprof_tool.analyze(wc_spark_trace)
        report = result.cov_report()
        assert report.weighted <= report.population + 1e-9

    def test_phase_type_map(self, wc_spark_trace, simprof_tool):
        result = simprof_tool.analyze(wc_spark_trace)
        types = result.phase_type_map()
        assert set(types) == set(range(result.n_phases))

    def test_deterministic_given_seed(self, wc_spark_trace, simprof_tool):
        a = simprof_tool.analyze(wc_spark_trace, n_points=20)
        b = simprof_tool.analyze(wc_spark_trace, n_points=20)
        np.testing.assert_array_equal(a.simulation_points, b.simulation_points)
        assert a.points.estimate == b.points.estimate

    def test_starts_no_process_pool(self, wc_spark_trace, simprof_tool, monkeypatch):
        """The facade runs in-process whatever ``SIMPROF_JOBS`` says: the
        runner's ``map_tasks`` is the one pool, and it fans out stage
        nodes, not the k-sweep inside one."""
        from repro.runtime import runner

        pools = []
        real_pool = runner.ProcessPoolExecutor

        def spy(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        monkeypatch.setenv("SIMPROF_JOBS", "1")
        serial = simprof_tool.analyze(wc_spark_trace, n_points=20)
        monkeypatch.setenv("SIMPROF_JOBS", "2")
        monkeypatch.setattr(runner, "ProcessPoolExecutor", spy)
        fanned = simprof_tool.analyze(wc_spark_trace, n_points=20)
        assert pools == []
        assert len(fanned.model.silhouette_by_k) > 2
        np.testing.assert_array_equal(
            fanned.simulation_points, serial.simulation_points
        )
        np.testing.assert_array_equal(
            fanned.model.assignments, serial.model.assignments
        )


class TestSampleSizeFor:
    def test_tighter_error_needs_more(self, wc_spark_profile, wc_spark_model,
                                      simprof_tool):
        n5 = simprof_tool.sample_size_for(
            wc_spark_profile, wc_spark_model, relative_error=0.05
        )
        n2 = simprof_tool.sample_size_for(
            wc_spark_profile, wc_spark_model, relative_error=0.02
        )
        assert n2 >= n5 >= wc_spark_model.k

    def test_achieves_error_bound_empirically(
        self, wc_spark_profile, wc_spark_model, simprof_tool
    ):
        """Drawing the solver's sample size hits the error target in the
        vast majority of draws (the CI is 99.7%)."""
        n = simprof_tool.sample_size_for(
            wc_spark_profile, wc_spark_model, relative_error=0.05
        )
        oracle = wc_spark_profile.oracle_cpi()
        hits = 0
        trials = 60
        for i in range(trials):
            est = simprof_tool.select_points(
                wc_spark_profile,
                wc_spark_model,
                n,
                rng=np.random.default_rng(100 + i),
            )
            hits += abs(est.estimate - oracle) / oracle <= 0.05
        assert hits / trials > 0.9


class TestInputSensitivityIntegration:
    def test_cc_inputs_produce_result(self, simprof_tool, cc_spark_trace):
        from repro.datagen.seeds import GRAPH_INPUTS
        from repro.workloads import run_workload
        from tests.conftest import TEST_SCALE

        train = simprof_tool.profile(cc_spark_trace)
        model = simprof_tool.form_phases(train)
        ref_trace = run_workload(
            "cc",
            "spark",
            scale=TEST_SCALE,
            seed=0,
            graph=GRAPH_INPUTS["Road"],
            input_name="Road",
        )
        ref = simprof_tool.profile(ref_trace)
        result = simprof_tool.input_sensitivity(model, train, {"Road": ref})
        assert len(result.phases) == model.k
        assert set(result.ref_stats) == {"Road"}
