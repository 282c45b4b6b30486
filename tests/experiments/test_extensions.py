"""Small-scale integration tests for the ablation/extension drivers."""

from __future__ import annotations

import pytest

from repro.core.pipeline import SimProfConfig
from repro.experiments.common import ExperimentConfig

CFG = ExperimentConfig(
    scale=0.1,
    n_sampling_draws=3,
    simprof=SimProfConfig(unit_size=20_000_000, snapshot_period=1_000_000),
)


@pytest.mark.slow
class TestAblationDrivers:
    def test_allocation(self):
        from repro.experiments.ablations import run_allocation_ablation

        result = run_allocation_ablation(CFG)
        assert len(result.rows) == 3
        for _label, neyman, proportional, srs in result.rows:
            assert float(neyman) <= float(proportional) + 1e-9

    def test_top_k(self):
        from repro.experiments.ablations import run_top_k_ablation

        result = run_top_k_ablation(CFG, top_ks=(2, 100))
        assert result.rows[0][1] <= 2

    def test_projection(self):
        from repro.experiments.ablations import run_projection_ablation

        result = run_projection_ablation(CFG, dims=(2,))
        assert len(result.rows) == 2
        assert "Ablation" in result.to_text()

    def test_profiler(self):
        from repro.experiments.ablations import run_profiler_ablation

        result = run_profiler_ablation(
            CFG,
            snapshot_periods=(1_000_000,),
            unit_sizes=(10_000_000, 40_000_000),
        )
        by = {r[0]: r for r in result.rows}
        assert by["unit=10M"][1] > by["unit=40M"][1]


@pytest.mark.slow
class TestExtensionDrivers:
    def test_error_curve(self):
        from repro.experiments.ext_error_curve import run_error_curve

        result = run_error_curve(CFG, sizes=(10, 40))
        bounds = [float(r[3]) for r in result.rows]
        assert bounds[0] >= bounds[1]
        assert "error vs sample size" in result.to_text()

    def test_multimetric(self):
        from repro.experiments.ext_multimetric import run_multimetric

        result = run_multimetric(CFG, n_points=15)
        assert len(result.rows) == 12
        assert 0 <= result.average_mpki_error() < 1.0

    def test_text_sensitivity(self):
        from repro.experiments.ext_text_sensitivity import run_text_sensitivity

        result = run_text_sensitivity(CFG, n_points=15)
        assert len(result.rows) == 4
        for _l, phases, sens, insens, _pct, _by in result.rows:
            assert sens + insens == phases

    def test_systematic_sweep(self):
        from repro.experiments.ext_systematic import run_systematic_sweep

        result = run_systematic_sweep(
            CFG, periods=(1_000_000,), n_points=10
        )
        assert len(result.rows) == 1
        assert float(result.rows[0][5]) < 10.0  # added error bounded

    def test_warmup(self):
        from repro.experiments.ext_warmup import run_warmup_experiment

        result = run_warmup_experiment(CFG, n_points=10)
        assert result.second_shift() > 0
        assert len(result.rows) == 2

    def test_thread_choice(self):
        from repro.experiments.ext_thread_choice import run_thread_choice

        result = run_thread_choice(CFG, n_points=10)
        assert len(result.rows) >= 4
        assert result.oracle_spread() < 0.2

    def test_fault_sweep(self):
        from repro.experiments.ext_faults import run_fault_sweep

        result = run_fault_sweep(
            CFG, workload="grep", rates=(0.0, 0.05), n_points=10
        )
        assert len(result.rows) == 2
        assert result.rows[0].n_faults == 0  # null plan fires nothing
        assert result.rows[-1].n_faults > 0
        assert result.all_results_match  # recoveries are transparent
        assert result.all_replays_identical  # same plan, same faults
        assert result.all_within_ci
        assert "fault" in result.to_text().lower()


class TestStreamingComparisonText:
    def _result(self, **measured):
        from repro.experiments.ext_streaming import StreamingComparisonResult

        fields = dict(
            label="wc_sp",
            n_units=120,
            n_phases=2,
            batch_peak_kb=24_096.0,
            stream_peak_kb=22_683.0,
            identical_points=True,
            identical_assignments=True,
            live_agreement=1.0,
            units_per_second=416.0,
        )
        return StreamingComparisonResult(**{**fields, **measured})

    def test_measured_fields_do_not_reach_the_text(self):
        first = self._result()
        second = self._result(
            batch_peak_kb=23_950.0, stream_peak_kb=23_170.0, units_per_second=343.0
        )
        assert first.to_text() == second.to_text()
        assert "streaming peak below batch peak | yes" in first.to_text()
        for measured in ("KiB", "units/s", "416", "22,683"):
            assert measured not in first.to_text()

    def test_a_larger_streaming_peak_reads_no(self):
        text = self._result(stream_peak_kb=30_000.0).to_text()
        assert "streaming peak below batch peak | NO" in text
