"""Test for the one-shot report generator (small scale)."""

from __future__ import annotations

import pytest

from repro.core.pipeline import SimProfConfig
from repro.datagen import seeds
from repro.experiments.common import ExperimentConfig
from repro.experiments.report import generate_report


@pytest.mark.slow
def test_generate_report_contains_all_sections():
    cfg = ExperimentConfig(
        scale=0.1,
        n_sampling_draws=3,
        simprof=SimProfConfig(unit_size=20_000_000, snapshot_period=1_000_000),
    )
    seen = []
    text = generate_report(cfg, progress=seen.append)
    for heading in [
        "Table I", "Table II", "Figure 6", "Figure 7", "Figure 8",
        "Figure 9", "Figure 10", "Figure 11", "Figures 12-13",
        "Figure 14", "Figure 15", "systematic sampling",
        "text-workload input sensitivity", "Headline",
    ]:
        assert heading in text, heading
    assert "figure 7" in seen
    assert text.startswith("# SimProf reproduction report")


@pytest.mark.slow
def test_generate_report_without_extensions():
    cfg = ExperimentConfig(
        scale=0.1,
        n_sampling_draws=3,
        simprof=SimProfConfig(unit_size=20_000_000, snapshot_period=1_000_000),
    )
    text = generate_report(cfg, include_extensions=False)
    assert "systematic sampling" not in text


@pytest.mark.slow
def test_warm_report_synthesises_no_graphs(monkeypatch):
    """Table II is a cached stage: a warm report builds no Kronecker graph."""
    cfg = ExperimentConfig(
        scale=0.1,
        n_sampling_draws=3,
        simprof=SimProfConfig(unit_size=20_000_000, snapshot_period=1_000_000),
    )
    cold = generate_report(cfg, include_extensions=False)
    calls = []
    real = seeds.generate_kronecker_edges

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(seeds, "generate_kronecker_edges", counting)
    assert generate_report(cfg, include_extensions=False) == cold
    assert calls == []
