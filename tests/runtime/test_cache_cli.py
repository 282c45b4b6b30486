"""Tests for the ``simprof cache``/``simprof stats`` subcommands."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.pipeline import SimProfConfig
from repro.experiments.common import ExperimentConfig, get_profile
from repro.runtime.store import ArtifactStore, reset_default_stores

SMALL = ExperimentConfig(
    scale=0.05,
    n_sampling_draws=3,
    simprof=SimProfConfig(unit_size=10_000_000, snapshot_period=500_000),
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SIMPROF_CACHE_DIR", str(tmp_path))
    reset_default_stores()
    yield
    reset_default_stores()


@pytest.fixture()
def populated(tmp_path):
    get_profile("grep", "spark", SMALL)
    return tmp_path


def _stage_key(root, stage: str = "profile") -> str:
    """Store key of the one entry of a pipeline stage under ``root``."""
    [key] = [
        m.key
        for m in ArtifactStore(root).entries()
        if m.kind == "stage" and m.provenance["stage"] == stage
    ]
    return key


def _n_entries(root) -> int:
    return len(list(root.glob("*.pkl")))


class TestCacheLs:
    def test_lists_entries(self, populated, capsys):
        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert _stage_key(populated) in out
        assert str(populated) in out

    def test_kind_filter(self, populated, capsys):
        assert main(["cache", "ls", "--kind", "model"]) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out


class TestCacheInfo:
    def test_shows_manifest(self, populated, capsys):
        key = _stage_key(populated, "trace-gen")
        assert main(["cache", "info", key]) == 0
        out = capsys.readouterr().out
        assert '"kind": "stage"' in out
        assert '"workload": "grep"' in out

    def test_unknown_key_fails(self, capsys):
        assert main(["cache", "info", "profile-v0-nope"]) == 1
        assert "no manifest" in capsys.readouterr().err


class TestCacheGC:
    def test_requires_a_selector(self, capsys):
        assert main(["cache", "gc"]) == 2
        assert "--stale" in capsys.readouterr().err

    def test_dry_run_keeps_entries(self, populated, capsys):
        n = _n_entries(populated)
        assert main(["cache", "gc", "--all", "--dry-run"]) == 0
        assert f"would remove {n}" in capsys.readouterr().out
        assert _n_entries(populated) == n

    def test_gc_all_removes(self, populated, capsys):
        n = _n_entries(populated)
        assert main(["cache", "gc", "--all"]) == 0
        assert f"removed {n}" in capsys.readouterr().out
        assert not list(populated.glob("*.pkl"))


class TestCacheVerify:
    def test_clean_store_passes(self, populated, capsys):
        n = _n_entries(populated)
        assert main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert f"{n} ok, 0 corrupt, 0 unverified" in out

    def test_corrupt_payload_detected(self, populated, capsys):
        n = _n_entries(populated)
        (populated / f"{_stage_key(populated)}.pkl").write_bytes(b"bit rot")
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
        assert f"{n - 1} ok, 1 corrupt, 0 unverified" in out

    def test_repair_quarantines(self, populated, capsys):
        key = _stage_key(populated)
        (populated / f"{key}.pkl").write_bytes(b"bit rot")
        assert main(["cache", "verify", "--repair"]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert not (populated / f"{key}.pkl").exists()
        assert (populated / "quarantine" / f"{key}.pkl").exists()
        # The store is clean again after the repair.
        assert main(["cache", "verify"]) == 0


class TestCorruptManifestTolerance:
    """``ls`` and ``stats`` must warn, not traceback (regression)."""

    def _corrupt_manifest(self, root) -> str:
        key = _stage_key(root)
        (root / f"{key}.json").write_text("{torn write")
        return key

    def test_cache_ls_warns_and_continues(self, populated, capsys):
        intact = _stage_key(populated, "trace-gen")
        self._corrupt_manifest(populated)
        assert main(["cache", "ls"]) == 0
        captured = capsys.readouterr()
        assert intact in captured.out
        assert "1 corrupt manifest(s)" in captured.err

    def test_stats_warns_and_continues(self, populated, capsys):
        self._corrupt_manifest(populated)
        assert main(["stats"]) == 0
        captured = capsys.readouterr()
        assert "compute invested" in captured.out
        assert "1 corrupt manifest(s)" in captured.err

    def test_cache_info_reports_status(self, populated, capsys):
        key = self._corrupt_manifest(populated)
        assert main(["cache", "info", key]) == 1
        assert "corrupt" in capsys.readouterr().err


class TestStats:
    def test_aggregates_stage_timings(self, populated, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "trace-gen" in out
        assert "profiling" in out
        assert "compute invested" in out


def _run_synthetic_graph(bias: int = 0):
    """Materialise a tiny stage chain into the default (env-isolated)
    store; returns the GraphResult."""
    from repro.runtime.runner import ExperimentRunner

    from tests.runtime.test_provenance import _chain

    graph = _chain(bias=bias)
    return ExperimentRunner().run_graph(graph)


class TestCacheGraph:
    def test_table_lists_nodes_by_depth(self, capsys):
        _run_synthetic_graph()
        assert main(["cache", "graph"]) == 0
        out = capsys.readouterr().out
        assert "t/seq" in out and "t/scale" in out and "t/total" in out
        # Depth order: the trace-gen root precedes the report sink.
        assert out.index("t/seq") < out.index("t/total")

    def test_why_explains_a_recompute(self, capsys):
        _run_synthetic_graph(bias=0)
        result = _run_synthetic_graph(bias=1)
        assert main(["cache", "graph", "--why", result.key("total")]) == 0
        out = capsys.readouterr().out
        assert "t/total" in out
        assert "changed: params" in out

    def test_why_unknown_key_fails(self, capsys):
        assert main(["cache", "graph", "--why", "stage-v0-nope"]) == 1
        assert "no provenance" in capsys.readouterr().err

    def test_invalidated_clean_tree(self, capsys):
        _run_synthetic_graph()
        assert main(["cache", "graph", "--invalidated"]) == 0
        assert "0 stage artifact(s) with stale code" in capsys.readouterr().out

    def test_ls_shows_lineage_depth(self, capsys):
        _run_synthetic_graph()
        assert main(["cache", "ls", "--kind", "stage"]) == 0
        out = capsys.readouterr().out
        assert "depth" in out
        assert "stage-" in out


class TestCacheStatsCommand:
    def test_reports_provenance_counters(self, capsys):
        _run_synthetic_graph(bias=0)
        _run_synthetic_graph(bias=2)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "4 stage artifact(s)" in out
        assert "max lineage depth 2" in out
        assert "run_graph sessions: 2" in out
        assert "2 hit(s) / 4 miss(es)" in out
        assert "params" in out  # miss-cause breakdown

    def test_empty_store(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "0 stage artifact(s)" in out
