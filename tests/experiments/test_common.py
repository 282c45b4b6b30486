"""Unit tests for the experiment-facing cache wrappers.

The heavy lifting (hashing, atomicity, parallelism) is covered by
``tests/runtime``; these tests pin the behaviour of the
``get_profile``/``get_model`` helpers over the stage graph, including
regression tests for the historical cache-key bugs (missing
``simprof.seed``, nested-dict order sensitivity).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import SimProfConfig
from repro.experiments.common import (
    ExperimentConfig,
    all_label_pairs,
    format_table,
    get_model,
    get_profile,
    make_spec,
)
from repro.runtime.provenance import StageGraph
from repro.runtime.runner import ExperimentRunner
from repro.runtime.stages import spec_nodes
from repro.runtime.store import default_store, reset_default_stores

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


def _stage_pkls(stage: str) -> list:
    """Payload files of the default store's entries of one stage."""
    store = default_store()
    return [
        store.root / f"{m.key}.pkl"
        for m in store.entries()
        if m.kind == "stage" and m.provenance["stage"] == stage
    ]


def _model_key(cfg: ExperimentConfig) -> str:
    graph = StageGraph("keys")
    nodes = spec_nodes(graph, make_spec("grep", "spark", cfg))
    plans = ExperimentRunner(default_store()).plan_graph(graph)
    return next(p.key for p in plans if p.name == nodes["model"])


class TestLabels:
    def test_twelve_pairs(self):
        pairs = all_label_pairs()
        assert len(pairs) == 12
        assert pairs[0][1] == "hadoop"  # Hadoop first, as in Figure 7


class TestFormatTable:
    def test_renders_rows(self):
        text = format_table(["a", "bb"], [(1, 2), (30, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text


class TestCaching:
    def test_profile_cached_on_disk(self, tmp_path):
        p1 = get_profile("grep", "spark", SMALL)
        assert len(_stage_pkls("profile")) == 1
        # Second call from a cleared memory tier hits the disk.
        default_store().clear_memory()
        p2 = get_profile("grep", "spark", SMALL)
        assert p2.n_units == p1.n_units
        np.testing.assert_allclose(p2.profile.cpi(), p1.profile.cpi())
        assert default_store().stats.disk_hits >= 1

    def test_model_cached(self, tmp_path):
        job, model = get_model("grep", "spark", SMALL)
        assert len(_stage_pkls("phase-fit")) == 1
        misses = default_store().stats.misses
        _job2, model2 = get_model("grep", "spark", SMALL)
        assert model2.k == model.k
        assert default_store().stats.misses == misses

    def test_distinct_keys_for_distinct_params(self, tmp_path):
        get_profile("grep", "spark", SMALL)
        other = ExperimentConfig(
            scale=0.06,
            n_sampling_draws=3,
            simprof=SMALL.simprof,
        )
        get_profile("grep", "spark", other)
        assert len(_stage_pkls("profile")) == 2

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        want = get_profile("grep", "spark", SMALL).content_digest()
        [entry] = _stage_pkls("profile")
        entry.write_bytes(b"not a pickle")
        default_store().clear_memory()
        p = get_profile("grep", "spark", SMALL)
        assert p.content_digest() == want

    def test_simprof_seed_in_profile_key(self, tmp_path):
        """Regression: changing only ``simprof.seed`` must miss the cache.

        The old hand-listed keys omitted it, so re-seeding the snapshot
        jitter (and k-means init) silently returned stale artifacts.
        """
        get_profile("grep", "spark", SMALL)
        reseeded = ExperimentConfig(
            scale=SMALL.scale,
            n_sampling_draws=SMALL.n_sampling_draws,
            simprof=SimProfConfig(
                unit_size=10_000_000, snapshot_period=500_000, seed=1
            ),
        )
        get_profile("grep", "spark", reseeded)
        assert len(_stage_pkls("profile")) == 2

    def test_simprof_seed_in_model_key(self):
        reseeded = ExperimentConfig(
            scale=SMALL.scale,
            n_sampling_draws=SMALL.n_sampling_draws,
            simprof=SimProfConfig(
                unit_size=10_000_000, snapshot_period=500_000, seed=1
            ),
        )
        assert _model_key(SMALL) != _model_key(reseeded)

    def test_nested_params_order_insensitive(self, tmp_path):
        """Regression: nested dict key order must not fragment the cache."""
        get_profile(
            "wc", "spark", SMALL, params={"a": {"x": 1, "y": 2}, "b": 3}
        )
        get_profile(
            "wc", "spark", SMALL, params={"b": 3, "a": {"y": 2, "x": 1}}
        )
        assert len(_stage_pkls("profile")) == 1


class TestSpecNodes:
    """Specs that differ only in SimProf knobs wire into one graph."""

    @staticmethod
    def _spec(**knobs):
        cfg = ExperimentConfig(
            scale=SMALL.scale,
            n_sampling_draws=SMALL.n_sampling_draws,
            simprof=replace(SMALL.simprof, **knobs),
        )
        return make_spec("grep", "spark", cfg)

    @staticmethod
    def _keys(graph: StageGraph) -> dict[str, str]:
        plans = ExperimentRunner(default_store()).plan_graph(graph)
        return {p.name: p.key for p in plans}

    def _wire_both(self, first, second):
        graph = StageGraph("mixed")
        a = spec_nodes(graph, first, n_points=20)
        b = spec_nodes(graph, second, n_points=20)
        keys = self._keys(graph)
        # Node names never enter keys: each chain keys as it does alone.
        for spec, nodes in ((first, a), (second, b)):
            alone = StageGraph("mixed")
            solo = spec_nodes(alone, spec, n_points=20)
            solo_keys = self._keys(alone)
            for role, name in nodes.items():
                assert keys[name] == solo_keys[solo[role]], role
        stages = Counter(node.stage for node in graph.nodes.values())
        return a, b, stages

    def test_top_k_variants_share_trace_and_profile(self):
        a, b, stages = self._wire_both(
            self._spec(top_k_methods=100), self._spec(top_k_methods=5)
        )
        assert stages == {
            "trace-gen": 1,
            "profile": 1,
            "featurize": 2,
            "phase-fit": 2,
            "estimate": 2,
        }
        assert a["trace"] == b["trace"] and a["profile"] == b["profile"]
        assert a["features"] != b["features"] and a["model"] != b["model"]

    def test_unit_size_variants_share_trace_only(self):
        a, b, stages = self._wire_both(
            self._spec(unit_size=10_000_000), self._spec(unit_size=20_000_000)
        )
        assert stages == {
            "trace-gen": 1,
            "profile": 2,
            "featurize": 2,
            "phase-fit": 2,
            "estimate": 2,
        }
        assert a["trace"] == b["trace"] and a["profile"] != b["profile"]

    def test_lineage_id_drops_the_digest(self):
        """Variants are one logical node, so a retune diagnoses as params."""
        graph = StageGraph("mixed")
        spec_nodes(graph, self._spec(top_k_methods=100))
        spec_nodes(graph, self._spec(top_k_methods=5))
        plans = ExperimentRunner(default_store()).plan_graph(graph)
        ids = {p.record["node"] for p in plans if p.node.stage == "featurize"}
        assert ids == {"mixed/featurize:grep_sp"}

    def test_rewiring_a_spec_reuses_its_chain(self):
        graph = StageGraph("mixed")
        first = spec_nodes(graph, self._spec(), n_points=20)
        n_nodes = len(graph.nodes)
        assert spec_nodes(graph, self._spec(), n_points=20) == first
        assert len(graph.nodes) == n_nodes


@pytest.mark.slow
def test_serial_hand_off_matches_parallel_bytes(tmp_path):
    """Fig 7 and Table II: in-memory serial and jobs=2 runs store the same bytes."""
    from repro.experiments.fig07_errors import graph_fig7
    from repro.experiments.table2 import graph_table2
    from repro.runtime.store import ArtifactStore

    cfg = ExperimentConfig(scale=0.01, n_sampling_draws=2)
    graph = StageGraph("handoff")
    graph_fig7(graph, cfg)
    graph_table2(graph, cfg.seed)
    for name, jobs in (("serial", 1), ("parallel", 2)):
        ExperimentRunner(ArtifactStore(tmp_path / name), jobs=jobs).run_graph(
            graph
        )
    serial = sorted((tmp_path / "serial").glob("stage-*.pkl"))
    assert len(serial) == len(graph.nodes)
    for pkl in serial:
        other = tmp_path / "parallel" / pkl.name
        assert pkl.read_bytes() == other.read_bytes(), pkl.name
