"""Unit tests for the experiment-facing cache wrappers.

The heavy lifting (hashing, atomicity, parallelism) is covered by
``tests/runtime``; these tests pin the behaviour of the
``get_profile``/``get_model`` helpers over the stage graph, including
regression tests for the historical cache-key bugs (missing
``simprof.seed``, nested-dict order sensitivity).
"""

from __future__ import annotations

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
