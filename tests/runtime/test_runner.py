"""Tests for the experiment runner: graph execution and map_tasks."""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pytest

from repro.core.pipeline import SimProfConfig
from repro.runtime import provenance
from repro.runtime import runner as runner_module
from repro.runtime.provenance import StageGraph
from repro.runtime.runner import (
    ExperimentRunner,
    RunnerError,
    RunSpec,
    resolve_jobs,
)
from repro.runtime.stages import spec_nodes
from repro.runtime.store import ArtifactStore

# Small, fast settings: grep finishes in about a second at this scale.
SMALL_SIMPROF = SimProfConfig(unit_size=10_000_000, snapshot_period=500_000)


def _spec(workload: str = "grep", framework: str = "spark", **kw) -> RunSpec:
    kw.setdefault("scale", 0.05)
    kw.setdefault("simprof", SMALL_SIMPROF)
    return RunSpec(workload=workload, framework=framework, **kw)


def _graph(specs, want: str = "model") -> tuple[StageGraph, list[dict]]:
    graph = StageGraph("test")
    return graph, [spec_nodes(graph, spec, want=want) for spec in specs]


def _keys(store: ArtifactStore, spec: RunSpec) -> dict[str, str]:
    """Planned stage keys of one spec's model chain, by role."""
    graph, [nodes] = _graph([spec])
    plans = {p.name: p.key for p in ExperimentRunner(store).plan_graph(graph)}
    return {role: plans[name] for role, name in nodes.items()}


def _stage_entries(store: ArtifactStore, stage: str) -> list:
    return [
        m
        for m in store.entries()
        if m.kind == "stage" and m.provenance["stage"] == stage
    ]

class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("SIMPROF_JOBS", "8")
        assert resolve_jobs(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SIMPROF_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("SIMPROF_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("SIMPROF_JOBS", "many")
        assert resolve_jobs(None) == 1

    def test_floor_at_one(self):
        """An explicit non-positive worker count is an error, not serial."""
        for jobs in (0, -4):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                resolve_jobs(jobs)
        assert resolve_jobs(1) == 1


class TestKeys:
    def test_simprof_seed_changes_both_keys(self, tmp_path):
        """Regression: ``simprof.seed`` was missing from the old keys."""
        store = ArtifactStore(tmp_path)
        k0 = _keys(store, _spec())
        k1 = _keys(
            store,
            _spec(
                simprof=SimProfConfig(
                    unit_size=10_000_000, snapshot_period=500_000, seed=1
                )
            ),
        )
        assert k0["trace"] == k1["trace"]
        assert k0["profile"] != k1["profile"]
        assert k0["model"] != k1["model"]

    def test_phase_knobs_not_in_profile_key(self, tmp_path):
        """Clustering-only knobs must not fragment the profile cache."""
        store = ArtifactStore(tmp_path)
        k0 = _keys(store, _spec())
        k1 = _keys(
            store,
            _spec(
                simprof=SimProfConfig(
                    unit_size=10_000_000, snapshot_period=500_000, top_k_methods=5
                )
            ),
        )
        assert k0["profile"] == k1["profile"]
        assert k0["model"] != k1["model"]

    def test_dedupe_key_distinguishes_want_kinds(self, tmp_path):
        """A profile-only run must not satisfy a model request."""
        store = ArtifactStore(tmp_path)
        runner = ExperimentRunner(store, jobs=1)
        graph, _ = _graph([_spec()], want="profile")
        runner.run_graph(graph)
        graph, [nodes] = _graph([_spec()], want="model")
        plans = {p.name: p for p in runner.plan_graph(graph)}
        assert plans[nodes["profile"]].cached
        assert not plans[nodes["features"]].cached
        assert not plans[nodes["model"]].cached

    def test_dedupe_key_collapses_equivalent_specs(self, tmp_path):
        """Equal specs collapse to one chain, computed once."""
        graph, (first, second) = _graph([_spec(), _spec()])
        assert first == second
        result = ExperimentRunner(ArtifactStore(tmp_path), jobs=1).run_graph(
            graph
        )
        assert result.misses == len(graph.nodes) == 4


class TestRunnerSerial:
    def test_run_returns_input_order_and_dedupes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        specs = [_spec(), _spec("wc"), _spec()]  # first == third
        graph, nodes = _graph(specs, want="profile")
        result = ExperimentRunner(store, jobs=1).run_graph(graph)
        jobs = [result[n["profile"]] for n in nodes]
        assert [j.workload for j in jobs] == ["grep", "wordcount", "grep"]
        assert nodes[0] == nodes[2]
        # Two unique computations, not three.
        assert result.misses == 4
        assert len(_stage_entries(store, "profile")) == 2

    def test_want_model_produces_both_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        graph, [nodes] = _graph([_spec()])
        result = ExperimentRunner(store, jobs=1).run_graph(graph)
        assert result[nodes["model"]].k >= 1
        assert result[nodes["profile"]].n_units > 0
        for stage in ("trace-gen", "profile", "featurize", "phase-fit"):
            assert len(_stage_entries(store, stage)) == 1, stage

    def test_feature_selection_booked_once(self, tmp_path):
        """The featurize node books feature selection; phase-fit must
        not book it again from the features it is handed."""
        store = ArtifactStore(tmp_path)
        graph, _ = _graph([_spec()])
        ExperimentRunner(store, jobs=1).run_graph(graph)
        [featurize] = _stage_entries(store, "featurize")
        [phase_fit] = _stage_entries(store, "phase-fit")
        assert "feature-selection" in featurize.stages
        assert "features" in featurize.counters["feature-selection"]
        assert "feature-selection" not in phase_fit.stages
        assert "feature-selection" not in phase_fit.counters
        assert "k-means" in phase_fit.stages

    def test_cached_flag(self, tmp_path):
        runner = ExperimentRunner(ArtifactStore(tmp_path), jobs=1)
        graph, [nodes] = _graph([_spec()], want="profile")
        first = runner.run_graph(graph)
        second = runner.run_graph(graph)
        assert not first.cached(nodes["profile"])
        assert second.cached(nodes["profile"])
        assert second.executed == []

    def test_invalid_want_rejected(self):
        with pytest.raises(ValueError, match="want"):
            _graph([_spec()], want="banana")

    def test_retries_exhausted_raise_runner_error(self, tmp_path, monkeypatch):
        """A failing stage runs once, then surfaces naming its node."""
        calls = []

        def always_fails(payload):
            calls.append(1)
            raise OSError("persistent failure")

        monkeypatch.setattr(provenance, "execute_payload", always_fails)
        graph, [nodes] = _graph([_spec()], want="profile")
        with pytest.raises(RunnerError, match=f"test/{nodes['trace']}"):
            ExperimentRunner(ArtifactStore(tmp_path), jobs=1).run_graph(graph)
        assert len(calls) == 1

    def test_failed_node_error_is_short_and_named(self, tmp_path, monkeypatch):
        def always_fails(payload):
            raise OSError("persistent failure")

        monkeypatch.setattr(provenance, "execute_payload", always_fails)
        graph, [nodes] = _graph([_spec()], want="profile")
        with pytest.raises(RunnerError) as failed:
            ExperimentRunner(ArtifactStore(tmp_path), jobs=1).run_graph(graph)
        message = str(failed.value)
        assert len(message) < 500, message
        assert f"test/{nodes['trace']}" in message
        assert "persistent failure" in message


def _assert_same_pickles(reference, other) -> None:
    pkls = sorted(reference.glob("*.pkl"))
    assert pkls, "reference run produced no artifacts"
    for pkl in pkls:
        assert (
            pkl.read_bytes() == (other / pkl.name).read_bytes()
        ), f"artifact {pkl.name} differs from the serial run"


@provenance.stage_fn("report")
def _failing_stage(inputs, params):
    """A deterministic stage bug: logs its node's name, then raises."""
    with open(params["log"], "a") as log:
        log.write(params["name"] + "\n")
    raise ValueError("deterministic bug")


@pytest.mark.slow
class TestRunnerParallel:
    def test_parallel_matches_serial_bytes(self, tmp_path):
        """SIMPROF_JOBS fan-out must be invisible in the artifacts."""
        specs = [_spec("grep", "spark"), _spec("grep", "hadoop")]
        graph, nodes = _graph(specs)
        serial = ExperimentRunner(
            ArtifactStore(tmp_path / "serial"), jobs=1
        ).run_graph(graph)
        parallel = ExperimentRunner(
            ArtifactStore(tmp_path / "parallel"), jobs=2
        ).run_graph(graph)

        assert [p.key for p in serial.plans] == [p.key for p in parallel.plans]
        for n in nodes:
            np.testing.assert_array_equal(
                serial[n["profile"]].profile.cpi(),
                parallel[n["profile"]].profile.cpi(),
            )
            np.testing.assert_array_equal(
                serial[n["model"]].assignments,
                parallel[n["model"]].assignments,
            )
        _assert_same_pickles(tmp_path / "serial", tmp_path / "parallel")

    def test_parallel_failure_surfaces_as_runner_error(self, tmp_path):
        graph, _ = _graph(
            [_spec("no-such-workload"), _spec("also-missing")], want="profile"
        )
        with pytest.raises(RunnerError):
            ExperimentRunner(ArtifactStore(tmp_path), jobs=2).run_graph(graph)

    def test_parallel_failing_stage_runs_once(self, tmp_path):
        """A stage raising in a pool worker is not re-run."""
        calls = tmp_path / "calls"
        graph = StageGraph("failing")
        for name in ("a", "b"):
            graph.node(
                name, _failing_stage, params={"name": name, "log": str(calls)}
            )
        with pytest.raises(RunnerError, match="failing/[ab]") as failed:
            ExperimentRunner(ArtifactStore(tmp_path / "store"), jobs=2).run_graph(
                graph
            )
        assert "deterministic bug" in str(failed.value)
        # Each node that started ran once; none ran a second time.
        names = calls.read_text().split()
        assert names and len(names) == len(set(names)), names


_PARENT_PID = os.getpid()
_REAL_EXECUTE = provenance.execute_payload


def _crash_in_worker(payload):
    """Dies like an OOM-killed worker in a pool; runs normally in-process."""
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return _REAL_EXECUTE(payload)


@pytest.mark.slow
class TestBrokenPoolDegradation:
    def test_broken_pool_degrades_inline_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """A hard worker death must finish in-process, bytes unchanged."""
        specs = [_spec("grep", "spark"), _spec("grep", "hadoop")]
        graph, nodes = _graph(specs, want="profile")
        serial = ExperimentRunner(
            ArtifactStore(tmp_path / "serial"), jobs=1
        ).run_graph(graph)

        monkeypatch.setattr(provenance, "execute_payload", _crash_in_worker)
        degraded = ExperimentRunner(
            ArtifactStore(tmp_path / "broken"), jobs=2
        ).run_graph(graph)

        for n in nodes:
            np.testing.assert_array_equal(
                serial[n["profile"]].profile.cpi(),
                degraded[n["profile"]].profile.cpi(),
            )
        _assert_same_pickles(tmp_path / "serial", tmp_path / "broken")


class TestCheckpoint:
    def test_resume_after_store_sweep_heals(self, tmp_path):
        """Entries the store lost between runs are recomputed."""
        root = tmp_path / "store"
        graph, [nodes] = _graph([_spec()], want="profile")
        first = ExperimentRunner(ArtifactStore(root), jobs=1).run_graph(graph)
        job = first[nodes["profile"]]
        for path in [*root.glob("*.pkl"), *root.glob("*.json")]:
            path.unlink()

        second = ExperimentRunner(ArtifactStore(root), jobs=1).run_graph(graph)
        assert second.executed == first.executed
        assert second.key(nodes["profile"]) == first.key(nodes["profile"])
        assert second[nodes["profile"]].content_digest() == job.content_digest()


# -- map_tasks ----------------------------------------------------------------


def _double(x: int) -> int:
    return 2 * x


def _always_fails(x: int) -> int:
    raise RuntimeError("permanent")


def _log_then_fail_first(log_path: str, x: int) -> int:
    """Log ``x``; item 0 fails at once, the others take 0.3 s."""
    with open(log_path, "a") as fh:
        fh.write(f"{x}\n")
    if x == 0:
        raise ValueError("item 0 is broken")
    time.sleep(0.3)
    return x


class TestMapTasks:
    def test_serial_preserves_order(self):
        assert runner_module.map_tasks(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        out = runner_module.map_tasks(_double, list(range(8)), jobs=2)
        assert out == [2 * i for i in range(8)]

    def test_serial_and_parallel_agree(self):
        items = list(range(6))
        assert runner_module.map_tasks(_double, items, jobs=1) == (
            runner_module.map_tasks(_double, items, jobs=3)
        )

    def test_serial_failure_raises_runner_error(self):
        with pytest.raises(RunnerError, match="permanent"):
            runner_module.map_tasks(_always_fails, [1], jobs=1)

    def test_parallel_failure_raises_runner_error(self):
        with pytest.raises(RunnerError, match="permanent"):
            runner_module.map_tasks(_always_fails, [1, 2], jobs=2)

    def test_parallel_failure_cancels_queued_tasks(self, tmp_path):
        log = tmp_path / "ran.log"
        fn = functools.partial(_log_then_fail_first, str(log))
        with pytest.raises(RunnerError, match=r"task 0 failed: item 0 is broken"):
            runner_module.map_tasks(fn, list(range(8)), jobs=2)
        ran = log.read_text().split()
        assert "0" in ran
        # Tasks still queued when item 0 failed never start.
        assert len(ran) < 8

    def test_empty_items(self):
        assert runner_module.map_tasks(_double, [], jobs=4) == []
