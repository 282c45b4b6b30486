"""Tests for the experiment runner: graph execution and map_tasks."""

from __future__ import annotations

import os

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
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


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

    def test_payload_roundtrip(self):
        spec = _spec(graph_name=None, params={"zipf_s": 1.2}, seed=3)
        clone = RunSpec.from_payload(spec.to_payload())
        assert clone == spec

    def test_payload_roundtrip_ignores_unknown_keys(self):
        """Forward compatibility: a payload written by a newer schema
        (extra top-level fields, unknown simprof knobs) still loads."""
        spec = _spec(seed=7)
        payload = spec.to_payload()
        payload["future_field"] = {"nested": True}
        payload["simprof"] = {
            **dict(payload["simprof"]),
            "future_knob": 99,
        }
        clone = RunSpec.from_payload(payload)
        assert clone == spec
        # The reconstructed spec derives the same cache keys as an
        # engine that never had the unknown knob — no silent aliasing.
        assert clone.profile_params() == spec.profile_params()

    def test_payload_missing_optionals_take_defaults(self):
        clone = RunSpec.from_payload({"workload": "wc", "framework": "spark"})
        assert clone.scale == 1.0
        assert clone.seed == 0
        assert clone.graph_name is None
        assert clone.params is None

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

    def test_bounded_retries_then_success(self, tmp_path, monkeypatch):
        real = provenance.execute_payload
        failures = {"left": 2}

        def flaky(payload):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient worker failure")
            return real(payload)

        monkeypatch.setattr(provenance, "execute_payload", flaky)
        graph, [nodes] = _graph([_spec()], want="profile")
        result = ExperimentRunner(
            ArtifactStore(tmp_path), jobs=1, retries=2
        ).run_graph(graph)
        assert result[nodes["profile"]].n_units > 0
        assert failures["left"] == 0

    def test_retries_exhausted_raise_runner_error(self, tmp_path, monkeypatch):
        calls = []

        def always_fails(payload):
            calls.append(1)
            raise OSError("persistent failure")

        monkeypatch.setattr(provenance, "execute_payload", always_fails)
        graph, _ = _graph([_spec()], want="profile")
        with pytest.raises(RunnerError, match="after 2 attempts"):
            ExperimentRunner(
                ArtifactStore(tmp_path), jobs=1, retries=1
            ).run_graph(graph)
        assert len(calls) == 2


def _assert_same_pickles(reference, other) -> None:
    pkls = sorted(reference.glob("*.pkl"))
    assert pkls, "reference run produced no artifacts"
    for pkl in pkls:
        assert (
            pkl.read_bytes() == (other / pkl.name).read_bytes()
        ), f"artifact {pkl.name} differs from the serial run"


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
            ExperimentRunner(
                ArtifactStore(tmp_path), jobs=2, retries=0
            ).run_graph(graph)


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


def _never_succeeds(x: int) -> int:
    raise OSError("persistent failure")


class TestBackoff:
    def _capture_sleeps(self, monkeypatch, seed=0):
        sleeps: list[float] = []
        monkeypatch.setattr(
            runner_module.time, "sleep", lambda s: sleeps.append(s)
        )
        with pytest.raises(RunnerError, match="after 3 attempts"):
            runner_module.map_tasks(
                _never_succeeds, [0], jobs=1, retries=2, backoff=0.5, seed=seed
            )
        return sleeps

    def test_exponential_backoff_with_bounded_jitter(self, monkeypatch):
        # Jittered exponential backoff: each sleep lands in
        # [base, 1.5 * base] where base doubles per attempt.
        sleeps = self._capture_sleeps(monkeypatch)
        assert len(sleeps) == 2
        for attempt, s in enumerate(sleeps):
            base = 0.5 * 2.0**attempt
            assert base <= s <= base * 1.5

    def test_backoff_jitter_is_seeded(self, monkeypatch):
        # Same seed → identical sleep schedule (replayable); different
        # seed → desynchronised jitter.
        a = self._capture_sleeps(monkeypatch, seed=3)
        b = self._capture_sleeps(monkeypatch, seed=3)
        c = self._capture_sleeps(monkeypatch, seed=4)
        assert a == b
        assert a != c

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        monkeypatch.setattr(
            runner_module.time,
            "sleep",
            lambda s: pytest.fail("sleep called with backoff=0"),
        )
        with pytest.raises(RunnerError):
            runner_module.map_tasks(_never_succeeds, [0], jobs=1, retries=1)


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

_MAP_STATE: dict[str, int] = {}


def _double(x: int) -> int:
    return 2 * x


def _scaled(x: int) -> int:
    return _MAP_STATE["factor"] * x


def _map_init(factor: int) -> None:
    _MAP_STATE["factor"] = factor


def _flaky(x: int) -> int:
    _MAP_STATE.setdefault("calls", 0)
    _MAP_STATE["calls"] += 1
    if _MAP_STATE["calls"] < 3:
        raise RuntimeError("transient")
    return x


def _always_fails(x: int) -> int:
    raise RuntimeError("permanent")


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

    def test_initializer_runs_serially(self):
        _MAP_STATE.clear()
        out = runner_module.map_tasks(
            _scaled, [1, 2, 3], jobs=1, initializer=_map_init, initargs=(10,)
        )
        assert out == [10, 20, 30]

    def test_initializer_runs_in_workers(self):
        out = runner_module.map_tasks(
            _scaled, [1, 2, 3], jobs=2, initializer=_map_init, initargs=(7,)
        )
        assert out == [7, 14, 21]

    def test_serial_retries_transient_failures(self):
        _MAP_STATE.clear()
        assert runner_module.map_tasks(_flaky, [42], jobs=1, retries=2) == [42]
        assert _MAP_STATE["calls"] == 3

    def test_exhausted_retries_raise_runner_error(self):
        with pytest.raises(RunnerError, match="permanent"):
            runner_module.map_tasks(_always_fails, [1], jobs=1, retries=1)

    def test_parallel_failure_raises_runner_error(self):
        with pytest.raises(RunnerError, match="permanent"):
            runner_module.map_tasks(
                _always_fails, [1, 2], jobs=2, retries=0
            )

    def test_empty_items(self):
        assert runner_module.map_tasks(_double, [], jobs=4) == []

    def test_runner_method_uses_configured_jobs(self, tmp_path):
        runner = ExperimentRunner(ArtifactStore(tmp_path), jobs=1)
        assert runner.map_tasks(_double, [5]) == [10]


def _batch_digest(root, spec: RunSpec) -> str:
    graph, [nodes] = _graph([spec], want="profile")
    result = ExperimentRunner(ArtifactStore(root), jobs=1).run_graph(graph)
    return result[nodes["profile"]].content_digest()


class TestStreamingCheckpoint:
    """``_compute_profile_stream``: resumable profiles off a live stream."""

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            runner_module._compute_profile_stream(
                _spec(), ArtifactStore(tmp_path), checkpoint_every=0
            )

    def test_streaming_compute_matches_batch(self, tmp_path):
        spec = _spec()
        streaming = runner_module._compute_profile_stream(
            spec, ArtifactStore(tmp_path / "stream"), checkpoint_every=2
        )
        assert streaming.content_digest() == _batch_digest(
            tmp_path / "batch", spec
        )

    def test_killed_worker_resumes_bit_identically(self, tmp_path):
        from repro.runtime.checkpoint import (
            CheckpointManager,
            WorkerKilled,
            checkpoint_job_key,
        )

        spec = _spec()
        want = _batch_digest(tmp_path / "ref", spec)

        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(WorkerKilled):
            runner_module._compute_profile_stream(
                spec, store, checkpoint_every=1, kill_after=14
            )
        manager = CheckpointManager(
            store, checkpoint_job_key(spec.profile_params())
        )
        assert manager.latest() is not None

        # The "replacement worker" over the same store resumes from the
        # dead worker's snapshots and retires them.
        job = runner_module._compute_profile_stream(
            spec, store, checkpoint_every=1
        )
        assert job.content_digest() == want
        assert manager.latest() is None

    def test_journal_tracks_inflight_jobs(self, tmp_path):
        from repro.runtime.checkpoint import WorkerKilled, checkpoint_job_key
        from repro.runtime.replicate import iter_inflight

        spec = _spec()
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(WorkerKilled):
            runner_module._compute_profile_stream(
                spec, store, checkpoint_every=2, kill_after=6
            )
        [(job_key, payload)] = iter_inflight(store)
        assert job_key == checkpoint_job_key(spec.profile_params())
        assert RunSpec.from_payload(payload["spec"]) == spec
        # Completion retires the journal entry.
        runner_module._compute_profile_stream(spec, store, checkpoint_every=2)
        assert list(iter_inflight(store)) == []

    def test_mark_inflight_roundtrip(self, tmp_path):
        from repro.runtime.replicate import (
            clear_inflight,
            iter_inflight,
            register_inflight,
        )

        store = ArtifactStore(tmp_path)
        info = {"spec": _spec().to_payload(), "label": "grep_sp"}
        register_inflight(store, "k1", info)
        assert list(iter_inflight(ArtifactStore(tmp_path))) == [("k1", info)]
        clear_inflight(store, "k1")
        assert list(iter_inflight(ArtifactStore(tmp_path))) == []
