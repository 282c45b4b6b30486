"""CLI surface of the checkpoint layer.

``simprof profile --stream --checkpoint-every N [--resume]`` and the
``simprof cache checkpoints`` maintenance subcommand.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.store import default_store, reset_default_stores

PROFILE_ARGS = [
    "profile",
    "wc_sp",
    "--stream",
    "--scale",
    "0.08",
    "--unit-size",
    "10000000",
    "--snapshot-period",
    "500000",
]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SIMPROF_CACHE_DIR", str(tmp_path))
    reset_default_stores()
    yield
    reset_default_stores()


class TestProfileFlagValidation:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--checkpoint-every", "2"],
            ["--resume"],
            ["--worker"],
        ],
    )
    def test_stream_only_flags_rejected_in_batch_mode(self, extra):
        with pytest.raises(SystemExit, match="require --stream"):
            main(["profile", "wc_sp", *extra])

    def test_resume_requires_interval(self):
        with pytest.raises(SystemExit, match="requires --checkpoint-every"):
            main([*PROFILE_ARGS, "--resume"])

    def test_interval_must_be_positive(self):
        with pytest.raises(SystemExit, match=">= 1"):
            main([*PROFILE_ARGS, "--checkpoint-every", "0"])


class TestProfileCheckpointing:
    def test_completed_run_retires_its_snapshots(self, capsys):
        assert main([*PROFILE_ARGS, "--checkpoint-every", "2"]) == 0
        out = capsys.readouterr().out
        assert "checkpointing: job" in out
        assert "retired on completion" in out
        # Nothing left behind for the maintenance command to show.
        assert main(["cache", "checkpoints"]) == 0
        assert "0 across 0 job(s)" in capsys.readouterr().out


class TestCacheCheckpoints:
    def _seed_chain(self, job_key="job-under-test"):
        manager = CheckpointManager(default_store(), job_key)
        manager.save(4, {"position": 4, "session": {"kind": "x"}})
        manager.save(9, {"position": 9, "session": {"kind": "x"}})
        return manager

    def test_empty_store(self, capsys):
        assert main(["cache", "checkpoints"]) == 0
        assert "0 across 0 job(s)" in capsys.readouterr().out

    def test_lists_positions_per_job(self, capsys):
        self._seed_chain()
        assert main(["cache", "checkpoints"]) == 0
        out = capsys.readouterr().out
        assert "2 across 1 job(s)" in out
        assert "job-under-test" in out

    def test_job_filter(self, capsys):
        self._seed_chain("job-a")
        self._seed_chain("job-b")
        assert main(["cache", "checkpoints", "--job", "job-a"]) == 0
        out = capsys.readouterr().out
        assert "job-a" in out and "job-b" not in out

    def test_inspect_decodes_the_snapshot(self, capsys):
        manager = self._seed_chain()
        key = manager.manifests()[0].key
        assert main(["cache", "checkpoints", "--inspect", key]) == 0
        out = capsys.readouterr().out
        assert '"position": 4' in out
        assert "snapshot components" in out

    def test_gc_removes_chains(self, capsys):
        self._seed_chain("job-a")
        self._seed_chain("job-b")
        assert main(["cache", "checkpoints", "--gc", "--job", "job-a"]) == 0
        assert "removed 2 checkpoint(s)" in capsys.readouterr().out
        assert main(["cache", "checkpoints"]) == 0
        out = capsys.readouterr().out
        assert "job-b" in out and "2 across 1 job(s)" in out


class TestVerifyDeepCheckpoints:
    def test_digest_consistent_garbage_is_reported_and_repaired(
        self, capsys
    ):
        from repro.runtime.checkpoint import CHECKPOINT_KIND
        from repro.runtime.snapshot import (
            SNAPSHOT_VERSION,
            encode_state,
            state_digest,
        )

        store = default_store()
        manager = CheckpointManager(store, "job-v")
        manager.save(4, {"position": 4, "session": {"kind": "x"}})
        key9 = manager.save(9, {"position": 9, "session": {"kind": "x"}})
        # Torn before storage: the byte digest faithfully records
        # garbage, so only the deep (snapshot-level) pass can catch it.
        torn = encode_state({"position": 9, "session": {"kind": "x"}})[:-7]
        store.put(
            key9, torn, kind=CHECKPOINT_KIND,
            params={
                "job": "job-v", "position": 9,
                "snapshot": SNAPSHOT_VERSION,
                "state_digest": state_digest(torn),
            },
        )
        assert main(["cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert f"CORRUPT: {key9}" in out
        assert "1 checkpoint(s) deep-verified" in out
        assert main(["cache", "verify", "--repair"]) == 0
        out = capsys.readouterr().out
        assert f"quarantined: {key9}" in out
        # The quarantined entry no longer resumes; the chain fell back.
        store.clear_memory()
        position, _state = CheckpointManager(store, "job-v").latest()
        assert position == 4


class TestProfileResumeAfterKill:
    @staticmethod
    def _report(out: str) -> list[str]:
        """The run's printed result: phase table, points and estimate.

        Drops the checkpointing summary and the wall-clock throughput
        line, the only lines that differ between the two modes.
        """
        return [
            line for line in out.splitlines()
            if not line.startswith("checkpointing:") and "units/s" not in line
        ]

    def test_resume_matches_uninterrupted_run(self, capsys, monkeypatch):
        """Cut a real chain with a kill, then finish it via the CLI."""
        from repro.core.pipeline import SimProf, SimProfConfig
        from repro.runtime.checkpoint import (
            CheckpointPolicy,
            WorkerKilled,
            checkpoint_job_key,
        )
        from repro.workloads import run_workload_stream

        assert main(PROFILE_ARGS) == 0
        reference = self._report(capsys.readouterr().out)

        config = SimProfConfig(
            unit_size=10_000_000, snapshot_period=500_000, seed=0
        )
        job_key = checkpoint_job_key({
            "workload": "wc", "framework": "spark", "scale": 0.08,
            "seed": 0, "graph": "", "faults": "",
            "profiler": config.profiler_config(),
        })
        manager = CheckpointManager(default_store(), job_key)
        stream = run_workload_stream("wc", "spark", scale=0.08, seed=0)
        with pytest.raises(WorkerKilled):
            SimProf(config).analyze_stream(
                stream,
                checkpoint=CheckpointPolicy(manager, every=2, kill_after=15),
            )
        killed_at = manager.latest()[0]

        resumed_from = []
        latest = CheckpointManager.latest

        def spy(self):
            found = latest(self)
            resumed_from.append(None if found is None else found[0])
            return found

        monkeypatch.setattr(CheckpointManager, "latest", spy)
        assert main([
            *PROFILE_ARGS, "--checkpoint-every", "2", "--resume",
        ]) == 0
        out = capsys.readouterr().out
        assert resumed_from == [killed_at]
        assert f"checkpointing: job {job_key}" in out
        assert self._report(out) == reference
        # The CLI derived the same job key, so it retired the killed
        # run's chain along with its own snapshots.
        assert manager.manifests() == []
        assert main(["cache", "checkpoints"]) == 0
        assert "0 across 0 job(s)" in capsys.readouterr().out
