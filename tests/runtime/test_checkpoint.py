"""Checkpoint chains and kill/resume bit-identity.

The acceptance property of the checkpoint layer: a streaming job killed
mid-stream and resumed from its latest checkpoint — possibly on another
worker, against a freshly recreated stream — produces a result
byte-identical (``content_digest``) to the uninterrupted run.  Checked
across all three stream substrates: wc/spark, wc/hadoop, and
``trace_to_stream`` over a recorded trace.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import SimProf
from repro.core.profiler import ProfilerSession
from repro.jvm.stream import trace_to_stream
from repro.runtime.checkpoint import (
    CHECKPOINT_KIND,
    CheckpointManager,
    CheckpointPolicy,
    WorkerKilled,
    checkpoint_job_key,
    drive_session,
    iter_checkpoint_manifests,
    verify_checkpoints,
)
from repro.runtime.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    decode_state,
    encode_state,
    state_digest,
)
from repro.runtime.store import ArtifactStore
from repro.workloads import run_workload_stream
from tests.conftest import TEST_SCALE, TEST_SIMPROF_CONFIG


def _session(stream):
    return ProfilerSession(
        TEST_SIMPROF_CONFIG.profiler_config(), stream, collect=True
    )


def _stream(framework):
    return run_workload_stream("wc", framework, scale=TEST_SCALE, seed=0)


class TestJobKey:
    def test_stable_and_order_insensitive(self):
        a = checkpoint_job_key({"workload": "wc", "scale": 0.1})
        b = checkpoint_job_key({"scale": 0.1, "workload": "wc"})
        assert a == b and len(a) == 20

    def test_distinct_jobs_distinct_keys(self):
        assert checkpoint_job_key({"seed": 0}) != checkpoint_job_key({"seed": 1})


class TestManager:
    def test_save_latest_clear(self, tmp_path):
        manager = CheckpointManager(ArtifactStore(tmp_path), "job-a")
        manager.save(5, {"position": 5, "x": 1})
        manager.save(9, {"position": 9, "x": 2})
        position, state = manager.latest()
        assert position == 9 and state["x"] == 2
        assert [int(m.params["position"]) for m in manager.manifests()] == [5, 9]
        assert manager.clear() == 2
        assert manager.latest() is None

    def test_save_is_idempotent(self, tmp_path):
        manager = CheckpointManager(ArtifactStore(tmp_path), "job-a")
        key = manager.save(5, {"position": 5})
        assert manager.save(5, {"position": 5}) == key
        assert len(manager.manifests()) == 1

    def test_jobs_are_isolated(self, tmp_path):
        store = ArtifactStore(tmp_path)
        a = CheckpointManager(store, "job-a")
        b = CheckpointManager(store, "job-b")
        a.save(3, {"position": 3})
        b.save(7, {"position": 7})
        assert a.latest()[0] == 3
        assert b.latest()[0] == 7
        assert a.clear() == 1
        assert b.latest()[0] == 7
        assert sum(1 for _ in iter_checkpoint_manifests(store)) == 1
        assert next(iter_checkpoint_manifests(store)).kind == CHECKPOINT_KIND


class TestPolicy:
    def test_validation(self, tmp_path):
        manager = CheckpointManager(ArtifactStore(tmp_path), "job")
        with pytest.raises(ValueError):
            CheckpointPolicy(manager, every=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(manager, kill_after=-1)


class TestDriveSession:
    def test_uninterrupted_matches_plain_consume(self, tmp_path):
        manager = CheckpointManager(ArtifactStore(tmp_path), "job")
        policy = CheckpointPolicy(manager, every=1)
        stream = _stream("spark")
        session = _session(stream)
        drive_session(session, stream, policy)
        checkpointed = session.result()

        plain_stream = _stream("spark")
        plain = _session(plain_stream)
        for event in plain_stream:
            plain.feed(event)
        plain.finish()
        assert checkpointed.content_digest() == plain.result().content_digest()
        assert len(manager.manifests()) > 0

    @pytest.mark.parametrize(
        "substrate", ["wc/spark", "wc/hadoop", "trace_to_stream"]
    )
    @pytest.mark.parametrize("kill_after", [6, 13])
    def test_kill_and_resume_bit_identical(
        self, tmp_path, substrate, kill_after, wc_spark_trace
    ):
        """Checkpoint at every batch; kill; resume; compare digests."""
        if substrate == "trace_to_stream":
            def make_stream():
                return trace_to_stream(wc_spark_trace, batch_size=256)
        else:
            framework = substrate.split("/")[1]

            def make_stream():
                return _stream(framework)

        reference_stream = make_stream()
        reference = _session(reference_stream)
        for event in reference_stream:
            reference.feed(event)
        reference.finish()
        want = reference.result().content_digest()

        manager = CheckpointManager(ArtifactStore(tmp_path), "job")
        stream = make_stream()
        session = _session(stream)
        with pytest.raises(WorkerKilled):
            drive_session(
                session,
                stream,
                CheckpointPolicy(manager, every=1, kill_after=kill_after),
            )
        # A kill that lands before the first batch leaves no checkpoint
        # (nothing worth saving yet); the resume then simply starts over.
        saved = manager.manifests()
        assert all(int(m.params["position"]) <= kill_after for m in saved)

        # The killed session object is dead; a fresh worker resumes.
        resumed_stream = make_stream()
        resumed = _session(resumed_stream)
        drive_session(
            resumed, resumed_stream, CheckpointPolicy(manager, every=1)
        )
        assert resumed.result().content_digest() == want

    def test_resume_skips_kill_already_passed(self, tmp_path):
        manager = CheckpointManager(ArtifactStore(tmp_path), "job")
        stream = _stream("spark")
        session = _session(stream)
        with pytest.raises(WorkerKilled):
            drive_session(
                session,
                stream,
                CheckpointPolicy(manager, every=1, kill_after=10),
            )
        resumed_from = manager.latest()[0]
        resumed_stream = _stream("spark")
        resumed = _session(resumed_stream)
        # kill_after at a position the resume fast-forwards over: the
        # kill must not re-fire, the run completes.
        drive_session(
            resumed,
            resumed_stream,
            CheckpointPolicy(manager, every=1, kill_after=resumed_from),
        )
        assert resumed.result() is not None

    def test_coarse_interval_checkpoints_less(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fine = CheckpointManager(store, "fine")
        coarse = CheckpointManager(store, "coarse")
        for manager, every in ((fine, 1), (coarse, 5)):
            stream = _stream("spark")
            session = _session(stream)
            drive_session(session, stream, CheckpointPolicy(manager, every=every))
        assert len(coarse.manifests()) < len(fine.manifests())

    def test_foreign_checkpoint_rejected_on_short_stream(self, tmp_path):
        manager = CheckpointManager(ArtifactStore(tmp_path), "job")
        stream = _stream("spark")
        session = _session(stream)
        n_events = drive_session(
            session, stream, CheckpointPolicy(manager, every=1, resume=False)
        )
        manager.save(n_events + 1000, {"position": n_events + 1000,
                                       "session": session.snapshot()})
        fresh_stream = _stream("spark")
        fresh = _session(fresh_stream)
        with pytest.raises(ValueError, match="fast-forwarding"):
            drive_session(
                fresh, fresh_stream, CheckpointPolicy(manager, every=1)
            )


class TestSimProfCheckpointEntryPoints:
    def test_profile_stream_resumes_through_pipeline(self, tmp_path):
        tool = SimProf(TEST_SIMPROF_CONFIG)
        want = tool.profile_stream(_stream("spark")).content_digest()

        manager = CheckpointManager(ArtifactStore(tmp_path), "job")
        with pytest.raises(WorkerKilled):
            tool.profile_stream(
                _stream("spark"),
                checkpoint=CheckpointPolicy(manager, every=1, kill_after=12),
            )
        assert manager.latest() is not None
        resumed = tool.profile_stream(
            _stream("spark"), checkpoint=CheckpointPolicy(manager, every=1)
        )
        assert resumed.content_digest() == want


class TestChainCorruption:
    """Damaged chain entries are quarantined, never resumed (satellite 3)."""

    def _chain(self, tmp_path):
        store = ArtifactStore(tmp_path)
        manager = CheckpointManager(store, "job-c")
        manager.save(5, {"position": 5, "session": {"x": 1}})
        key9 = manager.save(9, {"position": 9, "session": {"x": 2}})
        return store, manager, key9

    def test_truncated_payload_falls_back_to_previous(self, tmp_path):
        store, manager, key9 = self._chain(tmp_path)
        # The newest checkpoint's payload is cut mid-write: the bytes
        # no longer match the manifest digest.
        path = store.root / f"{key9}.pkl"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        store.clear_memory()  # a replacement worker reads cold
        position, state = manager.latest()
        assert position == 5 and state["session"] == {"x": 1}
        # The damaged entry was parked for autopsy, not deleted.
        assert (store.root / "quarantine" / f"{key9}.pkl").exists()

    def test_snapshot_cut_before_store_falls_back(self, tmp_path):
        """A snapshot truncated *before* storage: the byte digest
        faithfully records garbage, so only snapshot-level validation
        (SnapshotError on decode) can catch it."""
        store, manager, key9 = self._chain(tmp_path)
        torn = encode_state({"position": 9, "session": {"x": 2}})[:-7]
        with pytest.raises(SnapshotError):
            decode_state(torn)
        store.put(
            key9,
            torn,
            kind=CHECKPOINT_KIND,
            params={
                "job": "job-c",
                "position": 9,
                "snapshot": SNAPSHOT_VERSION,
                "state_digest": state_digest(torn),
            },
        )
        store.clear_memory()
        position, state = manager.latest()
        assert position == 5 and state["session"] == {"x": 1}
        assert (store.root / "quarantine" / f"{key9}.pkl").exists()

    def test_wrong_state_digest_falls_back(self, tmp_path):
        store, manager, key9 = self._chain(tmp_path)
        blob = encode_state({"position": 9, "session": {"x": 99}})
        manifest = store.manifest(key9)
        store.put(
            key9, blob, kind=CHECKPOINT_KIND, params=manifest.params
        )  # digest param still names the original state
        store.clear_memory()
        position, state = manager.latest()
        assert position == 5 and state["session"] == {"x": 1}

    def test_fully_corrupt_chain_resumes_from_scratch(self, tmp_path):
        store = ArtifactStore(tmp_path)
        manager = CheckpointManager(store, "job-d")
        key = manager.save(3, {"position": 3, "session": {"x": 1}})
        path = store.root / f"{key}.pkl"
        path.write_bytes(b"\x00" * 10)
        store.clear_memory()
        assert manager.latest() is None


class TestSnapshotVersion:
    def test_v1_checkpoint_is_refused(self, tmp_path):
        # v2 dropped the stream guard from the session snapshot; a chain
        # written before that is neither listed, resumed nor decoded.
        assert SNAPSHOT_VERSION == "v2"
        v1_blob = encode_state({"position": 3, "session": {"x": 1}}).replace(
            b'"__snapshot_version__":"v2"', b'"__snapshot_version__":"v1"'
        )
        with pytest.raises(SnapshotError, match="'v1'"):
            decode_state(v1_blob)
        store = ArtifactStore(tmp_path)
        params = {
            "job": "job-old",
            "position": 3,
            "snapshot": "v1",
            "state_digest": state_digest(v1_blob),
        }
        key = store.key_for(CHECKPOINT_KIND, params)
        store.put(key, v1_blob, kind=CHECKPOINT_KIND, params=params)
        store.clear_memory()
        manager = CheckpointManager(store, "job-old")
        assert manager.manifests() == []
        assert manager.latest() is None


class TestVerifyCheckpoints:
    def test_deep_verify_classifies_all_three_ways(self, tmp_path):
        store = ArtifactStore(tmp_path)
        manager = CheckpointManager(store, "job-v")
        good = manager.save(2, {"position": 2, "session": {"x": 1}})
        bad_bytes = manager.save(4, {"position": 4, "session": {"x": 2}})
        bad_snap = manager.save(6, {"position": 6, "session": {"x": 3}})
        unverified = manager.save(8, {"position": 8, "session": {"x": 4}})
        # bad_bytes: payload rots on disk after storage.
        path = store.root / f"{bad_bytes}.pkl"
        path.write_bytes(path.read_bytes()[:-4] + b"ROT!")
        # bad_snap: digest-consistent garbage (torn before storage).
        torn = encode_state({"position": 6, "session": {"x": 3}})[:-5]
        store.put(
            bad_snap,
            torn,
            kind=CHECKPOINT_KIND,
            params={
                "job": "job-v",
                "position": 6,
                "snapshot": SNAPSHOT_VERSION,
                "state_digest": state_digest(torn),
            },
        )
        # unverified: a pre-integrity-era entry with no recorded digest.
        manifest = store.manifest(unverified)
        manifest.payload_sha256 = ""
        (store.root / f"{unverified}.json").write_text(manifest.to_json())

        report = verify_checkpoints(store)
        assert report["ok"] == [good]
        assert sorted(report["corrupt"]) == sorted([bad_bytes, bad_snap])
        assert report["unverified"] == [unverified]
        # Dry verify quarantines nothing.
        assert (store.root / f"{bad_bytes}.pkl").exists()

        repaired = verify_checkpoints(store, repair=True)
        assert sorted(repaired["corrupt"]) == sorted([bad_bytes, bad_snap])
        assert not (store.root / f"{bad_bytes}.pkl").exists()
        assert (store.root / "quarantine" / f"{bad_bytes}.pkl").exists()
        # The chain now resumes from the newest healthy entry.
        store.clear_memory()
        position, _state = manager.latest()
        assert position in (2, 8)

    def test_non_checkpoint_entries_ignored(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(
            store.key_for("profile", {"a": 1}), {"v": 1},
            kind="profile", params={"a": 1},
        )
        assert verify_checkpoints(store) == {
            "ok": [], "corrupt": [], "unverified": [],
        }
