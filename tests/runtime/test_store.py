"""Tests for the content-addressed artifact store."""

from __future__ import annotations

import json
import pickle
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.runtime.instrument import stage_timer
from repro.runtime.store import (
    STORE_VERSION,
    ArtifactStore,
    canonical_repr,
    default_store,
    reset_default_stores,
    stable_hash,
)


@dataclass(frozen=True)
class _Knobs:
    a: int = 1
    b: float = 0.5


class TestStableHash:
    def test_nested_dict_order_insensitive(self):
        """Regression: ``repr(sorted(...))`` only sorted the top level."""
        left = {"outer": {"b": 1, "a": 2}, "x": [1, 2]}
        right = {"x": [1, 2], "outer": {"a": 2, "b": 1}}
        assert stable_hash(left) == stable_hash(right)

    def test_deep_nesting(self):
        left = {"p": {"q": {"z": 1, "y": {"n": 2, "m": 3}}}}
        right = {"p": {"q": {"y": {"m": 3, "n": 2}, "z": 1}}}
        assert stable_hash(left) == stable_hash(right)

    def test_values_distinguish(self):
        assert stable_hash({"a": {"b": 1}}) != stable_hash({"a": {"b": 2}})

    def test_type_distinctions(self):
        # 1 vs 1.0 vs "1" must not collide; bool is not int 1.
        hashes = {stable_hash(v) for v in (1, 1.0, "1", True)}
        assert len(hashes) == 4

    def test_dataclass_and_numpy(self):
        assert stable_hash(_Knobs()) == stable_hash(_Knobs(a=1, b=0.5))
        assert stable_hash(_Knobs()) != stable_hash(_Knobs(a=2))
        assert stable_hash(np.int64(3)) == stable_hash(3)
        assert stable_hash(np.array([1, 2])) == stable_hash(np.array([1, 2]))

    def test_list_vs_tuple_equivalent_but_sets_sorted(self):
        assert canonical_repr([1, 2]) == canonical_repr((1, 2))
        assert stable_hash({2, 1}) == stable_hash({1, 2})

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(object())


class TestStoreRoundtrip:
    def test_put_get(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("profile", {"w": "wc"})
        store.put(key, {"value": 42}, kind="profile", params={"w": "wc"})
        assert store.get(key) == {"value": 42}
        # Fresh store instance: comes back from disk, not memory.
        other = ArtifactStore(tmp_path)
        assert other.get(key) == {"value": 42}
        assert other.stats.disk_hits == 1

    def test_key_carries_kind_and_version(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("model", {"x": 1})
        assert key.startswith(f"model-{STORE_VERSION}-")

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(KeyError):
            ArtifactStore(tmp_path).get("profile-v0-deadbeef")

    def test_manifest_contents(self, tmp_path):
        store = ArtifactStore(tmp_path)
        value = store.get_or_compute("profile", {"w": "wc", "n": 3}, lambda: [1, 2])
        assert value == [1, 2]
        key = store.key_for("profile", {"w": "wc", "n": 3})
        manifest = store.manifest(key)
        assert manifest is not None
        assert manifest.kind == "profile"
        assert manifest.version == STORE_VERSION
        assert manifest.params == {"w": "wc", "n": 3}
        assert manifest.size_bytes == len(
            pickle.dumps([1, 2], protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert "hits" not in json.loads((tmp_path / f"{key}.json").read_text())

    def test_get_changes_no_file_in_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get_or_compute("profile", {"w": "wc"}, lambda: "v")
        key = store.key_for("profile", {"w": "wc"})

        def files():
            return {
                p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in sorted(tmp_path.iterdir())
            }

        before = files()
        for _ in range(2):
            reader = ArtifactStore(tmp_path)
            assert reader.get(key) == "v"
        assert files() == before

    def test_manifest_with_hit_counter_still_loads(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key_for("profile", {"w": "wc"})
        store.put(key, "v", kind="profile")
        path = tmp_path / f"{key}.json"
        old = json.loads(path.read_text())
        old["hits"] = 7
        path.write_text(json.dumps(old))
        reader = ArtifactStore(tmp_path)
        assert reader.get(key) == "v"
        assert reader.manifest(key).kind == "profile"
        assert store.manifest_status(key) == "ok"

    def test_disk_hit_reads_manifest_once(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        key = store.key_for("profile", {"w": "wc"})
        store.put(key, "v", kind="profile")
        reader = ArtifactStore(tmp_path)
        reads = []
        real = ArtifactStore.manifest

        def counting(self, k):
            reads.append(k)
            return real(self, k)

        monkeypatch.setattr(ArtifactStore, "manifest", counting)
        assert reader.get(key) == "v"
        # A memory hit does not read the manifest again.
        assert reader.get(key) == "v"
        monkeypatch.undo()
        assert reads == [key]

    def test_stage_timings_captured_in_manifest(self, tmp_path):
        store = ArtifactStore(tmp_path)

        def compute():
            with stage_timer("trace-gen"):
                time.sleep(0.01)
            return "x"

        store.get_or_compute("profile", {"w": "wc"}, compute)
        manifest = store.manifest(store.key_for("profile", {"w": "wc"}))
        assert manifest.stages.get("trace-gen", 0.0) > 0.0
        assert manifest.compute_seconds >= manifest.stages["trace-gen"]


class TestCorruptionRecovery:
    def test_corrupt_value_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return "fresh"

        store.get_or_compute("profile", {"w": "wc"}, compute)
        key = store.key_for("profile", {"w": "wc"})
        (tmp_path / f"{key}.pkl").write_bytes(b"garbage")
        store.clear_memory()
        assert store.get_or_compute("profile", {"w": "wc"}, compute) == "fresh"
        assert len(calls) == 2

    def test_corrupt_manifest_tolerated(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("profile-v7-abc", "v", kind="profile")
        (tmp_path / "profile-v7-abc.json").write_text("{not json")
        store.clear_memory()
        assert store.get("profile-v7-abc") == "v"
        # entries() synthesises a manifest rather than crashing.
        assert any(m.key == "profile-v7-abc" for m in store.entries())


class TestIntegrity:
    def _put_one(self, store: ArtifactStore) -> str:
        key = store.key_for("profile", {"w": "wc"})
        store.put(key, {"payload": list(range(50))}, kind="profile")
        return key

    def test_put_records_payload_digest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = self._put_one(store)
        manifest = store.manifest(key)
        assert len(manifest.payload_sha256) == 64

    def test_corrupt_payload_quarantined_on_get(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = self._put_one(store)
        # Still a valid pickle, so only the digest can catch it.
        (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps({"evil": 1}))
        store.clear_memory()
        with pytest.raises(KeyError):
            store.get(key)
        assert not store.contains(key)
        assert (tmp_path / "quarantine" / f"{key}.pkl").exists()
        assert (tmp_path / "quarantine" / f"{key}.json").exists()
        # The quarantined manifest is the original.
        parked = json.loads((tmp_path / "quarantine" / f"{key}.json").read_text())
        assert parked["key"] == key and len(parked["payload_sha256"]) == 64

    def test_verify_classifies_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ok_key = self._put_one(store)
        bad_key = store.key_for("profile", {"w": "bad"})
        store.put(bad_key, "value", kind="profile")
        (tmp_path / f"{bad_key}.pkl").write_bytes(b"flipped bits")
        legacy_key = store.key_for("profile", {"w": "legacy"})
        store.put(legacy_key, "old", kind="profile")
        manifest = store.manifest(legacy_key)
        manifest.payload_sha256 = ""
        (tmp_path / f"{legacy_key}.json").write_text(manifest.to_json())

        report = store.verify()
        assert report["ok"] == [ok_key]
        assert report["corrupt"] == [bad_key]
        assert report["unverified"] == [legacy_key]
        # verify() alone leaves the bad entry in place...
        assert (tmp_path / f"{bad_key}.pkl").exists()

        # ...repair=True quarantines it.
        report = store.verify(repair=True)
        assert report["corrupt"] == [bad_key]
        assert not (tmp_path / f"{bad_key}.pkl").exists()
        assert (tmp_path / "quarantine" / f"{bad_key}.pkl").exists()
        assert ArtifactStore(tmp_path).verify()["corrupt"] == []

    def test_get_or_compute_recovers_from_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return "fresh"

        store.get_or_compute("profile", {"w": "wc"}, compute)
        key = store.key_for("profile", {"w": "wc"})
        (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps("tampered"))
        store.clear_memory()
        assert store.get_or_compute("profile", {"w": "wc"}, compute) == "fresh"
        assert len(calls) == 2

    def test_manifest_status(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = self._put_one(store)
        assert store.manifest_status(key) == "ok"
        assert store.manifest_status("profile-v7-nope") == "missing"
        (tmp_path / f"{key}.json").write_text("{torn", encoding="utf-8")
        assert store.manifest_status(key) == "corrupt"


class TestConcurrency:
    def test_concurrent_writers_same_key(self, tmp_path):
        """Many writers racing on one key leave a valid entry behind.

        Regression for the old shared ``.tmp`` path: two processes used
        the same temporary file and could tear each other's writes.
        """
        store = ArtifactStore(tmp_path)
        key = store.key_for("profile", {"w": "race"})
        errors = []
        payload = list(range(2000))

        def writer(i: int) -> None:
            try:
                local = ArtifactStore(tmp_path)
                local.put(key, payload, kind="profile")
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert ArtifactStore(tmp_path).get(key) == payload
        assert not list(tmp_path.glob("*.tmp"))


class TestGC:
    def _populate(self, store: ArtifactStore) -> None:
        store.put(store.key_for("profile", {"i": 1}), "a", kind="profile")
        store.put(store.key_for("model", {"i": 1}), "b", kind="model")
        # An entry from an older store version.
        old = ArtifactStore(store.root)
        old.put("profile-v6-0123456789abcdef0123", "stale", kind="profile")
        manifest = old.manifest("profile-v6-0123456789abcdef0123")
        manifest.version = "v6"
        (store.root / "profile-v6-0123456789abcdef0123.json").write_text(
            manifest.to_json()
        )

    def test_gc_stale_only(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._populate(store)
        removed, _ = store.gc(stale_only=True)
        assert removed == 1
        assert len(list(tmp_path.glob("*.pkl"))) == 2

    def test_gc_by_age(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._populate(store)
        removed, _ = store.gc(max_age_days=1.0)
        assert removed == 0
        removed, reclaimed = store.gc(max_age_days=-1.0)  # everything is "old"
        assert removed == 3
        assert reclaimed > 0
        assert not list(tmp_path.glob("*.pkl"))

    def test_gc_spares_young_tmp_files(self, tmp_path):
        """Regression: the sweep used to reap a live writer's tempfile."""
        import os as _os

        store = ArtifactStore(tmp_path)
        young = tmp_path / ".profile-v7-abc.pkl.1234.tmp"
        young.write_bytes(b"half-written")
        old = tmp_path / ".profile-v7-def.pkl.5678.tmp"
        old.write_bytes(b"orphaned")
        stale = time.time() - 2 * ArtifactStore.TMP_GRACE_SECONDS
        _os.utime(old, (stale, stale))

        store.gc(everything=True)
        assert young.exists()  # inside the grace period
        assert not old.exists()  # past it

        store.gc(everything=True, tmp_grace_seconds=0.0)
        assert not young.exists()

    def test_gc_dry_run_leaves_tmp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        tmp = tmp_path / ".profile-v7-abc.pkl.1.tmp"
        tmp.write_bytes(b"x")
        store.gc(everything=True, dry_run=True, tmp_grace_seconds=0.0)
        assert tmp.exists()

    def test_gc_kind_filter_and_dry_run(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._populate(store)
        removed, _ = store.gc(everything=True, kind="model", dry_run=True)
        assert removed == 1
        assert len(list(tmp_path.glob("*.pkl"))) == 3  # dry run deleted nothing
        removed, _ = store.gc(everything=True, kind="model")
        assert removed == 1
        assert len(list(tmp_path.glob("*.pkl"))) == 2


class TestDefaultStore:
    def test_per_root_instances(self, tmp_path, monkeypatch):
        reset_default_stores()
        monkeypatch.setenv("SIMPROF_CACHE_DIR", str(tmp_path / "a"))
        store_a = default_store()
        assert default_store() is store_a
        monkeypatch.setenv("SIMPROF_CACHE_DIR", str(tmp_path / "b"))
        store_b = default_store()
        assert store_b is not store_a
        assert store_b.root != store_a.root
        reset_default_stores()
