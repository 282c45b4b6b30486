"""Content-addressed artifact store.

Replaces the ad-hoc pickle cache that used to live in
``repro.experiments.common``.  Every artifact (workload profile, phase
model, …) is stored under a key derived from a *stable* hash of the full
parameter set that produced it:

* nested dicts/lists/tuples/dataclasses are canonicalised recursively
  (dict keys sorted at every level — the old ``repr(sorted(...))``
  scheme only sorted the top level and fragmented the cache),
* keys include a store version so recalibrations invalidate cleanly,
* values are written atomically via a unique temporary file +
  ``os.replace``, so concurrent writers (the parallel runner, or two
  benchmark sessions) never observe torn entries,
* every entry carries a JSON manifest: the parameters, when and how long
  it took to compute, per-stage timings and payload size.  Manifests are
  written once, with their entry: reading an entry writes nothing.

The store location defaults to ``~/.cache/simprof-repro`` and is
overridden by ``SIMPROF_CACHE_DIR``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.runtime.instrument import get_instrumentation

__all__ = [
    "STORE_VERSION",
    "stable_hash",
    "canonical_repr",
    "digest_arrays",
    "ArtifactManifest",
    "CacheStats",
    "ArtifactStore",
    "default_store",
    "reset_default_stores",
]

# Bump when simulator calibration or the key schema changes so stale
# artifacts stop being served.  (v6 was the last experiments/common.py
# pickle-cache version; v7 is the first store version.)
STORE_VERSION = "v7"


# -- stable hashing -----------------------------------------------------------


def canonical_repr(obj: Any) -> str:
    """Deterministic text encoding of a nested parameter structure.

    Dict keys are sorted at *every* nesting level, dataclasses are
    encoded field-by-field, and floats use ``repr`` (shortest
    round-trip), so two structurally equal parameter sets always encode
    identically regardless of construction order.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, bytes):
        return f"bytes:{obj.hex()}"
    if isinstance(obj, dict):
        items = sorted(
            (canonical_repr(k), canonical_repr(v)) for k, v in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_repr(v) for v in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "set[" + ",".join(sorted(canonical_repr(v) for v in obj)) + "]"
    if is_dataclass(obj) and not isinstance(obj, type):
        body = {f.name: getattr(obj, f.name) for f in fields(obj)}
        return type(obj).__name__ + canonical_repr(body)
    if isinstance(obj, np.generic):
        return canonical_repr(obj.item())
    if isinstance(obj, np.ndarray):
        return "ndarray" + canonical_repr(obj.tolist())
    if isinstance(obj, Path):
        return f"path:{obj}"
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for cache hashing; "
        "pass plain dicts/lists/scalars/dataclasses"
    )


def stable_hash(obj: Any) -> str:
    """SHA-256 over the canonical encoding of ``obj``."""
    return hashlib.sha256(canonical_repr(obj).encode()).hexdigest()


def digest_arrays(parts: Iterable[Any]) -> str:
    """SHA-256 over a sequence of scalars, strings and ndarrays.

    The fast-path sibling of :func:`stable_hash` for bulk numeric
    content (e.g. a profile's per-unit arrays): ndarrays are hashed
    from their raw buffer (dtype and shape included, C-order enforced)
    instead of being canonicalised element by element, which keeps
    digesting a 10⁵-unit profile in the milliseconds.  Scalars and
    strings hash via ``repr``; every part is length-framed so adjacent
    parts cannot collide by concatenation.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            head = f"nd:{arr.dtype.str}:{arr.shape}:".encode()
            h.update(head)
            h.update(arr.tobytes())
        elif isinstance(part, bytes):
            h.update(b"b:")
            h.update(part)
        else:
            h.update(b"s:" + repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _jsonable(obj: Any) -> Any:
    """Best-effort conversion of params to JSON for the manifest."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        # Key-sorted so the manifest bytes do not depend on insertion
        # order (json.dumps sort_keys only helps once keys are strings).
        return {
            str(k): _jsonable(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (set, frozenset)):
        # Sets have no stable iteration order; sort the rendered items
        # so two runs produce byte-identical manifests.
        return sorted((_jsonable(v) for v in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return repr(obj)


# -- payload pickling ---------------------------------------------------------


class _Pickler(pickle.Pickler):
    """Pickles equal numpy dtypes as one shared object.

    Pickle shares objects by identity, and equal dtypes need not be one
    object: every unpickled array carries its own dtype and ufuncs pass
    it on to their results.  Without this, a value computed from inputs
    loaded off the store and the same value computed from in-memory
    inputs would pickle to different bytes.
    """

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._dtypes: dict[str, np.dtype] = {}

    def _canonical(self, part: Any) -> Any:
        if isinstance(part, np.dtype):
            # The dtype's own reduction tells apart what == does not
            # (metadata, for one).
            return self._dtypes.setdefault(repr(part.__reduce__()), part)
        return part

    def reducer_override(self, obj: Any) -> Any:
        if type(obj) is not np.ndarray and not isinstance(obj, np.generic):
            return NotImplemented
        fn, args, *rest = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        args = tuple(self._canonical(a) for a in args)
        if rest and isinstance(rest[0], tuple):  # ndarray state
            rest[0] = tuple(self._canonical(p) for p in rest[0])
        return (fn, args, *rest)


def _dumps(value: Any) -> bytes:
    """The payload bytes of ``value`` (see :class:`_Pickler`)."""
    buf = io.BytesIO()
    _Pickler(buf).dump(value)
    return buf.getvalue()


# -- manifests ----------------------------------------------------------------


@dataclass
class ArtifactManifest:
    """Sidecar metadata for one store entry."""

    key: str
    kind: str
    version: str = STORE_VERSION
    params: dict[str, Any] = field(default_factory=dict)
    created: float = 0.0
    compute_seconds: float = 0.0
    size_bytes: int = 0
    stages: dict[str, float] = field(default_factory=dict)
    # Per-stage numeric counters captured during the compute (e.g. the
    # streaming profiler's units / unit_seconds), keyed stage → counter.
    counters: dict[str, dict[str, float]] = field(default_factory=dict)
    # SHA-256 of the pickled payload; empty on entries written before
    # integrity checking existed (those read as "unverified").
    payload_sha256: str = ""
    # Stage-level lineage (see repro.runtime.provenance): the logical
    # node id, upstream artifact keys, parameter digest, and the code
    # fingerprint of the stage's reachable-module closure.  Empty for
    # artifacts written outside the provenance plane.
    provenance: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "key": self.key,
                "kind": self.kind,
                "version": self.version,
                "params": self.params,
                "created": self.created,
                "compute_seconds": self.compute_seconds,
                "size_bytes": self.size_bytes,
                "stages": self.stages,
                "counters": self.counters,
                "payload_sha256": self.payload_sha256,
                "provenance": self.provenance,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ArtifactManifest":
        data = json.loads(text)
        return cls(
            key=data["key"],
            kind=data["kind"],
            version=data.get("version", "?"),
            params=data.get("params", {}),
            created=data.get("created", 0.0),
            compute_seconds=data.get("compute_seconds", 0.0),
            size_bytes=data.get("size_bytes", 0),
            stages=data.get("stages", {}),
            counters=data.get("counters", {}),
            payload_sha256=data.get("payload_sha256", ""),
            provenance=data.get("provenance", {}),
        )


@dataclass
class CacheStats:
    """Per-process hit/miss counters for one store instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.memory_hits, self.disk_hits, self.misses, self.puts)


# -- the store ----------------------------------------------------------------


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (unique tempfile + replace).

    Safe under concurrent writers: each writer gets its own temporary
    file in the same directory, and ``os.replace`` is atomic on POSIX,
    so readers see either the old complete entry or the new one.
    """
    fd = tempfile.NamedTemporaryFile(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp", delete=False
    )
    try:
        fd.write(data)
        fd.flush()
        fd.close()
        os.replace(fd.name, path)
    except BaseException:
        fd.close()
        with _suppress_oserror():
            os.unlink(fd.name)
        raise


class _suppress_oserror:
    def __enter__(self):  # pragma: no cover - trivial
        return self

    def __exit__(self, exc_type, exc, tb):
        return exc_type is not None and issubclass(exc_type, OSError)


class ArtifactStore:
    """Content-addressed pickle store with manifests and a memory tier."""

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get("SIMPROF_CACHE_DIR") or (
                Path.home() / ".cache" / "simprof-repro"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._memory: dict[str, Any] = {}

    # -- keys -----------------------------------------------------------------

    def key_for(self, kind: str, params: dict[str, Any]) -> str:
        """Content-addressed key: kind + store version + stable hash."""
        return f"{kind}-{STORE_VERSION}-{stable_hash(params)[:20]}"

    # -- paths ----------------------------------------------------------------

    def _value_path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _manifest_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- core operations ------------------------------------------------------

    def contains(self, key: str) -> bool:
        """True if the entry is in memory or on disk."""
        return key in self._memory or self._value_path(key).exists()

    def get(self, key: str) -> Any:
        """Load an entry, or raise ``KeyError``.

        Disk hits are promoted to the memory tier.  A read writes
        nothing: reuse is counted per graph run by the provenance
        plane's stats sidecar, not per entry.
        """
        if key in self._memory:
            self.stats.memory_hits += 1
            return self._memory[key]
        path = self._value_path(key)
        try:
            payload = path.read_bytes()
        except OSError:
            raise KeyError(key) from None
        manifest = self.manifest(key)
        if (
            manifest is not None
            and manifest.payload_sha256
            and hashlib.sha256(payload).hexdigest() != manifest.payload_sha256
        ):
            # Bit-rot or truncation: never unpickle bytes that fail the
            # manifest digest — park the evidence and let the caller
            # recompute.
            self.quarantine(key)
            raise KeyError(key)
        try:
            value = pickle.loads(payload)
        except Exception:
            # Corrupt entry (torn write from a killed process, version
            # drift): drop it so the caller recomputes.
            self.delete(key)
            raise KeyError(key) from None
        self.stats.disk_hits += 1
        self._memory[key] = value
        return value

    def put(
        self,
        key: str,
        value: Any,
        *,
        kind: str | None = None,
        params: dict[str, Any] | None = None,
        compute_seconds: float = 0.0,
        stages: dict[str, float] | None = None,
        counters: dict[str, dict[str, float]] | None = None,
        provenance: dict[str, Any] | None = None,
    ) -> ArtifactManifest:
        """Store a value and its manifest atomically."""
        payload = _dumps(value)
        manifest = ArtifactManifest(
            key=key,
            kind=kind or key.split("-", 1)[0],
            params=_jsonable(params or {}),
            created=time.time(),
            compute_seconds=compute_seconds,
            size_bytes=len(payload),
            stages=stages or {},
            counters=counters or {},
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            provenance=_jsonable(provenance or {}),
        )
        _atomic_write_bytes(self._value_path(key), payload)
        _atomic_write_bytes(
            self._manifest_path(key), manifest.to_json().encode()
        )
        self._memory[key] = value
        self.stats.puts += 1
        return manifest

    def get_or_compute(
        self,
        kind: str,
        params: dict[str, Any],
        compute: Callable[[], Any],
        *,
        provenance: dict[str, Any] | None = None,
    ) -> Any:
        """The one-call workhorse: load by derived key or compute-and-store.

        Stage timings recorded (via the global instrumentation) while
        ``compute`` runs are captured into the entry's manifest.
        """
        key = self.key_for(kind, params)
        try:
            return self.get(key)
        except KeyError:
            pass
        self.stats.misses += 1
        instrumentation = get_instrumentation()
        start = time.perf_counter()
        with instrumentation.capture() as stage_delta:
            value = compute()
        elapsed = time.perf_counter() - start
        self.put(
            key,
            value,
            kind=kind,
            params=params,
            compute_seconds=elapsed,
            stages={name: s.seconds for name, s in stage_delta.items()},
            counters={
                name: dict(s.counters)
                for name, s in stage_delta.items()
                if s.counters
            },
            provenance=provenance,
        )
        return value

    def read_payload(self, key: str) -> bytes:
        """Raw on-disk payload bytes for ``key``, or raise ``KeyError``.

        No unpickle and no digest check: the caller verifies the bytes
        against the manifest (``cache verify``'s deep checkpoint checks).
        """
        try:
            return self._value_path(key).read_bytes()
        except OSError:
            raise KeyError(key) from None

    def delete(self, key: str) -> None:
        """Remove an entry (value + manifest + memory tier)."""
        self._memory.pop(key, None)
        self._value_path(key).unlink(missing_ok=True)
        self._manifest_path(key).unlink(missing_ok=True)

    def quarantine(self, key: str) -> None:
        """Move an entry's files into ``<root>/quarantine/`` for autopsy.

        Unlike :meth:`delete` the bytes survive (same filenames, new
        directory), but the entry stops being served: the next ``get``
        misses and the caller recomputes.
        """
        qdir = self.root / "quarantine"
        qdir.mkdir(exist_ok=True)
        self._memory.pop(key, None)
        for path in (self._value_path(key), self._manifest_path(key)):
            if path.exists():
                with _suppress_oserror():
                    os.replace(path, qdir / path.name)

    def verify(self, *, repair: bool = False) -> dict[str, list[str]]:
        """Integrity-check every on-disk payload against its manifest.

        Returns ``{"ok": [...], "corrupt": [...], "unverified": [...]}``
        (entry keys, sorted).  ``corrupt`` means the payload bytes no
        longer match the manifest's recorded SHA-256; ``unverified``
        means no digest was recorded (entry predates integrity
        checking, or its manifest is missing/corrupt).  With
        ``repair=True`` corrupt entries are quarantined.
        """
        out: dict[str, list[str]] = {"ok": [], "corrupt": [], "unverified": []}
        for path in sorted(self.root.glob("*.pkl")):
            key = path.stem
            manifest = self.manifest(key)
            if manifest is None or not manifest.payload_sha256:
                out["unverified"].append(key)
                continue
            try:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
            except OSError:
                # Deleted between glob and read — nothing left to check.
                continue
            if digest == manifest.payload_sha256:
                out["ok"].append(key)
            else:
                out["corrupt"].append(key)
                if repair:
                    self.quarantine(key)
        return out

    def clear_memory(self) -> None:
        """Drop the in-process tier (disk entries survive)."""
        self._memory.clear()

    # -- manifests and maintenance -------------------------------------------

    def manifest(self, key: str) -> ArtifactManifest | None:
        """The manifest for ``key``, or None if absent/corrupt."""
        try:
            return ArtifactManifest.from_json(self._manifest_path(key).read_text())
        except Exception:
            return None

    def manifest_status(self, key: str) -> str:
        """``"ok"``, ``"missing"``, or ``"corrupt"`` for the manifest file.

        Lets callers (``simprof stats``, ``simprof cache ls``) count a
        half-written manifest separately from an absent one instead of
        crashing on it.
        """
        path = self._manifest_path(key)
        try:
            ArtifactManifest.from_json(path.read_text())
        except FileNotFoundError:
            return "missing"
        except Exception:
            return "corrupt"
        return "ok"

    def entries(self) -> Iterator[ArtifactManifest]:
        """Manifests of all on-disk entries (synthesised if missing)."""
        for path in sorted(self.root.glob("*.pkl")):
            key = path.stem
            manifest = self.manifest(key)
            if manifest is None:
                parts = key.split("-")
                try:
                    stat = path.stat()
                except OSError:
                    # Entry vanished between glob and stat (concurrent
                    # gc): skip it rather than crash the listing.
                    continue
                manifest = ArtifactManifest(
                    key=key,
                    kind=parts[0] if parts else "?",
                    version=parts[1] if len(parts) > 2 else "?",
                    size_bytes=stat.st_size,
                    created=stat.st_mtime,
                )
            yield manifest

    #: Orphaned writer tempfiles younger than this survive ``gc`` — a
    #: live concurrent writer's in-flight file must not be reaped.
    TMP_GRACE_SECONDS = 3600.0

    def gc(
        self,
        *,
        max_age_days: float | None = None,
        kind: str | None = None,
        stale_only: bool = False,
        everything: bool = False,
        dry_run: bool = False,
        tmp_grace_seconds: float | None = None,
    ) -> tuple[int, int]:
        """Delete entries; returns (entries removed, bytes reclaimed).

        ``stale_only`` removes entries from other store versions;
        ``max_age_days`` removes entries older than that; ``everything``
        removes all (optionally filtered by ``kind``).  Orphaned
        ``.*.tmp`` files are only reaped once older than
        ``tmp_grace_seconds`` (default :data:`TMP_GRACE_SECONDS`), so a
        concurrent writer's half-written file is never destroyed.
        """
        now = time.time()
        removed = 0
        reclaimed = 0
        for manifest in list(self.entries()):
            if kind is not None and manifest.kind != kind:
                continue
            dead = everything
            if stale_only and manifest.version != STORE_VERSION:
                dead = True
            if (
                max_age_days is not None
                and manifest.created
                and now - manifest.created > max_age_days * 86400.0
            ):
                dead = True
            if not dead:
                continue
            removed += 1
            reclaimed += manifest.size_bytes or 0
            if not dry_run:
                self.delete(manifest.key)
        # Sweep orphaned temp files from crashed writers — but only
        # past the grace period: a young tempfile may belong to a live
        # writer about to os.replace() it into place.
        if not dry_run:
            grace = (
                self.TMP_GRACE_SECONDS
                if tmp_grace_seconds is None
                else max(0.0, tmp_grace_seconds)
            )
            for tmp in self.root.glob(".*.tmp"):
                with _suppress_oserror():
                    if now - tmp.stat().st_mtime > grace:
                        tmp.unlink()
        return removed, reclaimed


# -- default store registry ---------------------------------------------------

_DEFAULT_STORES: dict[Path, ArtifactStore] = {}


def default_store() -> ArtifactStore:
    """The process-default store for the current ``SIMPROF_CACHE_DIR``.

    One instance (and hence one memory tier and one stats counter) per
    resolved root, so tests that point ``SIMPROF_CACHE_DIR`` at a tmp
    dir are isolated automatically.
    """
    root = os.environ.get("SIMPROF_CACHE_DIR") or str(
        Path.home() / ".cache" / "simprof-repro"
    )
    path = Path(root)
    store = _DEFAULT_STORES.get(path)
    if store is None:
        store = ArtifactStore(path)
        _DEFAULT_STORES[path] = store
    return store


def reset_default_stores() -> None:
    """Forget all default-store instances (used by tests)."""
    _DEFAULT_STORES.clear()
