"""Versioned, byte-stable snapshot codec for suspendable pipelines.

Every stateful component of the streaming pipeline implements the
:class:`Snapshotable` protocol: ``snapshot()`` captures the complete
mutable state as a plain dict, and ``restore(state)`` on a
freshly-constructed instance of the same configuration rebuilds it so
that subsequent behaviour is bit-identical — same units, same phases,
same RNG draws.

The codec here turns those dicts into canonical bytes:

* dict keys are sorted, separators are fixed, output is ASCII — the
  same logical state always encodes to the same byte string, so
  checkpoints are content-addressable and ``state_digest`` is a
  meaningful identity;
* ``numpy`` arrays are tagged base64 payloads carrying dtype and shape
  (bit-exact round-trip, including structured dtypes such as
  ``SEGMENT_DTYPE``);
* ``bytes`` values are tagged base64;
* PCG64 bit-generator state rides as plain JSON integers — Python ints
  are arbitrary precision, so the 128-bit ``state``/``inc`` words
  round-trip exactly.

``SNAPSHOT_VERSION`` stamps every checkpoint manifest; decoding a
payload whose embedded version differs is refused rather than
misinterpreted.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshotable",
    "SnapshotError",
    "decode_state",
    "encode_state",
    "restore_rng",
    "rng_state",
    "state_digest",
]

SNAPSHOT_VERSION = "v2"

_NDARRAY_TAG = "__ndarray__"
_BYTES_TAG = "__bytes__"
_VERSION_KEY = "__snapshot_version__"


class SnapshotError(ValueError):
    """A snapshot payload could not be encoded or decoded."""


@runtime_checkable
class Snapshotable(Protocol):
    """Common protocol for suspendable pipeline components.

    ``snapshot()`` must capture *all* mutable state; ``restore(state)``
    must accept the exact dict a prior ``snapshot()`` returned (or its
    ``encode_state``/``decode_state`` round-trip) and leave the
    instance behaviourally bit-identical to the one snapshotted.
    ``restore(snapshot())`` is a fixed point: snapshotting again
    yields an equal state dict.
    """

    def snapshot(self) -> dict: ...

    def restore(self, state: dict) -> None: ...


def _to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into canonical-JSON-safe values."""
    if isinstance(obj, np.ndarray):
        if not obj.flags.c_contiguous:
            obj = np.ascontiguousarray(obj)
        return {
            _NDARRAY_TAG: obj.dtype.str
            if obj.dtype.names is None
            else json.loads(json.dumps(obj.dtype.descr)),
            "shape": list(obj.shape),
            "data": base64.b64encode(obj.tobytes()).decode("ascii"),
        }
    if isinstance(obj, (bytes, bytearray)):
        return {_BYTES_TAG: base64.b64encode(bytes(obj)).decode("ascii")}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        out = {}
        for key in obj:
            if not isinstance(key, str):
                raise SnapshotError(
                    f"snapshot dict keys must be str, got {type(key).__name__}"
                )
            out[key] = _to_jsonable(obj[key])
        return out
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise SnapshotError(f"cannot snapshot value of type {type(obj).__name__}")


def _from_jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        if _NDARRAY_TAG in obj:
            descr = obj[_NDARRAY_TAG]
            dtype = np.dtype(
                [tuple(fld) for fld in descr] if isinstance(descr, list) else descr
            )
            raw = base64.b64decode(obj["data"])
            return np.frombuffer(raw, dtype=dtype).reshape(obj["shape"]).copy()
        if _BYTES_TAG in obj:
            return base64.b64decode(obj[_BYTES_TAG])
        return {key: _from_jsonable(value) for key, value in sorted(obj.items())}
    if isinstance(obj, list):
        return [_from_jsonable(item) for item in obj]
    return obj


def encode_state(state: dict) -> bytes:
    """Serialize a snapshot dict to canonical, byte-stable JSON bytes."""
    if not isinstance(state, dict):
        raise SnapshotError("snapshot state must be a dict")
    payload = _to_jsonable(state)
    payload[_VERSION_KEY] = SNAPSHOT_VERSION
    try:
        text = json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    except ValueError as exc:  # non-finite float slipped through
        raise SnapshotError(f"snapshot state is not JSON-encodable: {exc}") from exc
    return text.encode("ascii")


def decode_state(data: bytes) -> dict:
    """Inverse of :func:`encode_state`; refuses version mismatches."""
    try:
        payload = json.loads(data.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"snapshot payload is corrupt: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload is not a dict")
    version = payload.pop(_VERSION_KEY, None)
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version mismatch: payload {version!r}, "
            f"expected {SNAPSHOT_VERSION!r}"
        )
    return _from_jsonable(payload)


def state_digest(state: dict | bytes) -> str:
    """SHA-256 hex digest of the canonical encoding of ``state``."""
    data = state if isinstance(state, bytes) else encode_state(state)
    return hashlib.sha256(data).hexdigest()


def rng_state(gen: np.random.Generator) -> dict:
    """JSON-safe capture of a Generator's bit-generator state.

    PCG64's 128-bit ``state``/``inc`` words are Python ints and encode
    exactly through JSON (arbitrary-precision), so restoring leaves the
    draw stream at the identical position.
    """
    return json.loads(json.dumps(gen.bit_generator.state))


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a Generator positioned exactly at ``state``."""
    name = state.get("bit_generator", "PCG64")
    bit_generator = getattr(np.random, name)()
    bit_generator.state = state
    return np.random.Generator(bit_generator)
