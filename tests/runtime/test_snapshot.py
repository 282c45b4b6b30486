"""The snapshot codec and the ``restore(snapshot())`` fixed point.

Two properties carry the whole checkpoint design:

* the codec round-trips every state byte-stably (canonical JSON with
  tagged ndarrays/bytes, versioned, digest-stable);
* for every stateful pipeline component, ``restore(snapshot())`` is a
  fixed point — snapshotting again yields identical bytes, and a
  restored component continues bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import OnlineKMeans
from repro.core.features import FeatureSpace, UnitFeaturizer
from repro.core.phases import PhaseModel
from repro.core.profiler import ProfilerSession
from repro.runtime.instrument import ThroughputMeter
from repro.runtime.snapshot import (
    SNAPSHOT_VERSION,
    Snapshotable,
    SnapshotError,
    decode_state,
    encode_state,
    restore_rng,
    rng_state,
    state_digest,
)
from tests.conftest import TEST_SIMPROF_CONFIG
from tests.helpers import PhaseSpec, make_synthetic_profile


class TestCodec:
    def test_round_trip_scalars_and_arrays(self):
        state = {
            "kind": "x",
            "n": 3,
            "f": 0.25,
            "s": "name",
            "none": None,
            "flag": True,
            "vec": np.arange(5, dtype=np.float64),
            "ints": np.array([1, 2], dtype=np.int64),
            "raw": b"\x00\x01\xff",
            "nested": {"inner": [1, 2.5, "x", None]},
        }
        out = decode_state(encode_state(state))
        assert out["n"] == 3 and out["f"] == 0.25 and out["s"] == "name"
        assert out["none"] is None and out["flag"] is True
        assert out["raw"] == b"\x00\x01\xff"
        np.testing.assert_array_equal(out["vec"], state["vec"])
        assert out["vec"].dtype == np.float64
        assert out["ints"].dtype == np.int64
        assert out["nested"] == {"inner": [1, 2.5, "x", None]}

    def test_structured_dtype_round_trips(self):
        from repro.jvm.segments import SEGMENT_DTYPE

        arr = np.zeros(3, dtype=SEGMENT_DTYPE)
        arr["instructions"] = [10, 20, 30]
        out = decode_state(encode_state({"seg": arr}))["seg"]
        assert out.dtype == SEGMENT_DTYPE
        np.testing.assert_array_equal(out, arr)

    def test_encoding_is_byte_stable(self):
        state = {"b": np.arange(4), "a": 1, "c": {"y": 2, "x": 1}}
        assert encode_state(state) == encode_state(
            {"c": {"x": 1, "y": 2}, "a": 1, "b": np.arange(4)}
        )
        assert state_digest(state) == state_digest(encode_state(state))

    def test_version_embedded_and_enforced(self):
        payload = encode_state({"a": 1})
        assert SNAPSHOT_VERSION.encode() in payload
        tampered = payload.replace(
            SNAPSHOT_VERSION.encode(), b"v0-bogus"
        )
        with pytest.raises(SnapshotError):
            decode_state(tampered)

    def test_nan_rejected(self):
        with pytest.raises((SnapshotError, ValueError)):
            encode_state({"x": float("nan")})

    def test_rng_state_round_trip_continues_identically(self):
        gen = np.random.default_rng(99)
        gen.random(7)
        clone = restore_rng(rng_state(gen))
        np.testing.assert_array_equal(gen.random(16), clone.random(16))
        np.testing.assert_array_equal(
            gen.integers(0, 1 << 62, 8), clone.integers(0, 1 << 62, 8)
        )


def _synthetic_job(seed=0):
    return make_synthetic_profile(
        [
            PhaseSpec(n_units=14, cpi_mean=1.0, cpi_std=0.05, stack_index=0),
            PhaseSpec(n_units=11, cpi_mean=2.2, cpi_std=0.10, stack_index=1),
        ],
        seed=seed,
    )


def _roundtrip(component):
    """restore(snapshot()) then assert the re-snapshot is byte-equal."""
    before = component.snapshot()
    payload = encode_state(before)
    component.restore(decode_state(payload))
    after = component.snapshot()
    assert encode_state(after) == payload
    return component


class TestFixedPoints:
    def test_protocol_runtime_checkable(self):
        meter = ThroughputMeter(None)
        assert isinstance(meter, Snapshotable)
        assert isinstance(OnlineKMeans(k=2), Snapshotable)

    @given(ticks=st.lists(st.integers(1, 50), max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_meter_fixed_point(self, ticks):
        meter = ThroughputMeter(None)
        for n in ticks:
            meter.tick(n)
        items = meter.items
        _roundtrip(meter)
        assert meter.items == items

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_feed=st.integers(0, 40),
    )
    @settings(max_examples=15, deadline=None)
    def test_online_kmeans_fixed_point_and_continuation(self, seed, n_feed):
        rng = np.random.default_rng(seed)
        X = rng.random((60, 4))
        a = OnlineKMeans(k=3, init_size=16, seed=seed)
        b = OnlineKMeans(k=3, init_size=16, seed=seed)
        for row in X[:n_feed]:
            a.partial_fit(row[None, :])
            b.partial_fit(row[None, :])
        b.restore(decode_state(encode_state(a.snapshot())))
        assert encode_state(b.snapshot()) == encode_state(a.snapshot())
        for row in X[n_feed:]:
            a.partial_fit(row[None, :])
            b.partial_fit(row[None, :])
        assert encode_state(a.snapshot()) == encode_state(b.snapshot())

    def test_featurizer_fixed_point(self):
        job = _synthetic_job()
        space, _ = FeatureSpace.fit(job, top_k=20)
        feat = UnitFeaturizer(space, job.registry, job.stack_table)
        feat.row(job.profile.units[0])
        _roundtrip(feat)
        row_before = feat.row(job.profile.units[1]).copy()
        feat.restore(decode_state(encode_state(feat.snapshot())))
        np.testing.assert_array_equal(
            feat.row(job.profile.units[1]), row_before
        )

    def test_feature_space_round_trip(self):
        job = _synthetic_job()
        space, _ = FeatureSpace.fit(job, top_k=20)
        clone = FeatureSpace.from_snapshot(
            decode_state(encode_state(space.snapshot()))
        )
        assert clone.method_fqns == space.method_fqns
        np.testing.assert_array_equal(clone.method_ids, space.method_ids)

    def test_phase_model_fixed_point(self):
        job = _synthetic_job()
        model = PhaseModel.fit(job, seed=0, max_phases=6)
        state = model.snapshot()
        clone = PhaseModel.from_snapshot(decode_state(encode_state(state)))
        assert encode_state(clone.snapshot()) == encode_state(state)
        np.testing.assert_array_equal(clone.assignments, model.assignments)
        np.testing.assert_array_equal(clone.centers, model.centers)

    @given(cut_at=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_profiler_session_fixed_point_mid_stream(self, cut_at):
        from repro.workloads import run_workload_stream
        from tests.conftest import TEST_SCALE

        stream = run_workload_stream(
            "wc", "spark", scale=TEST_SCALE, seed=0
        )
        session = ProfilerSession(
            TEST_SIMPROF_CONFIG.profiler_config(), stream, collect=True
        )
        for i, event in enumerate(stream):
            if i >= cut_at:
                break
            session.feed(event)
        state = session.snapshot()
        payload = encode_state(state)
        session.restore(decode_state(payload))
        assert encode_state(session.snapshot()) == payload
