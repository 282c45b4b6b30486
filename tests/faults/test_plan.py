"""FaultPlan validation, serialisation, and the per-site RNG contract."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, FaultReport, site_rng


class TestValidation:
    def test_defaults_are_null(self):
        plan = FaultPlan()
        assert plan.is_null
        assert not plan.cluster_active
        assert not plan.perf_active

    @pytest.mark.parametrize("field", [
        "task_failure_rate", "straggler_rate", "gc_pause_rate",
        "counter_glitch_rate",
    ])
    def test_rates_bounded(self, field):
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError, match="must be in"):
            FaultPlan(**{field: -0.1})

    def test_slowdown_floor(self):
        with pytest.raises(ValueError, match="straggler_slowdown"):
            FaultPlan(straggler_slowdown=0.5)

    def test_activity_predicates(self):
        assert FaultPlan(task_failure_rate=0.1).cluster_active
        assert FaultPlan(counter_glitch_rate=0.1).perf_active
        assert not FaultPlan(task_failure_rate=0.1).perf_active
        assert not FaultPlan(counter_glitch_rate=0.1).cluster_active

    def test_uniform_sets_every_injection_rate(self):
        plan = FaultPlan.uniform(0.07, seed=9)
        assert plan.seed == 9
        assert plan.cluster_active and not plan.perf_active
        for name in ("task_failure_rate", "straggler_rate", "gc_pause_rate"):
            assert getattr(plan, name) == 0.07


class TestSerialisation:
    def test_json_roundtrip(self):
        plan = FaultPlan.uniform(0.05, seed=3)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_load(self, tmp_path):
        plan = FaultPlan(seed=2, straggler_rate=0.2, straggler_slowdown=2.0)
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_dict({"seed": 1, "typo_rate": 0.5})


class TestSiteRng:
    def test_same_site_replays(self):
        a = site_rng(7, "stream", 3, 11).random(4)
        b = site_rng(7, "stream", 3, 11).random(4)
        assert (a == b).all()

    def test_sites_independent(self):
        a = site_rng(7, "stream", 3, 11).random(4)
        b = site_rng(7, "spark.task", 3, 11).random(4)
        c = site_rng(7, "stream", 3, 12).random(4)
        d = site_rng(8, "stream", 3, 11).random(4)
        assert not (a == b).all()
        assert not (a == c).all()
        assert not (a == d).all()

    def test_negative_coords_fold(self):
        # Thread/stage ids of -1 must not crash SeedSequence.
        assert site_rng(0, "perf.glitch", -1).random() >= 0.0


class TestFaultReport:
    def test_counts_sorted_histogram(self):
        report = FaultReport()
        report.record("stream", "drop", "injected")
        report.record("stream", "drop", "injected")
        report.record("spark.task", "straggler", "absorbed")
        assert report.counts() == {
            "drop/injected": 2, "straggler/absorbed": 1,
        }
        assert "2" in report.summary() or "3 faults" in report.summary()

    def test_roundtrip_and_merge(self):
        a = FaultReport()
        a.record("stream", "gap", "replayed", thread_id=1, index=4)
        b = FaultReport.from_dict(a.to_dict())
        assert b.events == a.events
        a.merge(b)
        assert len(a) == 2

    def test_merged_meta_noop_when_empty(self):
        meta = {"k": 1}
        FaultReport.merged_meta(meta, FaultReport())
        assert meta == {"k": 1}

    def test_merged_meta_accumulates(self):
        meta: dict = {}
        r = FaultReport()
        r.record("stream", "drop", "injected")
        FaultReport.merged_meta(meta, r)
        FaultReport.merged_meta(meta, r)
        assert meta["fault_report"]["n_events"] == 2
