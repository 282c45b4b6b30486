"""Tests for the stage-level provenance plane.

Graph mechanics (planning, miss causes, incremental reuse, lineage,
introspection) run against tiny synthetic stage functions defined in
this module — no workload simulation involved — plus a fake ``repro``
source tree under ``tmp_path`` for code-fingerprint tests.  One
integration test exercises the real trace-gen→profile chain through
``ExperimentRunner.run_graph`` and its sharing with the per-spec
``get_profile``/``get_model`` helpers.
"""

from __future__ import annotations

import pytest

from repro.runtime.provenance import (
    CANONICAL_STAGES,
    CodeIndex,
    StageGraph,
    execute_payload,
    explain_key,
    fn_ref,
    invalidated_entries,
    lineage,
    plan_graph,
    provenance_stats,
    record_graph_run,
    resolve_stage_fn,
    stage_fn,
    stage_spec,
    worker_payload,
)
from repro.runtime.runner import ExperimentRunner
from repro.runtime.store import ArtifactStore

# -- synthetic stage functions (module-level: workers re-resolve them) --------


@stage_fn("trace-gen")
def stage_seq(inputs, params):
    return list(range(params["n"]))


@stage_fn("profile")
def stage_scale(inputs, params):
    return [x * params["k"] for x in inputs["xs"]]


@stage_fn("report")
def stage_total(inputs, params):
    return sum(inputs["ys"]) + params.get("bias", 0)


def plain_fn(inputs, params):  # not decorated
    return None


def _chain(n: int = 4, k: int = 3, bias: int = 0) -> StageGraph:
    graph = StageGraph("t")
    a = graph.node("seq", stage_seq, params={"n": n})
    b = graph.node("scale", stage_scale, params={"k": k}, deps={"xs": a})
    graph.node("total", stage_total, params={"bias": bias}, deps={"ys": b})
    return graph


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


# -- declarations -------------------------------------------------------------


class TestStageDecl:
    def test_stage_spec_round_trip(self):
        spec = stage_spec(stage_seq)
        assert spec["stage"] == "trace-gen"
        assert spec["reads"] == ()
        assert spec["stage"] in CANONICAL_STAGES

    def test_undecorated_fn_rejected(self):
        with pytest.raises(TypeError, match="not a stage function"):
            stage_spec(plain_fn)

    def test_fn_ref_resolves_back(self):
        ref = fn_ref(stage_scale)
        assert ref.endswith(":stage_scale")
        assert resolve_stage_fn(ref) is stage_scale


# -- graph construction -------------------------------------------------------


class TestStageGraph:
    def test_duplicate_node_rejected(self):
        graph = StageGraph()
        graph.node("a", stage_seq, params={"n": 1})
        with pytest.raises(ValueError, match="duplicate stage node"):
            graph.node("a", stage_seq, params={"n": 2})

    def test_unknown_dep_rejected(self):
        graph = StageGraph()
        with pytest.raises(ValueError, match="unknown node"):
            graph.node("b", stage_scale, deps={"xs": "missing"})

    def test_undecorated_fn_rejected_at_add(self):
        graph = StageGraph()
        with pytest.raises(TypeError, match="not a stage function"):
            graph.node("a", plain_fn)

    def test_topo_orders_deps_first(self):
        graph = _chain()
        order = [n.name for n in graph.topo()]
        assert order.index("seq") < order.index("scale") < order.index(
            "total"
        )

    def test_topo_cycle_detected(self):
        graph = _chain()
        # The builder API cannot express a cycle (deps must pre-exist),
        # so corrupt the structure directly, as a bad deserialise would.
        graph.nodes["seq"].deps["xs"] = "total"
        with pytest.raises(ValueError, match="cycle"):
            graph.topo()


# -- planning and incremental execution ---------------------------------------


class TestPlanGraph:
    def test_cold_plan_is_all_new(self, store):
        plans = plan_graph(_chain(), store)
        assert [p.name for p in plans] == ["seq", "scale", "total"]
        assert all(not p.cached for p in plans)
        assert [p.cause for p in plans] == ["new", "new", "new"]
        assert [p.depth for p in plans] == [0, 1, 2]

    def test_keys_differ_by_params(self, store):
        cold = {p.name: p.key for p in plan_graph(_chain(k=3), store)}
        warm = {p.name: p.key for p in plan_graph(_chain(k=4), store)}
        assert cold["seq"] == warm["seq"]
        assert cold["scale"] != warm["scale"]
        assert cold["total"] != warm["total"]  # upstream key changed

    def test_run_then_replan_is_all_cached(self, store):
        runner = ExperimentRunner(store=store)
        result = runner.run_graph(_chain())
        assert result.executed == ["seq", "scale", "total"]
        assert result["total"] == (0 + 3 + 6 + 9)
        again = runner.run_graph(_chain())
        assert again.executed == []
        assert again.hits == 3 and again.misses == 0
        assert again.key("total") == result.key("total")

    def test_param_edit_recomputes_only_downstream(self, store):
        runner = ExperimentRunner(store=store)
        runner.run_graph(_chain(bias=0))
        result = runner.run_graph(_chain(bias=10))
        assert result.executed == ["total"]
        assert result.cached("seq") and result.cached("scale")
        assert result["total"] == 18 + 10
        assert result.plan("total").cause == "params"

    def test_upstream_edit_cascades_with_cause(self, store):
        runner = ExperimentRunner(store=store)
        runner.run_graph(_chain(k=3))
        plans = {p.name: p for p in runner.plan_graph(_chain(k=5))}
        assert plans["seq"].cached
        assert plans["scale"].cause == "params"
        assert plans["total"].cause == "upstream"

    def test_manifest_carries_record(self, store):
        result = ExperimentRunner(store=store).run_graph(_chain())
        manifest = store.manifest(result.key("scale"))
        record = manifest.provenance
        assert record["node"] == "t/scale"
        assert record["stage"] == "profile"
        assert record["depth"] == 1
        assert record["upstream"]["xs"]["node"] == "seq"
        assert record["upstream"]["xs"]["key"] == result.key("seq")

    def test_graph_result_unknown_node(self, store):
        result = ExperimentRunner(store=store).run_graph(_chain())
        with pytest.raises(KeyError, match="no stage node"):
            result.key("nope")


class TestExecutePayload:
    def test_payload_round_trip(self, store):
        plans = plan_graph(_chain(), store)
        for plan in plans:
            payload = worker_payload(plan, store)
            assert payload["store_root"] == str(store.root)
            assert execute_payload(payload) == plan.key
        assert store.get(plans[-1].key) == 18

    def test_execute_is_idempotent(self, store):
        plans = plan_graph(_chain(), store)
        for plan in plans:
            execute_payload(worker_payload(plan, store))
        before = store.manifest(plans[0].key).created
        execute_payload(worker_payload(plans[0], store))
        assert store.manifest(plans[0].key).created == before

    def test_unreadable_input_computes_nothing(self, store):
        plans = plan_graph(_chain(), store)
        execute_payload(worker_payload(plans[0], store))
        _corrupt(store, plans[0].key)
        assert execute_payload(worker_payload(plans[1], store)) is None
        assert not store.contains(plans[1].key)


def _corrupt(store, key: str) -> None:
    (store.root / f"{key}.pkl").write_bytes(b"not a pickle")
    store.clear_memory()


class TestCorruptEntryHealing:
    """A planned-cached entry that fails to load is recomputed once."""

    def test_corrupt_result_entry_recomputed(self, store):
        runner = ExperimentRunner(store=store)
        first = runner.run_graph(_chain())
        _corrupt(store, first.key("scale"))
        again = runner.run_graph(_chain())
        assert again.cached("scale")  # contains() does not hash
        assert again["scale"] == [0, 3, 6, 9]
        assert store.manifest(first.key("scale")) is not None

    def test_corrupt_cached_input_recomputed(self, store):
        runner = ExperimentRunner(store=store)
        first = runner.run_graph(_chain())
        _corrupt(store, first.key("seq"))
        # A downstream param edit: "scale" must read the corrupt "seq".
        result = runner.run_graph(_chain(k=2))
        assert result.executed == ["seq", "scale", "total"]
        assert result["total"] == 12
        assert result["seq"] == [0, 1, 2, 3]


# -- code fingerprints --------------------------------------------------------


def _fake_tree(root, leaf_body="X = 1\n"):
    pkg = root / "repro"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mid.py").write_text("from repro import leaf\n")
    (pkg / "leaf.py").write_text(leaf_body)
    runtime = pkg / "runtime"
    runtime.mkdir(exist_ok=True)
    (runtime / "__init__.py").write_text("")
    (runtime / "orch.py").write_text("from repro import mid\n")
    return root


class TestCodeIndex:
    def test_closure_follows_imports(self, tmp_path):
        idx = CodeIndex(src_root=_fake_tree(tmp_path))
        modules = idx.closure(["repro.mid"])
        # "repro" rides along: `from repro import leaf` names the package.
        assert set(modules) == {"repro", "repro.mid", "repro.leaf"}

    def test_orchestration_prefixes_excluded(self, tmp_path):
        idx = CodeIndex(src_root=_fake_tree(tmp_path))
        assert not CodeIndex.included("repro.runtime.orch")
        assert not CodeIndex.included("numpy")
        assert CodeIndex.included("repro.core.phases")
        assert idx.closure(["repro.runtime.orch"]) == {}

    def test_fingerprint_tracks_leaf_edit(self, tmp_path):
        before, mods = CodeIndex(src_root=_fake_tree(tmp_path)).fingerprint(
            ["repro.mid"]
        )
        _fake_tree(tmp_path, leaf_body="X = 2\n")
        after, mods2 = CodeIndex(src_root=tmp_path).fingerprint(["repro.mid"])
        assert before != after
        assert mods["repro.mid"] == mods2["repro.mid"]
        assert mods["repro.leaf"] != mods2["repro.leaf"]

    def test_code_edit_plans_as_code_miss(self, store, tmp_path):
        graph = StageGraph("t")
        graph.node("seq", stage_seq, params={"n": 2}, code=("repro.leaf",))
        runner = ExperimentRunner(store=store)
        runner.run_graph(
            graph, code=CodeIndex(store, src_root=_fake_tree(tmp_path))
        )
        _fake_tree(tmp_path, leaf_body="X = 2\n")
        edited = CodeIndex(store, src_root=tmp_path)
        plans = runner.plan_graph(graph, code=edited)
        assert plans[0].cause == "code"
        stale = invalidated_entries(store, code=edited)
        assert [e["modules"] for e in stale] == [["repro.leaf"]]
        assert runner.run_graph(graph, code=edited).executed == ["seq"]


# -- introspection ------------------------------------------------------------


class TestIntrospection:
    def test_lineage_walks_ancestry(self, store):
        result = ExperimentRunner(store=store).run_graph(_chain())
        walk = [
            (dist, m.provenance["node"])
            for dist, m in lineage(store, result.key("total"))
        ]
        assert walk == [(0, "t/total"), (1, "t/scale"), (2, "t/seq")]

    def test_explain_key_first_run(self, store):
        result = ExperimentRunner(store=store).run_graph(_chain())
        why = explain_key(store, result.key("total"))
        assert why["predecessor"] is None
        assert why["changed"] == []
        assert why["record"]["node"] == "t/total"

    def test_explain_key_diffs_predecessor(self, store):
        runner = ExperimentRunner(store=store)
        runner.run_graph(_chain(bias=0))
        result = runner.run_graph(_chain(bias=1))
        why = explain_key(store, result.key("total"))
        assert why["predecessor"] is not None
        assert {c["what"] for c in why["changed"]} == {"params"}

    def test_explain_key_missing_provenance(self, store):
        store.put("adhoc", 1, kind="misc", params={})
        with pytest.raises(KeyError, match="no provenance"):
            explain_key(store, "adhoc")

    def test_stats_fold_runs_and_causes(self, store):
        runner = ExperimentRunner(store=store)
        runner.run_graph(_chain(bias=0))
        runner.run_graph(_chain(bias=2))
        stats = provenance_stats(store)
        assert stats["entries"] == 4  # 3 cold + 1 re-biased report
        assert stats["per_stage"] == {
            "profile": 1,
            "report": 2,
            "trace-gen": 1,
        }
        assert stats["max_depth"] == 2
        assert stats["runs"] == 2
        assert stats["hits"] == 2 and stats["misses"] == 4
        assert stats["causes"] == {"new": 3, "params": 1}

    def test_record_graph_run_survives_bad_sidecar(self, store):
        (store.root / "provenance_stats.json").write_text("not json")
        record_graph_run(store, plan_graph(_chain(), store))
        assert provenance_stats(store)["runs"] == 1


# -- integration with the real pipeline ---------------------------------------


@pytest.mark.slow
class TestRealPipeline:
    def test_spec_graph_shared_with_get_model(self, tmp_path, monkeypatch):
        from repro.core.pipeline import SimProfConfig
        from repro.experiments.common import ExperimentConfig, get_model
        from repro.runtime.runner import RunSpec
        from repro.runtime.stages import spec_nodes
        from repro.runtime.store import reset_default_stores

        spec = RunSpec(
            workload="grep",
            framework="spark",
            scale=0.05,
            simprof=SimProfConfig(
                unit_size=10_000_000, snapshot_period=500_000
            ),
        )
        store = ArtifactStore(tmp_path / "store")
        runner = ExperimentRunner(store=store)
        graph = StageGraph("itest")
        nodes = spec_nodes(graph, spec)
        result = runner.run_graph(graph)
        assert result.misses == len(graph.nodes)

        # The per-spec helper finds both artifacts already materialised.
        monkeypatch.setenv("SIMPROF_CACHE_DIR", str(store.root))
        reset_default_stores()
        cfg = ExperimentConfig(scale=0.05, simprof=spec.simprof)
        job, model = get_model("grep", "spark", cfg)
        reset_default_stores()
        assert provenance_stats(store)["misses"] == len(graph.nodes)
        assert (
            job.content_digest()
            == result[nodes["profile"]].content_digest()
        )
        assert model.k == result[nodes["model"]].k

        # A second graph run over the same spec is a full cache hit.
        graph2 = StageGraph("itest")
        spec_nodes(graph2, spec)
        assert runner.run_graph(graph2).executed == []
