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

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.runtime import provenance
from repro.runtime.provenance import (
    CANONICAL_STAGES,
    CodeIndex,
    StageGraph,
    execute_payload,
    explain_key,
    fn_ref,
    import_candidates,
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

_REPO = Path(__file__).resolve().parents[2]

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


@stage_fn("report")
def stage_sum_all(inputs, params):
    return sum(sum(ys) for _, ys in sorted(inputs.items()))


def plain_fn(inputs, params):  # not decorated
    return None


def _two_chains() -> StageGraph:
    """``seq:x -> use:x`` for x in a, b, both feeding ``total``.

    Named so that the name-sorted topological order runs both ``seq``
    nodes before either ``use`` node.
    """
    graph = StageGraph("t")
    deps = {}
    for tag, n in (("a", 3), ("b", 4)):
        seq = graph.node(f"seq:{tag}", stage_seq, params={"n": n})
        deps[tag] = graph.node(
            f"use:{tag}", stage_scale, params={"k": 2}, deps={"xs": seq}
        )
    graph.node("total", stage_sum_all, deps=deps)
    return graph


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


class TestPriorIndex:
    """Miss causes come from a per-process index of prior manifests."""

    def test_retune_across_graphs_in_one_process_is_params(self, store):
        runner = ExperimentRunner(store=store)
        # The cold run builds the index before it writes anything, so
        # the causes below depend on its own writes being folded in.
        runner.run_graph(_chain(bias=0))
        causes = {p.name: p.cause for p in runner.plan_graph(_chain(bias=7))}
        assert causes == {"seq": None, "scale": None, "total": "params"}

    @pytest.mark.slow
    def test_retune_after_parallel_run_is_params(self, store):
        runner = ExperimentRunner(store=store, jobs=2)
        runner.run_graph(_two_chains())
        retuned = _two_chains()
        retuned.nodes["use:b"].params["k"] = 5
        causes = {p.name: p.cause for p in runner.plan_graph(retuned)}
        assert causes["use:b"] == "params"
        assert causes["total"] == "upstream"

    def test_removed_prior_is_not_diagnosed_against(self, store):
        runner = ExperimentRunner(store=store)
        runner.run_graph(_chain(bias=0))
        store.gc(everything=True)
        plans = runner.plan_graph(_chain(bias=1))
        assert [p.cause for p in plans] == ["new", "new", "new"]


class TestSerialHandOff:
    """One job: deepest-first, values handed over in memory."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Per executed node: its name and the hand-off table's keys."""
        seen = []
        real = provenance.execute_payload

        def spy(payload):
            node = payload["record"]["node"].partition("/")[2]
            seen.append((node, set(payload.get("values", {}))))
            return real(payload)

        monkeypatch.setattr(provenance, "execute_payload", spy)
        return seen

    def test_chains_run_deepest_first(self, store, calls):
        ExperimentRunner(store=store, jobs=1).run_graph(_two_chains())
        assert [name for name, _ in calls] == [
            "seq:a", "use:a", "seq:b", "use:b", "total",
        ]

    def test_values_released_after_last_consumer(self, store, calls):
        result = ExperimentRunner(store=store, jobs=1).run_graph(_two_chains())
        held = dict(calls)
        # seq:a's only consumer ran before seq:b; use:a waits for total.
        assert result.key("seq:a") not in held["seq:b"]
        assert result.key("use:a") in held["seq:b"]
        assert held["total"] == {result.key("use:a"), result.key("use:b")}
        assert result["total"] == (0 + 2 + 4) + (0 + 2 + 4 + 6)

    def test_inputs_never_reread_from_store(self, store, monkeypatch):
        reads = []
        real_get = ArtifactStore.get

        def counting_get(self, key):
            reads.append(key)
            return real_get(self, key)

        monkeypatch.setattr(ArtifactStore, "get", counting_get)
        result = ExperimentRunner(store=store, jobs=1).run_graph(_two_chains())
        stage_reads = [k for k in reads if k.startswith("stage-")]
        assert stage_reads == []
        # Every value is still stored, manifest and digest included.
        for plan in result.plans:
            assert store.manifest(plan.key).payload_sha256

    def test_runner_store_keeps_no_trace_in_memory(self, store):
        result = ExperimentRunner(store=store, jobs=1).run_graph(_two_chains())
        traces = [p.key for p in result.plans if p.node.stage == "trace-gen"]
        assert traces and not any(key in store._memory for key in traces)

    def test_stored_input_loaded_once_for_all_consumers(self, store, calls):
        runner = ExperimentRunner(store=store, jobs=1)
        first = runner.run_graph(_chain(k=3))
        graph = _chain(k=3)
        # A second consumer of the cached "seq", beside a re-run "scale".
        graph.nodes["scale"].params["k"] = 4
        graph.node("again", stage_scale, params={"k": 5}, deps={"xs": "seq"})
        calls.clear()
        runner.run_graph(graph)
        assert [name for name, _ in calls] == ["again", "scale", "total"]
        assert first.key("seq") in calls[1][1]


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

    def test_deferred_imports_stay_in_closures(self):
        """Imports under ``if TYPE_CHECKING:``, in function bodies or in
        a lazy package init still put their modules in the closure."""
        idx = CodeIndex(src_root=_REPO / "src")
        workload = set(idx.closure(["repro.workloads.wordcount"]))
        assert {
            "repro.spark.context",
            "repro.spark.executor",
            "repro.hadoop.runtime",
        } <= workload
        core = set(idx.closure(["repro.core"]))
        assert {"repro.core.baselines", "repro.core.pipeline", "repro.core.sampling"} <= core

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


    def test_edit_seen_with_process_memo_warm(
        self, store, tmp_path, monkeypatch
    ):
        from repro.runtime import provenance as provenance_mod

        tree = _fake_tree(tmp_path)
        graph = StageGraph("t")
        graph.node("seq", stage_seq, params={"n": 2}, code=("repro.mid",))
        runner = ExperimentRunner(store=store)
        runner.run_graph(graph, code=CodeIndex(src_root=tree))

        parsed = []
        real = provenance_mod.scan_imports

        def counting(source, module):
            parsed.append(module)
            return real(source, module)

        monkeypatch.setattr(provenance_mod, "scan_imports", counting)
        # A new index in the same process parses nothing ...
        assert runner.run_graph(graph, code=CodeIndex(src_root=tree)).hits == 1
        assert parsed == []
        # ... yet an on-disk edit is seen: one re-parse, a code miss.
        _fake_tree(tmp_path, leaf_body="X = 2\n")
        plans = runner.plan_graph(graph, code=CodeIndex(src_root=tree))
        assert plans[0].cause == "code"
        assert parsed == ["repro.leaf"]


def _reference_candidates(tree: ast.Module) -> tuple[str, ...]:
    """The import candidates of a full :func:`ast.walk` (the old scan)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            out.add(node.module)
            for alias in node.names:
                if alias.name != "*":
                    out.add(f"{node.module}.{alias.name}")
    return tuple(sorted(out))


class TestImportScan:
    def test_statement_walk_matches_full_walk_on_the_repo(self):
        paths = sorted(
            path
            for top in ("src", "tests", "benchmarks")
            for path in (_REPO / top).rglob("*.py")
        )
        assert len(paths) > 100
        for path in paths:
            tree = ast.parse(path.read_bytes(), filename=str(path))
            assert import_candidates(tree) == _reference_candidates(tree), path

    def test_nested_statement_lists(self):
        source = textwrap.dedent(
            """
            import a
            from . import rel
            from b import *
            def f():
                class C:
                    import c.d
                try:
                    from e import g
                except ImportError:
                    import h
                else:
                    import i
                finally:
                    import j
                match x:
                    case 1:
                        import k
                while x:
                    pass
                else:
                    with y:
                        import l
            lambda: __import__("not_a_statement")
            """
        )
        tree = ast.parse(source)
        assert import_candidates(tree) == (
            "a", "b", "c.d", "e", "e.g", "h", "i", "j", "k", "l",
        )
        assert import_candidates(tree) == _reference_candidates(tree)

    def test_fingerprinting_leaves_the_analysis_engine_unloaded(self):
        code = (
            "import sys\n"
            "from repro.runtime.provenance import CodeIndex\n"
            "CodeIndex().fingerprint(['repro.experiments.fig07_errors'])\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.analysis'))\n"
            "assert not loaded, loaded\n"
        )
        env = {**os.environ, "PYTHONPATH": str(_REPO / "src")}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


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
