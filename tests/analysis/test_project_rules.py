"""Positive/negative fixtures for the cross-module rules (SPA009-012)."""

import textwrap

from repro.analysis import check_project, get_project_rule


def check(rule_id, **sources):
    """Run one project rule over dedented in-memory modules.

    Module names use ``__`` for dots: ``repro__core__x`` is
    ``repro.core.x``.
    """
    return check_project(
        {
            name.replace("__", "."): textwrap.dedent(source)
            for name, source in sources.items()
        },
        get_project_rule(rule_id),
    )


class TestSPA009SnapshotDrift:
    def test_seeded_drift_a_round_trip_test_would_miss(self):
        # record() grows _events; snapshot() serializes it, restore()
        # forgets it.  A fresh-instance round-trip
        # (restore(snapshot()) right after construction) compares two
        # empty lists and passes — only a *seeded* instance drifts.
        findings = check(
            "SPA009",
            repro__core__tracker="""
            class Tracker:
                def __init__(self):
                    self._events = []
                    self._cursor = 0

                def record(self, event):
                    self._events.append(event)
                    self._cursor += 1

                def snapshot(self):
                    return {"events": list(self._events),
                            "cursor": self._cursor}

                def restore(self, payload):
                    self._cursor = payload["cursor"]
            """,
        )
        assert [f.rule for f in findings] == ["SPA009"]
        assert "'self._events'" in findings[0].message
        assert "restore() never assigns it back" in findings[0].message
        # Anchored where the mutable container is first established.
        assert findings[0].qualname == "Tracker.__init__"

    def test_state_invisible_to_both_methods(self):
        findings = check(
            "SPA009",
            repro__core__meter="""
            class Meter:
                def __init__(self):
                    self._laps = []
                    self._total = 0

                def lap(self, t):
                    self._laps.append(t)

                def snapshot(self):
                    return {"total": self._total}

                def restore(self, payload):
                    self._total = payload["total"]
            """,
        )
        assert len(findings) == 1
        assert "neither snapshot() nor restore() touches it" in findings[0].message

    def test_complete_round_trip_is_clean(self):
        findings = check(
            "SPA009",
            repro__core__meter="""
            class Meter:
                def __init__(self):
                    self._laps = []

                def lap(self, t):
                    self._laps.append(t)

                def snapshot(self):
                    return {"laps": list(self._laps)}

                def restore(self, payload):
                    self._laps = list(payload["laps"])
            """,
        )
        assert findings == []

    def test_derived_state_rebuilt_in_restore_is_exempt(self):
        # restore() never reads the payload for _cache but *rebuilds*
        # it; that is a legitimate skip, not drift.
        findings = check(
            "SPA009",
            repro__core__cache="""
            class Memo:
                def __init__(self):
                    self._cache = {}
                    self._n = 0

                def put(self, k, v):
                    self._cache[k] = v
                    self._n += 1

                def snapshot(self):
                    return {"n": self._n}

                def restore(self, payload):
                    self._n = payload["n"]
                    self._cache = {}
            """,
        )
        assert findings == []

    def test_injected_collaborator_is_exempt(self):
        # _sink is bound straight from a constructor parameter and only
        # ever mutated through method calls: the caller owns it, the
        # snapshot payload does not.
        findings = check(
            "SPA009",
            repro__core__sink="""
            class Meter:
                def __init__(self, sink):
                    self._sink = sink
                    self._n = 0

                def tick(self):
                    self._sink.add(1)

                def snapshot(self):
                    return {"n": self._n}

                def restore(self, payload):
                    self._n = payload["n"]
            """,
        )
        assert findings == []

    def test_protocol_resolved_through_cross_module_base(self):
        findings = check(
            "SPA009",
            repro__core__base="""
            class Checkpointable:
                def snapshot(self):
                    return {}

                def restore(self, payload):
                    pass
            """,
            repro__core__child="""
            from repro.core.base import Checkpointable

            class Runner(Checkpointable):
                def __init__(self):
                    self._pending = []

                def push(self, x):
                    self._pending.append(x)
            """,
        )
        assert len(findings) == 1
        assert "Runner" in findings[0].message
        assert findings[0].path == "src/repro/core/child.py"

    def test_snapshot_helpers_expanded_one_level(self):
        findings = check(
            "SPA009",
            repro__core__helper="""
            class Meter:
                def __init__(self):
                    self._laps = []

                def lap(self, t):
                    self._laps.append(t)

                def _encode(self):
                    return list(self._laps)

                def _decode(self, payload):
                    self._laps = list(payload["laps"])

                def snapshot(self):
                    return {"laps": self._encode()}

                def restore(self, payload):
                    self._decode(payload)
            """,
        )
        assert findings == []

    def test_non_product_modules_not_held_to_protocol(self):
        findings = check(
            "SPA009",
            tests__fake="""
            class StubMeter:
                def __init__(self):
                    self._laps = []

                def lap(self, t):
                    self._laps.append(t)

                def snapshot(self):
                    return {}

                def restore(self, payload):
                    pass
            """,
        )
        assert findings == []


class TestSPA010CheckpointKey:
    def test_producer_argument_missing_from_key_dict(self):
        # The shape of the real bug this rule exists for: the fault
        # plan changes the profiled stream but was left out of the
        # job-key dict, so a faulty and a clean run share checkpoints.
        findings = check(
            "SPA010",
            repro__cli="""
            from repro.runtime.checkpoint import checkpoint_job_key
            from repro.runtime.runner import run_workload_stream

            def profile(args):
                job_key = checkpoint_job_key({
                    "workload": args.workload,
                    "scale": args.scale,
                })
                return run_workload_stream(
                    args.workload, args.scale, args.faults
                )
            """,
        )
        assert [f.rule for f in findings] == ["SPA010"]
        assert "args.faults" in findings[0].message
        assert "args.scale" not in findings[0].message
        assert findings[0].qualname == "profile"

    def test_complete_key_dict_is_clean(self):
        findings = check(
            "SPA010",
            repro__cli="""
            from repro.runtime.checkpoint import checkpoint_job_key
            from repro.runtime.runner import run_workload_stream

            def profile(args):
                job_key = checkpoint_job_key({
                    "workload": args.workload,
                    "scale": args.scale,
                    "faults": args.faults,
                })
                return run_workload_stream(
                    args.workload, args.scale, args.faults
                )
            """,
        )
        assert findings == []

    def test_local_aliases_expand_to_terminal_roots(self):
        # ``plan`` is a local derived from args.faults; covering
        # args.faults in the key covers the alias too.
        findings = check(
            "SPA010",
            repro__cli="""
            from repro.runtime.checkpoint import checkpoint_job_key
            from repro.runtime.runner import run_workload_stream

            def profile(args):
                plan = load_plan(args.faults)
                job_key = checkpoint_job_key({
                    "workload": args.workload,
                    "faults": args.faults,
                })
                return run_workload_stream(args.workload, plan)
            """,
        )
        assert findings == []

    def test_spec_profile_params_coverage_via_index(self):
        # The key is spec.profile_params(); the resolved method's
        # self-reads define what the key covers.
        findings = check(
            "SPA010",
            repro__spec="""
            class JobSpec:
                def profile_params(self):
                    return {"workload": self.workload, "scale": self.scale}
            """,
            repro__run="""
            from repro.runtime.checkpoint import checkpoint_job_key
            from repro.spec import JobSpec

            def profile(spec, store):
                key = checkpoint_job_key(spec.profile_params())
                return run_workload_stream(spec.workload, spec.scale)
            """,
        )
        assert findings == []

    def test_plumbing_kwargs_and_heads_exempt(self):
        findings = check(
            "SPA010",
            repro__run="""
            from repro.runtime.checkpoint import checkpoint_job_key

            def profile(args, store, policy):
                key = checkpoint_job_key({"workload": args.workload})
                return run_workload_stream(
                    args.workload, checkpoint=policy, store=store
                )
            """,
        )
        assert findings == []


class TestSPA011EntropyTaint:
    def test_wall_clock_into_queue_put(self):
        findings = check(
            "SPA011",
            repro__worker="""
            import time

            def ship(queue, batch):
                stamp = time.time()
                queue.put((batch, stamp))
            """,
        )
        assert [f.rule for f in findings] == ["SPA011"]
        assert "'put'" in findings[0].message
        assert findings[0].qualname == "ship"

    def test_unseeded_rng_into_cache_key(self):
        findings = check(
            "SPA011",
            repro__keys="""
            from numpy.random import default_rng

            def key_of(store):
                salt = default_rng().integers(0, 2**32)
                return store.key_for("profile", {"salt": salt})
            """,
        )
        assert len(findings) == 1

    def test_seeded_rng_is_clean(self):
        findings = check(
            "SPA011",
            repro__keys="""
            from numpy.random import default_rng

            def key_of(store, seed):
                salt = default_rng(seed).integers(0, 2**32)
                return store.key_for("profile", {"salt": salt})
            """,
        )
        assert findings == []

    def test_manifest_metadata_kwargs_exempt(self):
        # Wall-clock *about* an artifact is fine; wall-clock *in* the
        # payload is not.
        findings = check(
            "SPA011",
            repro__store_use="""
            import time

            def record(store, key, payload):
                t0 = time.perf_counter()
                store.put(key, payload, compute_seconds=time.perf_counter() - t0)
            """,
        )
        assert findings == []

    def test_taint_crosses_one_call_level(self):
        # persist() sinks its ``value`` parameter; passing a tainted
        # local into it is flagged at the caller.
        findings = check(
            "SPA011",
            repro__sinks="""
            def persist(store, value):
                store.put("k", value)
            """,
            repro__caller="""
            import time
            from repro.sinks import persist

            def run(store):
                stamp = time.time()
                persist(store, stamp)
            """,
        )
        paths = sorted(f.path for f in findings)
        assert paths == ["src/repro/caller.py"]
        assert findings[0].qualname == "run"

    def test_non_product_modules_out_of_scope(self):
        findings = check(
            "SPA011",
            benchmarks__timing="""
            import time

            def ship(queue):
                queue.put(time.time())
            """,
        )
        assert findings == []


class TestSPA012ResourceLifecycle:
    def test_exception_between_acquire_and_handoff_leaks(self):
        # A write-then-rename spill: the file is closed and renamed into
        # place, but an error while encoding unwinds past both.
        findings = check(
            "SPA012",
            repro__spill="""
            import os
            import tempfile

            def spill(target, data):
                tmp = tempfile.NamedTemporaryFile(delete=False)
                payload = encode(data)
                tmp.write(payload)
                tmp.close()
                os.replace(tmp.name, target)
            """,
        )
        assert [f.rule for f in findings] == ["SPA012"]
        assert "delete=False temp file 'tmp'" in findings[0].message
        assert "exception path" in findings[0].message

    def test_reclaiming_handler_before_reraise_is_clean(self):
        findings = check(
            "SPA012",
            repro__spill="""
            import os
            import tempfile

            def spill(target, data):
                tmp = tempfile.NamedTemporaryFile(delete=False)
                try:
                    payload = encode(data)
                    tmp.write(payload)
                except BaseException:
                    tmp.close()
                    os.unlink(tmp.name)
                    raise
                tmp.close()
                os.replace(tmp.name, target)
            """,
        )
        assert findings == []

    def test_normal_path_without_release_or_escape_leaks(self):
        findings = check(
            "SPA012",
            repro__spill="""
            import tempfile

            def probe():
                tmp = tempfile.NamedTemporaryFile(delete=False)
                return tmp.name
            """,
        )
        # ``tmp.name`` is an attribute read, not an ownership transfer:
        # the open handle and the file on disk both leak.
        assert len(findings) == 1
        assert "normal path" in findings[0].message

    def test_bare_handoff_to_container_is_an_escape(self):
        findings = check(
            "SPA012",
            repro__spill="""
            import tempfile

            def open_spill(open_files):
                tmp = tempfile.NamedTemporaryFile(delete=False)
                open_files.append(tmp)
                return tmp.name
            """,
        )
        assert findings == []

    def test_with_statement_owns_the_lifecycle(self):
        findings = check(
            "SPA012",
            repro__transport="""
            import tempfile

            def spill(data):
                with tempfile.NamedTemporaryFile(delete=False) as tmp:
                    tmp.write(data)
                    return tmp.name
            """,
        )
        assert findings == []

    def test_delete_false_tempfile_needs_unlink(self):
        findings = check(
            "SPA012",
            repro__spill="""
            import os
            import tempfile

            def leaky(data):
                tmp = tempfile.NamedTemporaryFile(delete=False)
                tmp.write(data)
                tmp.close()

            def clean(data, target):
                tmp = tempfile.NamedTemporaryFile(delete=False)
                try:
                    tmp.write(data)
                    tmp.close()
                    os.replace(tmp.name, target)
                except BaseException:
                    tmp.close()
                    os.unlink(tmp.name)
                    raise
            """,
        )
        assert [f.qualname for f in findings] == ["leaky"]
        assert "delete=False temp file" in findings[0].message

    def test_delete_true_tempfile_cleans_itself(self):
        findings = check(
            "SPA012",
            repro__spill="""
            import tempfile

            def scratch(data):
                tmp = tempfile.NamedTemporaryFile()
                tmp.write(data)
                tmp.close()
            """,
        )
        assert findings == []


class TestSPA013UndeclaredStageInput:
    def test_undeclared_module_global_read(self):
        findings = check(
            "SPA013",
            repro__pipeline__stages="""
            from repro.runtime.provenance import stage_fn

            LIMITS = {"wc": 10}

            @stage_fn("trace-gen")
            def stage_run(inputs, params):
                return LIMITS[params["workload"]]
            """,
        )
        assert [f.rule for f in findings] == ["SPA013"]
        assert "repro.pipeline.stages.LIMITS" in findings[0].message
        assert findings[0].qualname == "stage_run"

    def test_function_local_import_of_constant(self):
        # The stage_trace_gen shape: a lazy ``from m import CONST``
        # inside the stage body is still an ambient input.
        findings = check(
            "SPA013",
            repro__pipeline__stages="""
            from repro.runtime.provenance import stage_fn

            @stage_fn("trace-gen")
            def stage_run(inputs, params):
                from repro.datagen.seeds import GRAPH_INPUTS
                return GRAPH_INPUTS[params["graph"]]
            """,
        )
        assert len(findings) == 1
        assert "repro.datagen.seeds.GRAPH_INPUTS" in findings[0].message

    def test_declared_global_is_clean(self):
        findings = check(
            "SPA013",
            repro__pipeline__stages="""
            from repro.runtime.provenance import stage_fn

            @stage_fn(
                "trace-gen",
                reads=("global:repro.datagen.seeds.GRAPH_INPUTS",),
            )
            def stage_run(inputs, params):
                from repro.datagen.seeds import GRAPH_INPUTS
                return GRAPH_INPUTS[params["graph"]]
            """,
        )
        assert findings == []

    def test_env_var_read(self):
        findings = check(
            "SPA013",
            repro__pipeline__stages="""
            import os

            from repro.runtime.provenance import stage_fn

            @stage_fn("profile")
            def stage_run(inputs, params):
                return os.environ.get("SIMPROF_JOBS", "1")
            """,
        )
        assert len(findings) == 1
        assert "'SIMPROF_JOBS'" in findings[0].message
        assert 'reads=("env:SIMPROF_JOBS",)' in findings[0].message

    def test_declared_env_var_is_clean(self):
        findings = check(
            "SPA013",
            repro__pipeline__stages="""
            import os

            from repro.runtime.provenance import stage_fn

            @stage_fn("profile", reads=("env:SIMPROF_JOBS",))
            def stage_run(inputs, params):
                return os.getenv("SIMPROF_JOBS")
            """,
        )
        assert findings == []

    def test_file_read_needs_declaration(self):
        findings = check(
            "SPA013",
            repro__pipeline__stages="""
            from repro.runtime.provenance import stage_fn

            @stage_fn("trace-gen")
            def stage_run(inputs, params):
                with open(params["path"]) as fh:
                    return fh.read()
            """,
        )
        assert len(findings) == 1
        assert "reads a file" in findings[0].message

    def test_file_write_is_an_output_not_an_input(self):
        findings = check(
            "SPA013",
            repro__pipeline__stages="""
            from repro.runtime.provenance import stage_fn

            @stage_fn("report")
            def stage_run(inputs, params):
                with open(params["path"], "w") as fh:
                    fh.write("done")
                return 1
            """,
        )
        assert findings == []

    def test_lowercase_imports_and_classes_are_code_not_inputs(self):
        # Functions/classes are fingerprinted by the import closure;
        # only ALL_CAPS data constants need a reads= declaration.
        findings = check(
            "SPA013",
            repro__pipeline__stages="""
            import numpy as np

            from repro.core.profiler import SimProfProfiler
            from repro.runtime.provenance import stage_fn

            @stage_fn("profile")
            def stage_run(inputs, params):
                profiler = SimProfProfiler(params["profiler"])
                return profiler.profile(np.asarray(inputs["trace"]))
            """,
        )
        assert findings == []

    def test_undecorated_functions_ignored(self):
        findings = check(
            "SPA013",
            repro__pipeline__helpers="""
            LIMITS = {"wc": 10}

            def helper(workload):
                return LIMITS[workload]
            """,
        )
        assert findings == []
