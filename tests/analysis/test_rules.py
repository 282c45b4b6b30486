"""Positive/negative fixture snippets for every SPA rule."""

import textwrap

import pytest

from repro.analysis import check_source, get_rule


def check(source, *, module="repro.core.example", rule=None, path=None):
    rules = [get_rule(rule)] if rule else None
    return check_source(
        textwrap.dedent(source),
        path=path or f"src/{module.replace('.', '/')}.py",
        module=module,
        rules=rules,
    )


class TestSPA001GlobalRng:
    def test_stdlib_module_functions_flagged(self):
        findings = check(
            """
            import random

            def jitter():
                random.seed(42)
                return random.random() + random.randint(0, 3)
            """,
            rule="SPA001",
        )
        assert len(findings) == 3
        assert all(f.rule == "SPA001" for f in findings)

    def test_numpy_legacy_api_flagged_through_aliases(self):
        findings = check(
            """
            import numpy as np
            import numpy.random as npr
            from numpy.random import rand

            def draw():
                np.random.seed(7)
                a = npr.random(3)
                return a + rand(3)
            """,
            rule="SPA001",
        )
        assert len(findings) == 3

    def test_explicit_generator_passes(self):
        findings = check(
            """
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
                return rng.normal(size=4)
            """,
            rule="SPA001",
        )
        assert findings == []

    def test_seeded_stdlib_instance_passes(self):
        findings = check(
            """
            import random

            def draw(seed):
                return random.Random(seed).random()
            """,
            rule="SPA001",
        )
        assert findings == []


class TestSPA002WallClock:
    def test_clock_in_deterministic_package_flagged(self):
        findings = check(
            """
            import time
            from datetime import datetime

            def simulate():
                start = time.perf_counter()
                stamp = datetime.now()
                return start, stamp
            """,
            module="repro.jvm.machine",
            rule="SPA002",
        )
        assert len(findings) == 2
        assert "repro.jvm.machine" in findings[0].message

    def test_clock_outside_scope_passes(self):
        source = """
            import time

            def measure():
                return time.perf_counter()
            """
        assert check(source, module="repro.cli", rule="SPA002") == []
        assert check(source, module="repro.runtime.store", rule="SPA002") == []

    def test_instrumentation_modules_exempt(self):
        findings = check(
            """
            import time

            def tick():
                return time.monotonic()
            """,
            module="repro.core.instrumentation",
            rule="SPA002",
        )
        assert findings == []


class TestSPA003SeedDiscipline:
    def test_entropy_seeding_flagged_everywhere(self):
        findings = check(
            """
            import numpy as np

            def _helper():
                return np.random.default_rng()
            """,
            rule="SPA003",
        )
        assert len(findings) == 1
        assert "OS entropy" in findings[0].message

    def test_public_function_without_seed_param_flagged(self):
        findings = check(
            """
            import numpy as np

            def select_points(job, n):
                rng = np.random.default_rng(0)
                return rng.choice(n)
            """,
            rule="SPA003",
        )
        assert len(findings) == 1
        assert "select_points" in findings[0].message

    def test_rng_parameter_fallback_idiom_passes(self):
        findings = check(
            """
            import numpy as np

            def select_points(job, n, rng=None):
                rng = rng or np.random.default_rng(0)
                return rng.choice(n)
            """,
            rule="SPA003",
        )
        assert findings == []

    def test_seed_threaded_from_config_passes(self):
        findings = check(
            """
            import numpy as np

            def run(cfg, draw):
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, draw])
                )
                return rng.normal()
            """,
            rule="SPA003",
        )
        assert findings == []

    def test_module_level_hardcoded_rng_flagged(self):
        findings = check(
            """
            import numpy as np

            RNG = np.random.default_rng(0)
            """,
            rule="SPA003",
        )
        assert len(findings) == 1
        assert "module-level" in findings[0].message

    def test_pytest_fixture_exempt(self):
        findings = check(
            """
            import numpy as np
            import pytest

            @pytest.fixture()
            def rng():
                return np.random.default_rng(12345)
            """,
            module="tests.conftest",
            rule="SPA003",
        )
        assert findings == []


class TestSPA004UnorderedIteration:
    def test_dict_view_in_hashing_function_flagged(self):
        findings = check(
            """
            def stable_hash(params):
                parts = [f"{k}={v}" for k, v in params.items()]
                return "|".join(parts)
            """,
            rule="SPA004",
        )
        assert len(findings) == 1
        assert "stable_hash" in findings[0].message

    def test_set_literal_for_loop_in_manifest_flagged(self):
        findings = check(
            """
            def write_manifest(out):
                for name in {"b", "a"}:
                    out.append(name)
            """,
            rule="SPA004",
        )
        assert len(findings) == 1

    def test_sorted_wrapper_passes(self):
        findings = check(
            """
            def stable_hash(params):
                parts = sorted(f"{k}={v}" for k, v in params.items())
                return "|".join(parts)
            """,
            rule="SPA004",
        )
        assert findings == []

    def test_non_sensitive_scope_passes(self):
        findings = check(
            """
            def tally(counts):
                return [k for k in counts.keys()]
            """,
            rule="SPA004",
        )
        assert findings == []

    def test_order_insensitive_consumer_passes(self):
        findings = check(
            """
            def feature_total(row):
                return sum(v for v in row.values())
            """,
            rule="SPA004",
        )
        assert findings == []


class TestSPA005DocstringDrift:
    def test_stale_default_flagged(self):
        findings = check(
            """
            from dataclasses import dataclass

            @dataclass
            class ProfilerConfig:
                '''Knobs.

                ``snapshot_period`` defaults to 10 M instructions.
                '''

                snapshot_period: int = 2_000_000
            """,
            rule="SPA005",
        )
        assert len(findings) == 1
        assert "1e+07" in findings[0].message or "10000000" in findings[0].message
        # Anchored at the docstring line carrying the stale claim.
        assert "10 M" in findings[0].line_text

    def test_matching_default_passes(self):
        findings = check(
            """
            from dataclasses import dataclass

            @dataclass
            class ProfilerConfig:
                '''``snapshot_period``, default 2 M (see paper).'''

                snapshot_period: int = 2_000_000
            """,
            rule="SPA005",
        )
        assert findings == []

    def test_keyword_default_checked(self):
        findings = check(
            """
            def select(X, top_k=100):
                '''Keep the ``top_k`` (default 250) best methods.'''
                return X[:top_k]
            """,
            rule="SPA005",
        )
        assert len(findings) == 1

    def test_unknown_names_ignored(self):
        findings = check(
            """
            UNIT = 100

            def run():
                '''The paper's ``other_knob`` default 7 does not exist here.'''
            """,
            rule="SPA005",
        )
        assert findings == []


class TestSPA006SilentSwallow:
    def test_bare_except_pass_flagged(self):
        findings = check(
            """
            def cleanup(path):
                try:
                    path.unlink()
                except:
                    pass
            """,
            rule="SPA006",
        )
        assert len(findings) == 1
        assert "bare except" in findings[0].message

    def test_broad_exception_ellipsis_flagged(self):
        findings = check(
            """
            def load(store, key):
                try:
                    return store.get(key)
                except Exception:
                    ...
            """,
            rule="SPA006",
        )
        assert len(findings) == 1
        assert "except Exception" in findings[0].message

    def test_tuple_containing_broad_type_flagged(self):
        findings = check(
            """
            def load(store, key):
                try:
                    return store.get(key)
                except (KeyError, Exception):
                    pass
            """,
            rule="SPA006",
        )
        assert len(findings) == 1

    def test_narrow_handler_allowed(self):
        findings = check(
            """
            import os

            def sweep(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            """,
            rule="SPA006",
        )
        assert findings == []

    def test_broad_handler_with_real_body_allowed(self):
        findings = check(
            """
            def load(store, key, report):
                try:
                    return store.get(key)
                except Exception as exc:
                    report.record("store", "load", "degraded")
                    return None
            """,
            rule="SPA006",
        )
        assert findings == []

    def test_out_of_tree_module_ignored(self):
        findings = check(
            """
            def cleanup():
                try:
                    risky()
                except Exception:
                    pass
            """,
            module="tests.helpers",
            path="tests/helpers.py",
            rule="SPA006",
        )
        assert findings == []


class TestSPA007QuadraticDistance:
    def test_norm_over_difference_flagged(self):
        findings = check(
            """
            import numpy as np

            def nearest(X, C):
                d = np.linalg.norm(X[:, None, :] - C[None, :, :], axis=-1)
                return d.argmin(axis=1)
            """,
            rule="SPA007",
        )
        # Both the norm-over-difference and the broadcast-subtract fire.
        assert len(findings) == 2
        assert all(f.rule == "SPA007" for f in findings)

    def test_broadcast_subtract_flagged(self):
        findings = check(
            """
            def dists(a, b):
                return ((a[:, None] - b[None, :]) ** 2).sum(axis=-1)
            """,
            rule="SPA007",
        )
        assert len(findings) == 1
        assert "broadcast-subtract" in findings[0].message

    def test_gram_matrix_expression_passes(self):
        findings = check(
            """
            def sq_dists(X, C):
                return (
                    (X**2).sum(axis=1)[:, None]
                    + (C**2).sum(axis=1)[None, :]
                    - 2.0 * X @ C.T
                )
            """,
            rule="SPA007",
        )
        assert findings == []

    def test_norm_without_difference_passes(self):
        findings = check(
            """
            import numpy as np

            def lengths(X):
                return np.linalg.norm(X, axis=1)
            """,
            rule="SPA007",
        )
        assert findings == []

    def test_clustering_module_exempt(self):
        findings = check(
            """
            def helper(a, b):
                return a[:, None] - b[None, :]
            """,
            module="repro.core.clustering",
            rule="SPA007",
        )
        assert findings == []

    def test_reference_module_exempt(self):
        findings = check(
            """
            def old(a, b):
                return a[:, None] - b[None, :]
            """,
            module="repro.core._reference",
            rule="SPA007",
        )
        assert findings == []

    def test_outside_core_ignored(self):
        findings = check(
            """
            import numpy as np

            def fine(X, C):
                return np.linalg.norm(X[:, None] - C[None, :], axis=-1)
            """,
            module="repro.workloads.synthetic",
            rule="SPA007",
        )
        assert findings == []


class TestSPA008Columnar:
    def test_for_loop_over_batch_data_flagged(self):
        findings = check(
            """
            def cut(batch):
                out = []
                for row in batch.data:
                    out.append(row["instructions"])
                return out
            """,
            module="repro.core.profiler",
            rule="SPA008",
        )
        assert len(findings) == 1
        assert "per-element for-loop" in findings[0].message

    def test_comprehension_over_packer_call_flagged(self):
        findings = check(
            """
            def ship(trace):
                return [int(r["cycles"]) for r in trace.to_structured()]
            """,
            module="repro.jvm.stream",
            rule="SPA008",
        )
        assert len(findings) == 1
        assert "comprehension" in findings[0].message

    def test_tainted_local_name_flagged(self):
        findings = check(
            """
            def ship(trace):
                packed = trace.drain_structured()
                for row in packed:
                    yield row
            """,
            module="repro.jvm.stream",
            rule="SPA008",
        )
        assert len(findings) == 1

    def test_zip_over_column_slices_flagged(self):
        findings = check(
            """
            def pairs(batch):
                for sid, n in zip(batch.data["stack_id"], batch.data["instructions"]):
                    yield sid, n
            """,
            module="repro.core.features",
            rule="SPA008",
        )
        assert len(findings) == 1

    def test_tolist_flagged(self):
        findings = check(
            """
            def export(arr):
                return arr.tolist()
            """,
            module="repro.core.features",
            rule="SPA008",
        )
        assert len(findings) == 1
        assert "tolist" in findings[0].message

    def test_object_dtype_flagged(self):
        findings = check(
            """
            import numpy as np

            def boxes(rows):
                a = np.empty(len(rows), dtype=object)
                b = np.array(rows, dtype="object")
                return a, b, np.dtype(object)
            """,
            module="repro.core.features",
            rule="SPA008",
        )
        assert len(findings) == 3
        assert all("object dtype" in f.message for f in findings)

    def test_column_arithmetic_passes(self):
        findings = check(
            """
            import numpy as np

            def totals(batch):
                data = batch.data
                cum = np.cumsum(data["instructions"])
                hit = np.searchsorted(cum, 100, side="right")
                return int(cum[-1]), int(data["stack_id"][hit])
            """,
            module="repro.core.profiler",
            rule="SPA008",
        )
        assert findings == []

    def test_iteration_over_plain_locals_passes(self):
        findings = check(
            """
            import numpy as np

            def boundaries(n, size):
                bs = np.arange(0, n, size)
                return [int(b) for b in bs]
            """,
            module="repro.core.profiler",
            rule="SPA008",
        )
        assert findings == []

    def test_taint_is_function_scoped(self):
        # A packer-call rebinding in one function must not taint the
        # same name in another.
        findings = check(
            """
            def a(segments):
                segments = segments_to_array(segments)
                return segments

            def b(segments):
                return [s.cycles for s in segments]
            """,
            module="repro.jvm.segments",
            rule="SPA008",
        )
        assert findings == []

    def test_reference_module_exempt(self):
        findings = check(
            """
            def old(batch):
                for row in batch.data:
                    yield row
            """,
            module="repro.jvm._reference",
            rule="SPA008",
        )
        assert findings == []

    def test_outside_trace_plane_ignored(self):
        findings = check(
            """
            def assemble(event):
                for row in event.data:
                    yield row
            """,
            module="repro.jvm.job",
            rule="SPA008",
        )
        assert findings == []

    def test_inline_suppression_with_justification(self):
        findings = check(
            """
            def adapt(data):
                return [
                    row["stack_id"]
                    for row in data  # simprof: ignore[SPA008] -- adapter
                ]
            """,
            module="repro.jvm.segments",
            rule="SPA008",
        )
        assert findings == []


class TestRegistry:
    def test_all_module_rules_registered(self):
        from repro.analysis import all_rules

        ids = [r.id for r in all_rules()]
        assert ids == [
            "SPA001", "SPA002", "SPA003", "SPA004", "SPA005", "SPA006",
            "SPA007", "SPA008",
        ]

    def test_all_project_rules_registered(self):
        from repro.analysis import all_project_rules

        ids = [r.id for r in all_project_rules()]
        assert ids == ["SPA009", "SPA010", "SPA011", "SPA012", "SPA013"]

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="SPA999"):
            get_rule("SPA999")

    def test_unknown_project_rule_raises(self):
        from repro.analysis import get_project_rule

        with pytest.raises(KeyError, match="SPA999"):
            get_project_rule("SPA999")
