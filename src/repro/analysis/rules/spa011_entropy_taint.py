"""SPA011: cross-boundary entropy taint.

SimProf's replay guarantee is that every run is a pure function of its
seeds.  Wall-clock and ambient-entropy values (``time.time()``,
``os.urandom``, an *unseeded* ``default_rng()``/``SeedSequence()``)
are fine as local diagnostics, but once they flow into a process/cache
boundary — a queue ``put`` to a worker, ``ArtifactStore.put``/
``get_or_compute``/``key_for``, ``checkpoint_job_key`` — they make
cache keys, checkpoints or cross-process payloads nondeterministic,
which is invisible until a replay diverges.

The rule taints locals assigned from entropy sources inside each
function, then flags sink calls whose arguments carry taint.  It is
interprocedural one level up: a fixpoint over the project index marks
function *parameters* that reach a sink inside their callee, so
passing a tainted local into such a function is flagged at the caller.

Exempt by design: values passed as declared manifest-metadata keywords
(``compute_seconds``, ``created``, ``stages``, ``counters``) — the
store records wall-clock *about* an artifact without keying on it —
and anything derived from a seeded RNG (``default_rng(seed)`` takes
arguments and is therefore never a source).  Scope is product code
(``repro.*``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.project import (
    ProjectContext,
    ProjectRule,
    _walk_functions,
    register_project_rule,
)

# Fully-resolved dotted names whose call yields wall-clock/entropy.
_ENTROPY_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

# Zero-argument forms of these are OS-entropy seeded (nondeterministic);
# with arguments they are SeedSequence-derived and deterministic.
_UNSEEDED_CALLS = frozenset({"default_rng", "SeedSequence", "Random"})

# Method names that ship a value across a cache/process boundary.
_SINK_ATTRS = frozenset({"put", "put_nowait", "get_or_compute", "key_for", "save"})

# Free functions that do the same.
_SINK_FUNCS = frozenset(
    {"stable_hash", "checkpoint_job_key", "encode_state"}
)

# Keyword arguments that are declared wall-clock *metadata* at the sink.
_EXEMPT_KWARGS = frozenset({"compute_seconds", "created", "stages", "counters"})


def _is_entropy_call(ctx: ModuleContext, node: ast.Call) -> bool:
    dotted = ctx.resolve_call(node) or ""
    if dotted in _ENTROPY_CALLS or dotted.startswith("secrets."):
        return True
    leaf = dotted.rpartition(".")[2]
    return leaf in _UNSEEDED_CALLS and not node.args and not node.keywords


def _is_sink_call(ctx: ModuleContext, node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _SINK_ATTRS:
        return True
    dotted = ctx.resolve_call(node) or ""
    return dotted.rpartition(".")[2] in _SINK_FUNCS


def _sink_param_fixpoint(project: ProjectContext) -> dict[str, frozenset[str]]:
    """dotted function -> parameters that reach a boundary sink inside it.

    Seeded from direct sink calls, then propagated up call edges
    recorded in the index (a caller parameter passed bare into a
    sink-reaching parameter is itself sink-reaching).
    """

    def all_functions():
        for module, mi in project.index.modules.items():
            for name, fi in mi.functions.items():
                yield f"{module}.{name}", fi
            for cls in mi.classes.values():
                for name, fi in cls.methods.items():
                    yield f"{module}.{cls.name}.{name}", fi

    reach: dict[str, set[str]] = {}
    for dotted, fi in all_functions():
        for cs in fi.calls:
            leaf = (cs.dotted or "").rpartition(".")[2]
            if not (cs.attr in _SINK_ATTRS or leaf in _SINK_FUNCS):
                continue
            params = reach.setdefault(dotted, set())
            params.update(cs.arg_params)
            params.update(p for kw, p in cs.kw_params if kw not in _EXEMPT_KWARGS)

    # Propagate through resolvable call edges until stable.
    changed = True
    while changed:
        changed = False
        for dotted, fi in all_functions():
            for cs in fi.calls:
                if cs.dotted is None:
                    continue
                callee = project.index.function_by_dotted(cs.dotted)
                if callee is None:
                    continue
                callee_keys = [
                    key
                    for key in reach
                    if key.rpartition(".")[2] == callee.name and reach[key]
                ]
                if not callee_keys:
                    continue
                callee_params = set().union(*(reach[k] for k in callee_keys))
                flow = set(cs.arg_params)
                flow.update(p for kw, p in cs.kw_params if kw in callee_params)
                if flow - reach.get(dotted, set()):
                    reach.setdefault(dotted, set()).update(flow)
                    changed = True
    return {k: frozenset(v) for k, v in reach.items() if v}


@register_project_rule
class EntropyTaint(ProjectRule):
    id = "SPA011"
    name = "cross-boundary-entropy-taint"
    rationale = (
        "Wall-clock or ambient entropy crossing a cache/process boundary "
        "makes keys and payloads nondeterministic, breaking seeded replay."
    )
    hint = (
        "derive the value from a SeedSequence-spawned RNG, or pass it as "
        "declared manifest metadata (e.g. compute_seconds) instead of "
        "key/payload material"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        sink_params = _sink_param_fixpoint(project)
        for module in sorted(project.index.modules):
            if not module.startswith("repro."):
                continue
            ctx = project.module_context(module)
            if ctx is None:
                continue
            for qualname, fn in _walk_functions(ctx.tree):
                yield from self._check_function(
                    project, ctx, module, qualname, fn, sink_params
                )

    def _check_function(
        self,
        project: ProjectContext,
        ctx: ModuleContext,
        module: str,
        qualname: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        sink_params: dict[str, frozenset[str]],
    ) -> Iterator[Finding]:
        tainted: set[str] = set()

        def expr_tainted(expr: ast.AST) -> bool:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call) and _is_entropy_call(ctx, node):
                    return True
                if isinstance(node, ast.Name) and node.id in tainted:
                    return True
            return False

        # Two passes pick up chained assignments regardless of the
        # (source-order) walk sequence.
        for _ in range(2):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    value = node.value
                    if value is None or not expr_tainted(value):
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        for leaf in ast.walk(target):
                            if isinstance(leaf, ast.Name):
                                tainted.add(leaf.id)

        seen_lines: set[int] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            is_sink = _is_sink_call(ctx, node)
            callee_params: frozenset[str] = frozenset()
            if not is_sink:
                dotted = ctx.resolve_call(node) or ""
                for key, params in sink_params.items():
                    if key == dotted or (
                        dotted and key.rpartition(".")[2] == dotted.rpartition(".")[2]
                    ):
                        callee_params = callee_params | params
                if not callee_params:
                    continue
            for kw in node.keywords:
                if kw.arg in _EXEMPT_KWARGS:
                    continue
                if not is_sink and kw.arg is not None and kw.arg not in callee_params:
                    continue
                if expr_tainted(kw.value):
                    break
            else:
                if not any(expr_tainted(arg) for arg in node.args):
                    continue
            if node.lineno in seen_lines:
                continue
            seen_lines.add(node.lineno)
            boundary = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else (ctx.resolve_call(node) or "").rpartition(".")[2]
            )
            yield self.finding(
                project,
                module=module,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    "entropy/wall-clock-derived value crosses a "
                    f"cache/process boundary via '{boundary}' without a "
                    "SeedSequence-derived RNG"
                ),
                qualname=qualname,
            )
