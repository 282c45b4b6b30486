"""SPA010: checkpoint-key completeness.

:func:`repro.runtime.checkpoint.checkpoint_job_key` is the identity
under which in-flight profiling state is checkpointed and resumed.  If
a parameter influences the profiled stream but is missing from the key
material, two *different* jobs share a checkpoint chain and a resume
silently continues the wrong run — the same class of collision PR 7's
chaos tests probe dynamically, caught statically here.

For every function that builds a job key, the rule compares two root
sets derived by expanding local assignments back to terminal names
(function parameters and attribute chains such as ``args.scale``):

* **covered** — roots reaching the ``checkpoint_job_key(...)``
  argument (dict-literal values, or the ``self``-reads of a
  ``spec.profile_params()``-style key method resolved through the
  project index);
* **influencing** — roots passed to stream-producer calls
  (``run_workload_stream``, ``profile_stream``, …) in the same
  function.

Influencing roots with no covered counterpart are flagged.  Runtime
plumbing that deliberately stays outside the key is exempt: ``store``/
``queue``/``manager`` objects, ``checkpoint=``/``policy=`` keyword
arguments (checkpoint cadence does not change the job's identity), and
upper-case module constants.
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

# Calls that produce (or transform into) the profiled event stream.
_PRODUCERS = frozenset({"run_workload", "run_workload_stream", "profile_stream"})

# Keyword arguments on producer calls that are runtime plumbing, not
# job identity (checkpoint cadence may differ between resumed runs).
_PLUMBING_KWARGS = frozenset({"checkpoint", "policy", "store"})

# Terminal roots that never belong in a job key.
_PLUMBING_HEADS = frozenset(
    {"self", "store", "queue", "manager", "policy", "checkpoint"}
)


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _roots(node: ast.AST) -> set[str]:
    """Terminal name roots referenced by an expression.

    Attribute chains stay dotted (``args.scale``); calls contribute
    their method receiver and argument roots but not the bare callee
    name (``FaultPlan.load(x)`` roots to ``x``, not ``FaultPlan``).
    """
    out: set[str] = set()

    def visit(n: ast.AST) -> None:
        dotted = _dotted(n)
        if dotted is not None:
            out.add(dotted)
            return
        if isinstance(n, ast.Call):
            if isinstance(n.func, ast.Attribute):
                visit(n.func.value)
            for arg in n.args:
                visit(arg)
            for kw in n.keywords:
                visit(kw.value)
            return
        for child in ast.iter_child_nodes(n):
            visit(child)

    visit(node)
    return {r for r in out if not r.split(".", 1)[0][:1].isupper()}


def _local_map(fn: ast.AST) -> dict[str, set[str]]:
    """Local name -> roots of everything ever assigned to it."""
    table: dict[str, set[str]] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            value_roots = _roots(node.value)
            for target in node.targets:
                names = (
                    [target]
                    if isinstance(target, ast.Name)
                    else list(target.elts)
                    if isinstance(target, (ast.Tuple, ast.List))
                    else []
                )
                for name in names:
                    if isinstance(name, ast.Name):
                        table.setdefault(name.id, set()).update(value_roots)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                table.setdefault(node.target.id, set()).update(
                    _roots(node.value)
                )
    return table


def _expand(root: str, table: dict[str, set[str]], seen: set[str]) -> set[str]:
    """Expand a root through local assignments to terminal names."""
    head = root.split(".", 1)[0]
    if head not in table:
        return {root}
    if head in seen:
        return set()
    seen.add(head)
    out: set[str] = set()
    for sub in table[head]:
        out |= _expand(sub, table, seen)
    return out


def _expand_all(roots: set[str], table: dict[str, set[str]]) -> set[str]:
    out: set[str] = set()
    for root in roots:
        out |= _expand(root, table, set())
    return {r for r in out if r.split(".", 1)[0] not in _PLUMBING_HEADS}


def _covers(covered: set[str], root: str) -> bool:
    return any(
        c == root or c.startswith(root + ".") or root.startswith(c + ".")
        for c in covered
    )


@register_project_rule
class CheckpointKeyCompleteness(ProjectRule):
    id = "SPA010"
    name = "checkpoint-key-completeness"
    rationale = (
        "A job parameter missing from the checkpoint key lets two "
        "distinct jobs collide on one checkpoint chain and resume each "
        "other's state."
    )
    hint = (
        "add the parameter to the dict passed to checkpoint_job_key() "
        "(or to the spec's profile_params())"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for module in sorted(project.index.modules):
            if not module.startswith("repro."):
                continue
            ctx = project.module_context(module)
            if ctx is None:
                continue
            for qualname, fn in _walk_functions(ctx.tree):
                yield from self._check_function(project, ctx, module, qualname, fn)

    def _check_function(
        self,
        project: ProjectContext,
        ctx: ModuleContext,
        module: str,
        qualname: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        key_calls = [
            node
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and (ctx.resolve_call(node) or "").rpartition(".")[2]
            == "checkpoint_job_key"
        ]
        if not key_calls:
            return
        table = _local_map(fn)
        covered: set[str] = set()
        for call in key_calls:
            for arg in call.args:
                covered |= self._coverage(project, arg)
        covered = _expand_all(covered, table)

        influence: set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            leaf = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else ""
            )
            if leaf not in _PRODUCERS:
                continue
            raw: set[str] = set()
            if isinstance(func, ast.Attribute):
                raw |= _roots(func.value)
            for arg in node.args:
                raw |= _roots(arg)
            for kw in node.keywords:
                if kw.arg in _PLUMBING_KWARGS:
                    continue
                raw |= _roots(kw.value)
            influence |= _expand_all(raw, table)

        missing = sorted(r for r in influence if not _covers(covered, r))
        if missing:
            anchor = key_calls[0]
            yield self.finding(
                project,
                module=module,
                line=anchor.lineno,
                col=anchor.col_offset,
                message=(
                    "checkpoint job key omits parameters that influence "
                    "the profiled stream: " + ", ".join(missing)
                ),
                qualname=qualname,
            )

    def _coverage(self, project: ProjectContext, arg: ast.AST) -> set[str]:
        """Roots covered by one ``checkpoint_job_key`` argument."""
        # ``spec.profile_params()``-style key methods: cover the
        # receiver attributes the resolved method actually reads.
        if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute):
            receiver = _dotted(arg.func.value)
            infos = project.index.functions_named(arg.func.attr)
            if receiver is not None and infos:
                reads: set[str] = set()
                for info in infos:
                    reads |= {f"{receiver}.{attr}" for attr in info.self_read}
                if reads:
                    return reads
            return _roots(arg)
        if isinstance(arg, ast.Dict):
            out: set[str] = set()
            for value in arg.values:
                if value is not None:
                    out |= self._coverage(project, value)
            return out
        return _roots(arg)
