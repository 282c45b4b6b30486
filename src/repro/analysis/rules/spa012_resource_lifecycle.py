"""SPA012: shared-resource lifecycle.

``delete=False`` temp files (the store's write-then-rename) and
shared-memory blocks outlive the Python objects that wrap them: a path
that leaves the function without closing/unlinking the handle leaks an
on-disk file or a kernel object.
The leak almost always hides on *exception* paths — the happy path
renames the file, but an error between acquisition and release
unwinds past the cleanup (the chaos harness finds these dynamically
by killing workers; this rule proves their absence statically).

Per function, each ``name = <acquisition>()`` assignment is checked
against the function's CFG (:mod:`repro.analysis.cfg`, with exception
edges): the acquisition node must not reach the normal exit or the
raise sink without passing a *release* or an *escape* of the resource.

* acquisitions — ``multiprocessing.shared_memory.SharedMemory(...)``
  and ``tempfile.NamedTemporaryFile(...)`` / ``tempfile.mkstemp(...)``;
* releases — ``name.close()/.unlink()/.release()/.clear()``, or
  ``os.replace/os.unlink/os.remove`` applied to ``name``/``name.name``;
* escapes (ownership transfer ends local responsibility) — returning
  or yielding the resource, passing it *bare* to a call
  (``open_blocks.append(block)``), storing it into an attribute,
  subscript or container, or aliasing it to another name.  Reading an
  attribute (``block.buf``, ``block.name``) is not an escape.

``with <acquisition>() as name:`` is exempt — the context manager owns
the lifecycle.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import ModuleContext
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.findings import Finding
from repro.analysis.project import (
    ProjectContext,
    ProjectRule,
    _walk_functions,
    register_project_rule,
)

_RELEASE_METHODS = frozenset({"close", "unlink", "release", "clear", "terminate"})
_OS_RELEASES = frozenset({"unlink", "remove", "replace"})
_TMP_CALLS = frozenset({"NamedTemporaryFile", "mkstemp"})


def _acquisition_kind(ctx: ModuleContext, node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    dotted = ctx.resolve_call(node) or ""
    leaf = dotted.rpartition(".")[2]
    if leaf == "SharedMemory":
        return "shared-memory block"
    if leaf in _TMP_CALLS:
        # delete=True temp files clean themselves up on close/GC.
        for kw in node.keywords:
            if (
                kw.arg == "delete"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ):
                return "delete=False temp file"
    return None


def _names_resource(node: ast.AST, name: str) -> bool:
    """``node`` is ``name`` or ``name.<attr>`` (e.g. ``fd.name``)."""
    if isinstance(node, ast.Name) and node.id == name:
        return True
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
    )


def _is_release(ctx: ModuleContext, stmt: ast.stmt, name: str) -> bool:
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _RELEASE_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id == name
        ):
            return True
        dotted = ctx.resolve_call(node) or ""
        if dotted.startswith("os.") and dotted.rpartition(".")[2] in _OS_RELEASES:
            if any(_names_resource(arg, name) for arg in node.args):
                return True
    return False


def _is_escape(ctx: ModuleContext, stmt: ast.stmt, name: str) -> bool:
    def bare(node: ast.AST) -> bool:
        # A *bare* occurrence: the name itself, not ``name.attr``.
        return (
            isinstance(node, ast.Name)
            and node.id == name
            and not isinstance(ctx.parent(node), ast.Attribute)
        )

    if isinstance(stmt, ast.Return):
        return stmt.value is not None and any(
            bare(n) for n in ast.walk(stmt.value)
        )
    if isinstance(stmt, ast.Expr) and isinstance(
        stmt.value, (ast.Yield, ast.YieldFrom)
    ):
        return any(bare(n) for n in ast.walk(stmt.value))
    if isinstance(stmt, ast.Assign):
        # Aliasing or storing the resource anywhere transfers ownership.
        return any(bare(n) for n in ast.walk(stmt.value))
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and (
            any(bare(arg) for arg in node.args)
            or any(bare(kw.value) for kw in node.keywords)
        ):
            return True
    return False


@register_project_rule
class SharedResourceLifecycle(ProjectRule):
    id = "SPA012"
    name = "shared-resource-lifecycle"
    rationale = (
        "A delete=False temp file or shared-memory block that escapes "
        "cleanup on any path — especially exception unwinds — leaks an "
        "on-disk file or kernel object past the process."
    )
    hint = (
        "release the resource on every path (try/finally or an except "
        "handler that closes and unlinks before re-raising), or hand it "
        "to an owner that does"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for module in sorted(project.index.modules):
            ctx = project.module_context(module)
            if ctx is None:
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(project, ctx, module, node)

    def _check_function(
        self,
        project: ProjectContext,
        ctx: ModuleContext,
        module: str,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        acquisitions: list[tuple[ast.Assign, str, str]] = []
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                kind = _acquisition_kind(ctx, node.value)
                if kind is not None:
                    acquisitions.append((node, node.targets[0].id, kind))
        if not acquisitions:
            return

        cfg: CFG = build_cfg(fn)
        qualname = ".".join(reversed(ctx.enclosing_names(fn))) or ""
        qualname = f"{qualname}.{fn.name}" if qualname else fn.name
        for stmt, name, kind in acquisitions:
            start = cfg.node_of(stmt)
            if start is None:
                continue  # inside a nested def; checked separately there
            handled = {
                nid
                for nid, node in enumerate(cfg.nodes)
                if node.stmt is not None
                and (
                    _is_release(ctx, node.stmt, name)
                    or _is_escape(ctx, node.stmt, name)
                )
            }
            leak_normal = cfg.reaches_without(start, handled, cfg.exit_id)
            leak_raise = cfg.reaches_without(start, handled, cfg.raise_id)
            if not (leak_normal or leak_raise):
                continue
            if leak_normal:
                detail = "a normal path reaches the function exit"
            else:
                detail = "an exception path unwinds out of the function"
            yield self.finding(
                project,
                module=module,
                line=stmt.lineno,
                col=stmt.col_offset,
                message=(
                    f"{kind} '{name}' is not released on every path: "
                    f"{detail} without close/unlink or an ownership "
                    "transfer"
                ),
                qualname=qualname,
            )
