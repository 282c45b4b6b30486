"""SPA008: no per-element Python iteration over packed segment arrays.

The columnar trace plane moves segments as packed ``SEGMENT_DTYPE``
structured arrays precisely so nothing between substrate flush and
unit emission runs a Python-level per-segment loop.  One stray
``for row in batch.data`` (or a ``.tolist()``) silently reintroduces
the per-object hot path the refactor removed — the code still passes
every parity test, it is just 100× slower, which is the kind of
regression only a profiler would catch.  This rule catches it
statically instead.

Flagged, inside the trace-plane modules only (``repro.jvm.segments``,
``repro.jvm.stream``, ``repro.core.profiler``, ``repro.core.features``,
``repro.faults.stream``; ``_reference``
modules are the sanctioned object-path museum and stay exempt):

* iteration (``for`` statements and comprehensions) whose iterable is
  a packed-array expression: a ``.data`` batch payload, a call to one
  of the packers (``to_structured``, ``drain_structured``,
  ``segments_to_array``, ``empty_segment_array``), a subscript of
  either (column slices are still per-element iteration), a local
  name bound to one of those, or a bare name ``data`` (the
  trace-plane convention for a packed batch payload);
* ``zip(...)``/``enumerate(...)`` iterables with any packed-array
  argument;
* ``.tolist()`` on anything — there is no columnar reason to
  round-trip through Python lists;
* ``object``-dtype arrays (``dtype=object`` / ``dtype="object"`` /
  ``np.dtype(object)``), which box every element and defeat the
  packed layout.

The one legitimate columnar → object adapter
(:func:`repro.jvm.segments.array_to_segments`) carries an inline
``# simprof: ignore[SPA008]`` with its justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import ModuleContext, Rule, register_rule
from repro.analysis.findings import Finding

_SCOPE_MODULES = frozenset(
    {
        "repro.jvm.segments",
        "repro.jvm.stream",
        "repro.core.profiler",
        "repro.core.features",
        "repro.faults.stream",
    }
)

_PACKER_NAMES = frozenset(
    {
        "to_structured",
        "drain_structured",
        "segments_to_array",
        "empty_segment_array",
    }
)

_WRAPPER_CALLS = frozenset({"zip", "enumerate", "reversed", "iter", "list", "tuple"})


def _call_name(node: ast.Call) -> str | None:
    """Bare callee name of ``node`` (``f`` for both ``f()`` and ``a.f()``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class _PackedSources:
    """Names bound to packed-array expressions (one-step local dataflow).

    Scoped to one function (or the module top level): a rebinding like
    ``segments = segments_to_array(segments)`` taints ``segments`` only
    inside the function that does it.
    """

    def __init__(self, assigns: "list[ast.Assign]") -> None:
        self.names: set[str] = {"data"}
        for node in assigns:
            if self._is_packed_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.names.add(target.id)

    def _is_packed_expr(self, node: ast.AST) -> bool:
        """Whether ``node`` syntactically produces a packed segment array."""
        if isinstance(node, ast.Attribute):
            return node.attr == "data"
        if isinstance(node, ast.Call):
            return _call_name(node) in _PACKER_NAMES
        if isinstance(node, ast.Subscript):
            # A column or row slice of a packed source is still the
            # packed source as far as per-element iteration goes.
            return self._is_packed_expr(node.value)
        if isinstance(node, ast.Name):
            return node.id in self.names
        return False

    def is_packed_iterable(self, node: ast.AST) -> bool:
        """Packed expression, or a zip/enumerate over one."""
        if self._is_packed_expr(node):
            return True
        if isinstance(node, ast.Call) and _call_name(node) in _WRAPPER_CALLS:
            return any(self._is_packed_expr(arg) for arg in node.args)
        return False


def _is_object_dtype(node: ast.AST) -> bool:
    """Whether ``node`` names the object dtype (``object`` / ``"object"``)."""
    if isinstance(node, ast.Name) and node.id == "object":
        return True
    if isinstance(node, ast.Constant) and node.value == "object":
        return True
    return False


@register_rule
class ColumnarIterationRule(Rule):
    id = "SPA008"
    name = "columnar-iteration"
    rationale = (
        "Per-element Python iteration over packed segment arrays "
        "reintroduces the per-object hot path the columnar trace plane "
        "removed."
    )
    hint = (
        "operate on column slices (arr['instructions'], searchsorted, "
        "cumsum) instead of iterating rows; use "
        "repro.jvm.segments.array_to_segments if objects are truly needed"
    )

    def _in_scope(self, ctx: ModuleContext) -> bool:
        mod = ctx.module
        if mod.endswith("._reference"):
            return False
        return mod in _SCOPE_MODULES

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        by_scope: dict[ast.AST | None, _PackedSources] = {}

        def sources_at(node: ast.AST) -> _PackedSources:
            scope = ctx.enclosing_function(node)
            cached = by_scope.get(scope)
            if cached is None:
                region = scope if scope is not None else ctx.tree
                assigns = [
                    n
                    for n in ast.walk(region)
                    if isinstance(n, ast.Assign)
                    and ctx.enclosing_function(n) is scope
                ]
                cached = _PackedSources(assigns)
                by_scope[scope] = cached
            return cached

        for node in ctx.walk():
            if isinstance(node, ast.For):
                if sources_at(node).is_packed_iterable(node.iter):
                    yield self.finding(
                        ctx,
                        node.iter,
                        "per-element for-loop over a packed segment array",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if sources_at(node).is_packed_iterable(gen.iter):
                        yield self.finding(
                            ctx,
                            gen.iter,
                            "comprehension iterates a packed segment "
                            "array per element",
                        )
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name == "tolist" and isinstance(node.func, ast.Attribute):
                    yield self.finding(
                        ctx,
                        node,
                        ".tolist() boxes every element of the array "
                        "into Python objects",
                    )
                    continue
                dotted = ctx.resolve_call(node)
                if dotted == "numpy.dtype" and any(
                    _is_object_dtype(arg) for arg in node.args
                ):
                    yield self.finding(
                        ctx, node, "object dtype defeats the packed layout"
                    )
                    continue
                for kw in node.keywords:
                    if kw.arg == "dtype" and _is_object_dtype(kw.value):
                        yield self.finding(
                            ctx,
                            kw.value,
                            "object dtype defeats the packed layout",
                        )
