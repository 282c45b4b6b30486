"""Pass 1 of the whole-program engine: per-module symbol indexes.

:func:`build_module_index` distils one parsed :class:`ModuleContext`
into a :class:`ModuleIndex` — a compact, picklable summary of what the
cross-module (pass 2) rules need from the module without re-walking its
AST:

* the classes it defines, with resolved base-class names and a
  per-method attribute map (which ``self.X`` attributes each method
  assigns, mutates and reads, and whether an assignment binds a
  mutable container);
* its functions/methods with their parameters, resolved call edges
  (``repro.runtime.store.ArtifactStore`` style dotted names), and which
  parameters flow — bare — into which calls (one-level dataflow for
  taint rules);
* its import alias table and the modules it imports (the project
  import graph's edges, which ``--changed`` uses for the
  reverse-dependency closure; collected by
  :func:`repro.runtime.provenance.import_candidates`, the same scan
  that code fingerprints use).

A :class:`ProjectIndex` is the pass-2 view over every module's index:
class resolution across modules (attribute maps merged over the base
chain), function lookup by name, and the import graph.  Module indexes
are content-addressed in the :class:`~repro.runtime.store.ArtifactStore`
by the source file's digest, so an unchanged file costs one cache read
on re-analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.base import ModuleContext

__all__ = [
    "INDEX_VERSION",
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleIndex",
    "ProjectIndex",
    "build_module_index",
]

#: Bump when the index schema or extraction logic changes so cached
#: entries from older engines are never misread.
INDEX_VERSION = 1

# Constructors whose result is mutable state when bound to ``self.X``.
_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "deque",
        "defaultdict",
        "Counter",
        "OrderedDict",
        "bytearray",
        "zeros",
        "empty",
        "ones",
        "full",
        "array",
        "arange",
    }
)

# Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "fill",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function."""

    dotted: str | None  # resolved dotted callee, e.g. "numpy.cumsum"
    attr: str | None  # bare attribute name for method calls ("put")
    lineno: int
    #: Enclosing-function parameters passed bare as positional args.
    arg_params: tuple[str, ...] = ()
    #: (keyword, parameter) pairs for parameters passed bare by keyword.
    kw_params: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "dotted": self.dotted,
            "attr": self.attr,
            "lineno": self.lineno,
            "arg_params": list(self.arg_params),
            "kw_params": [list(p) for p in self.kw_params],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CallSite":
        return cls(
            dotted=data["dotted"],
            attr=data["attr"],
            lineno=data["lineno"],
            arg_params=tuple(data["arg_params"]),
            kw_params=tuple((k, p) for k, p in data["kw_params"]),
        )


@dataclass
class FunctionInfo:
    """Index entry for one function or method."""

    name: str
    qualname: str  # dotted within the module ("Cls.method")
    lineno: int
    params: tuple[str, ...] = ()
    calls: tuple[CallSite, ...] = ()
    # self-attribute maps (methods only; attr -> first lineno seen).
    self_assign: dict[str, int] = field(default_factory=dict)
    self_mutable_assign: dict[str, int] = field(default_factory=dict)
    self_mutate: dict[str, int] = field(default_factory=dict)
    #: ``self.X = <param>`` — attributes bound straight from a parameter
    #: (injected collaborators rather than internally-built state).
    self_param_assign: dict[str, int] = field(default_factory=dict)
    self_read: frozenset[str] = frozenset()
    #: Names of own methods invoked as ``self.helper(...)``.
    self_calls: frozenset[str] = frozenset()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "qualname": self.qualname,
            "lineno": self.lineno,
            "params": list(self.params),
            "calls": [c.to_dict() for c in self.calls],
            "self_assign": dict(self.self_assign),
            "self_mutable_assign": dict(self.self_mutable_assign),
            "self_mutate": dict(self.self_mutate),
            "self_param_assign": dict(self.self_param_assign),
            "self_read": sorted(self.self_read),
            "self_calls": sorted(self.self_calls),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionInfo":
        return cls(
            name=data["name"],
            qualname=data["qualname"],
            lineno=data["lineno"],
            params=tuple(data["params"]),
            calls=tuple(CallSite.from_dict(c) for c in data["calls"]),
            self_assign=dict(data["self_assign"]),
            self_mutable_assign=dict(data["self_mutable_assign"]),
            self_mutate=dict(data["self_mutate"]),
            self_param_assign=dict(data["self_param_assign"]),
            self_read=frozenset(data["self_read"]),
            self_calls=frozenset(data["self_calls"]),
        )


@dataclass
class ClassInfo:
    """Index entry for one class definition."""

    name: str
    qualname: str
    lineno: int
    bases: tuple[str, ...] = ()  # resolved dotted base names
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "qualname": self.qualname,
            "lineno": self.lineno,
            "bases": list(self.bases),
            "methods": {k: v.to_dict() for k, v in self.methods.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassInfo":
        return cls(
            name=data["name"],
            qualname=data["qualname"],
            lineno=data["lineno"],
            bases=tuple(data["bases"]),
            methods={
                k: FunctionInfo.from_dict(v) for k, v in data["methods"].items()
            },
        )


@dataclass
class ModuleIndex:
    """Everything pass 2 knows about one module without its AST."""

    module: str
    path: str
    digest: str = ""
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted
    import_modules: tuple[str, ...] = ()  # candidate imported module names
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": INDEX_VERSION,
            "module": self.module,
            "path": self.path,
            "digest": self.digest,
            "imports": dict(self.imports),
            "import_modules": list(self.import_modules),
            "classes": {k: v.to_dict() for k, v in self.classes.items()},
            "functions": {k: v.to_dict() for k, v in self.functions.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleIndex":
        if data.get("version") != INDEX_VERSION:
            raise ValueError(
                f"module index version {data.get('version')!r} != {INDEX_VERSION}"
            )
        return cls(
            module=data["module"],
            path=data["path"],
            digest=data["digest"],
            imports=dict(data["imports"]),
            import_modules=tuple(data["import_modules"]),
            classes={k: ClassInfo.from_dict(v) for k, v in data["classes"].items()},
            functions={
                k: FunctionInfo.from_dict(v) for k, v in data["functions"].items()
            },
        )


# -- extraction ---------------------------------------------------------------


def _is_self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``X`` (direct attributes only)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_mutable_expr(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether an assigned expression builds a mutable container."""
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        dotted = ctx.resolve_call(node) or ""
        return dotted.rpartition(".")[2] in _MUTABLE_CALLS
    return False


def _record_first(table: dict[str, int], attr: str, lineno: int) -> None:
    table.setdefault(attr, lineno)


def _function_info(
    ctx: ModuleContext, fn: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
) -> FunctionInfo:
    params = tuple(
        a.arg
        for a in (
            *fn.args.posonlyargs,
            *fn.args.args,
            *fn.args.kwonlyargs,
            *([fn.args.vararg] if fn.args.vararg else []),
            *([fn.args.kwarg] if fn.args.kwarg else []),
        )
    )
    param_set = set(params)
    calls: list[CallSite] = []
    self_assign: dict[str, int] = {}
    self_mutable: dict[str, int] = {}
    self_mutate: dict[str, int] = {}
    self_param: dict[str, int] = {}
    self_read: set[str] = set()
    self_calls: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    attr = _is_self_attr(leaf)
                    if attr is None or not isinstance(leaf.ctx, ast.Store):
                        continue
                    _record_first(self_assign, attr, leaf.lineno)
                    if _is_mutable_expr(ctx, node.value):
                        _record_first(self_mutable, attr, leaf.lineno)
                    if (
                        isinstance(node.value, ast.Name)
                        and node.value.id in param_set
                    ):
                        _record_first(self_param, attr, leaf.lineno)
                # ``self.x[...] = v`` mutates x rather than rebinding it.
                if isinstance(target, ast.Subscript):
                    attr = _is_self_attr(target.value)
                    if attr is not None:
                        _record_first(self_mutate, attr, target.lineno)
        elif isinstance(node, ast.AugAssign):
            attr = _is_self_attr(node.target)
            if attr is not None:
                _record_first(self_assign, attr, node.target.lineno)
                _record_first(self_mutate, attr, node.target.lineno)
            elif isinstance(node.target, ast.Subscript):
                attr = _is_self_attr(node.target.value)
                if attr is not None:
                    _record_first(self_mutate, attr, node.target.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            attr_name = func.attr if isinstance(func, ast.Attribute) else None
            # ``self.x.append(...)``-style receiver mutation.
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and (recv := _is_self_attr(func.value)) is not None
            ):
                _record_first(self_mutate, recv, func.lineno)
            if isinstance(func, ast.Attribute):
                direct = _is_self_attr(func)
                if direct is not None:
                    self_calls.add(direct)
            arg_params = tuple(
                a.id
                for a in node.args
                if isinstance(a, ast.Name) and a.id in param_set
            )
            kw_params = tuple(
                (kw.arg, kw.value.id)
                for kw in node.keywords
                if kw.arg is not None
                and isinstance(kw.value, ast.Name)
                and kw.value.id in param_set
            )
            calls.append(
                CallSite(
                    dotted=ctx.resolve_call(node),
                    attr=attr_name,
                    lineno=node.lineno,
                    arg_params=arg_params,
                    kw_params=kw_params,
                )
            )
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attr = _is_self_attr(node)
            if attr is not None:
                self_read.add(attr)
    return FunctionInfo(
        name=fn.name,
        qualname=qualname,
        lineno=fn.lineno,
        params=params,
        calls=tuple(calls),
        self_assign=self_assign,
        self_mutable_assign=self_mutable,
        self_mutate=self_mutate,
        self_param_assign=self_param,
        self_read=frozenset(self_read),
        self_calls=frozenset(self_calls),
    )


def build_module_index(ctx: ModuleContext, *, digest: str = "") -> ModuleIndex:
    """Distil one parsed module into its :class:`ModuleIndex`."""
    # Imported here: ``import repro.analysis`` stays free of the numeric
    # stack the runtime package loads.
    from repro.runtime.provenance import import_candidates

    index = ModuleIndex(
        module=ctx.module,
        path=ctx.path,
        digest=digest,
        imports=dict(ctx._aliases),
        import_modules=import_candidates(ctx.tree),
    )
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            info = ClassInfo(
                name=node.name,
                qualname=node.name,
                lineno=node.lineno,
                bases=tuple(
                    dotted
                    for base in node.bases
                    if (dotted := ctx.resolve(base)) is not None
                ),
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[item.name] = _function_info(
                        ctx, item, f"{node.name}.{item.name}"
                    )
            index.classes[node.name] = info
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index.functions[node.name] = _function_info(ctx, node, node.name)
    return index


# -- whole-program view -------------------------------------------------------


class ProjectIndex:
    """Pass-2 view over every module's :class:`ModuleIndex`."""

    def __init__(self, modules: dict[str, ModuleIndex] | None = None) -> None:
        self.modules: dict[str, ModuleIndex] = dict(modules or {})

    def add(self, index: ModuleIndex) -> None:
        self.modules[index.module] = index

    # -- lookups --------------------------------------------------------------

    def module_of_path(self, path: str) -> ModuleIndex | None:
        for mi in self.modules.values():
            if mi.path == path:
                return mi
        return None

    def resolve_class(self, dotted: str) -> tuple[ModuleIndex, ClassInfo] | None:
        """``repro.core.profiler.ProfilerSession`` -> its index entry."""
        module, _, name = dotted.rpartition(".")
        mi = self.modules.get(module)
        if mi is not None and name in mi.classes:
            return mi, mi.classes[name]
        # Re-exports: ``repro.faults.FaultPlan`` defined in a submodule.
        for mi in self.modules.values():
            if dotted == f"{mi.module}.{name}" and name in mi.classes:
                return mi, mi.classes[name]
        return None

    def base_chain(
        self, mi: ModuleIndex, info: ClassInfo
    ) -> Iterator[tuple[ModuleIndex, ClassInfo]]:
        """``info`` plus every resolvable base, nearest first, cycle-safe."""
        seen: set[tuple[str, str]] = set()
        queue: list[tuple[ModuleIndex, ClassInfo]] = [(mi, info)]
        while queue:
            cur_mi, cur = queue.pop(0)
            key = (cur_mi.module, cur.name)
            if key in seen:
                continue
            seen.add(key)
            yield cur_mi, cur
            for base in cur.bases:
                found = self.resolve_class(base)
                if found is None and "." not in base:
                    # Unqualified base defined in the same module.
                    local = cur_mi.classes.get(base)
                    found = (cur_mi, local) if local is not None else None
                if found is not None:
                    queue.append(found)

    def method(self, mi: ModuleIndex, info: ClassInfo, name: str) -> FunctionInfo | None:
        """Resolve a method through the base chain (nearest definition)."""
        for _, cls in self.base_chain(mi, info):
            if name in cls.methods:
                return cls.methods[name]
        return None

    def functions_named(self, name: str) -> list[FunctionInfo]:
        """Every function or method with bare name ``name`` (sorted)."""
        out: list[tuple[str, FunctionInfo]] = []
        for module, mi in sorted(self.modules.items()):
            if name in mi.functions:
                out.append((f"{module}.{name}", mi.functions[name]))
            for cls in mi.classes.values():
                if name in cls.methods:
                    out.append((f"{module}.{cls.name}.{name}", cls.methods[name]))
        return [fi for _, fi in sorted(out, key=lambda kv: kv[0])]

    def function_by_dotted(self, dotted: str) -> FunctionInfo | None:
        """Resolve ``pkg.mod.fn`` (module-level functions only)."""
        module, _, name = dotted.rpartition(".")
        mi = self.modules.get(module)
        if mi is not None:
            return mi.functions.get(name)
        for mi in self.modules.values():
            if dotted == f"{mi.module}.{name}" and name in mi.functions:
                return mi.functions[name]
        return None

    # -- import graph ---------------------------------------------------------

    def import_graph(self) -> dict[str, set[str]]:
        """module -> set of *project* modules it imports."""
        known = set(self.modules)
        graph: dict[str, set[str]] = {}
        for module, mi in self.modules.items():
            deps = {m for m in mi.import_modules if m in known and m != module}
            graph[module] = deps
        return graph

    def reverse_closure(self, changed: set[str]) -> set[str]:
        """``changed`` plus every module that (transitively) imports one."""
        graph = self.import_graph()
        reverse: dict[str, set[str]] = {m: set() for m in graph}
        for module, deps in graph.items():
            for dep in deps:
                reverse.setdefault(dep, set()).add(module)
        out = set(changed) & set(self.modules)
        frontier = list(out)
        while frontier:
            cur = frontier.pop()
            for dependant in reverse.get(cur, ()):
                if dependant not in out:
                    out.add(dependant)
                    frontier.append(dependant)
        return out
