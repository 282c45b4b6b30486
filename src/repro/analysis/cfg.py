"""Lightweight per-function control-flow graphs with exception edges.

Pass 2's reachability rules (SPA012 shared-resource lifecycle) need to
answer one question: *starting from this statement, can the function
exit — normally or by propagating an exception — without passing
through one of these other statements?*  :func:`build_cfg` builds a
statement-level CFG good enough for that:

* one node per simple statement; ``if``/``while``/``for``/``with``/
  ``try`` are decomposed with the usual branch/loop/back edges;
* two distinguished sinks — :attr:`CFG.exit_id` (normal completion:
  fall-through and ``return``) and :attr:`CFG.raise_id` (an exception
  propagating out of the function);
* every statement that contains a call (or is a ``raise``/``assert``)
  gets an *exception edge* to the innermost enclosing handler chain,
  or to the raise sink when nothing encloses it.  A catch-all handler
  (``except:``/``except Exception``/``except BaseException``) stops
  propagation; ``finally`` bodies are routed through on every exit
  kind.

The graph is intentionally approximate (handlers share one dispatch
node, ``finally`` exits fan out to every continuation that flowed in)
— precise enough to prove "this temp file is removed or renamed on
every path" and to flag the paths where it is not.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CFG", "CFGNode", "build_cfg"]


@dataclass
class CFGNode:
    """One CFG vertex: a statement, or a synthetic join/sink."""

    stmt: ast.stmt | None
    kind: str  # "stmt" | "entry" | "exit" | "raise" | "join"
    succ: set[int] = field(default_factory=set)
    exc_succ: set[int] = field(default_factory=set)


class CFG:
    """Statement-level control-flow graph of one function body."""

    def __init__(self) -> None:
        self.nodes: list[CFGNode] = []
        self.entry = self._add(None, "entry")
        self.exit_id = self._add(None, "exit")
        self.raise_id = self._add(None, "raise")
        self._stmt_ids: dict[int, int] = {}  # id(ast stmt) -> node id

    def _add(self, stmt: ast.stmt | None, kind: str) -> int:
        self.nodes.append(CFGNode(stmt=stmt, kind=kind))
        return len(self.nodes) - 1

    def node_of(self, stmt: ast.stmt) -> int | None:
        """The node id of a statement object, if it is in this graph."""
        return self._stmt_ids.get(id(stmt))

    def reaches_without(
        self, start: int, avoid: set[int], goal: int
    ) -> bool:
        """Can ``goal`` be reached from ``start`` on a path avoiding ``avoid``?

        The walk leaves ``start`` through its *normal* successors only
        (if the starting statement itself raises, its effect — e.g. a
        resource acquisition — never happened), then follows both
        normal and exception edges.  Nodes in ``avoid`` block the path:
        a path that touches one is considered handled.
        """
        frontier = [s for s in self.nodes[start].succ if s not in avoid]
        seen = set(frontier)
        while frontier:
            cur = frontier.pop()
            if cur == goal:
                return True
            node = self.nodes[cur]
            for nxt in (*node.succ, *node.exc_succ):
                if nxt not in seen and nxt not in avoid:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False


def _can_raise(stmt: ast.stmt) -> bool:
    """Whether a statement can plausibly raise (calls dominate)."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    return any(isinstance(n, ast.Call) for n in ast.walk(stmt))


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    name = handler.type
    if isinstance(name, ast.Attribute):
        name = ast.Name(id=name.attr)
    return isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        # Innermost-first stack of exception landing nodes; exceptions
        # raised where the stack is empty propagate to the raise sink.
        self.exc_stack: list[int] = []
        # (break targets, continue targets) per enclosing loop.
        self.loop_stack: list[tuple[set[int], int]] = []

    # -- plumbing -------------------------------------------------------------

    def _exc_target(self) -> int:
        return self.exc_stack[-1] if self.exc_stack else self.cfg.raise_id

    def _link(self, preds: set[int], node: int) -> None:
        for p in preds:
            self.cfg.nodes[p].succ.add(node)

    def _stmt_node(self, stmt: ast.stmt, preds: set[int]) -> int:
        nid = self.cfg._add(stmt, "stmt")
        self.cfg._stmt_ids[id(stmt)] = nid
        self._link(preds, nid)
        if _can_raise(stmt):
            self.cfg.nodes[nid].exc_succ.add(self._exc_target())
        return nid

    # -- structure ------------------------------------------------------------

    def visit_body(self, stmts: list[ast.stmt], preds: set[int]) -> set[int]:
        frontier = set(preds)
        for stmt in stmts:
            if not frontier:
                break  # unreachable code after a terminator
            frontier = self.visit(stmt, frontier)
        return frontier

    def visit(self, stmt: ast.stmt, preds: set[int]) -> set[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.Return):
            nid = self._stmt_node(stmt, preds)
            cfg.nodes[nid].succ.add(cfg.exit_id)
            return set()
        if isinstance(stmt, ast.Raise):
            nid = self._stmt_node(stmt, preds)
            cfg.nodes[nid].succ.add(self._exc_target())
            return set()
        if isinstance(stmt, (ast.Break, ast.Continue)):
            nid = self._stmt_node(stmt, preds)
            if self.loop_stack:
                breaks, header = self.loop_stack[-1]
                if isinstance(stmt, ast.Break):
                    breaks.add(nid)
                else:
                    cfg.nodes[nid].succ.add(header)
            return set()
        if isinstance(stmt, ast.If):
            nid = self._stmt_node(stmt, preds)
            then = self.visit_body(stmt.body, {nid})
            if stmt.orelse:
                other = self.visit_body(stmt.orelse, {nid})
                return then | other
            return then | {nid}
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            nid = self._stmt_node(stmt, preds)
            breaks: set[int] = set()
            self.loop_stack.append((breaks, nid))
            body_exit = self.visit_body(stmt.body, {nid})
            self.loop_stack.pop()
            self._link(body_exit, nid)  # back edge
            tail = {nid} | breaks
            if stmt.orelse:
                tail = self.visit_body(stmt.orelse, {nid}) | breaks
            return tail
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            nid = self._stmt_node(stmt, preds)
            return self.visit_body(stmt.body, {nid})
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._visit_try(stmt, preds)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested definitions are opaque statements (no inlined body).
            nid = cfg._add(stmt, "stmt")
            cfg._stmt_ids[id(stmt)] = nid
            self._link(preds, nid)
            return {nid}
        return {self._stmt_node(stmt, preds)}

    def _visit_try(self, stmt: ast.Try, preds: set[int]) -> set[int]:
        cfg = self.cfg
        dispatch = cfg._add(None, "join")  # exception landing for the body
        self.exc_stack.append(dispatch)
        body_exit = self.visit_body(stmt.body, preds)
        self.exc_stack.pop()
        if stmt.orelse:
            body_exit = self.visit_body(stmt.orelse, body_exit)

        caught_all = any(_is_catch_all(h) for h in stmt.handlers)
        handler_exit: set[int] = set()
        for handler in stmt.handlers:
            handler_exit |= self.visit_body(handler.body, {dispatch})

        if stmt.finalbody:
            fin_entry = cfg._add(None, "join")
            inflow = body_exit | handler_exit
            self._link(inflow, fin_entry)
            escaped = bool(stmt.handlers) and not caught_all
            if not stmt.handlers or escaped:
                # Uncaught exceptions still run the finally suite.
                cfg.nodes[dispatch].succ.add(fin_entry)
            fin_exit = self.visit_body(stmt.finalbody, {fin_entry})
            if not stmt.handlers or escaped:
                # After the finally, an uncaught exception propagates.
                self._link(fin_exit, self._exc_target())
            return fin_exit
        if stmt.handlers and not caught_all:
            cfg.nodes[dispatch].succ.add(self._exc_target())
        if not stmt.handlers:
            cfg.nodes[dispatch].succ.add(self._exc_target())
        return body_exit | handler_exit


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the CFG of one function definition's body."""
    builder = _Builder()
    tail = builder.visit_body(fn.body, {builder.cfg.entry})
    builder._link(tail, builder.cfg.exit_id)
    return builder.cfg
