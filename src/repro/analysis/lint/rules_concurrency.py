"""Concurrency-safety rules (``CONC2xx`` lock discipline, ``CONC3xx``
async-blocking).

The sweep service mixes three execution contexts — the asyncio event
loop, ``asyncio.to_thread`` worker threads running ``SweepService``
methods, and the dedicated sweep-worker thread — all sharing one mutable
job/cell table.  These rules machine-check the two disciplines that keep
that safe:

* **Lock discipline** (``CONC201``–``CONC203``): classes declare which
  attributes a lock guards via a lightweight ``@guarded_by`` convention
  (see below); the analyzer then flags guarded attributes touched outside
  a ``with self.<lock>:`` scope, lexical re-acquisition of a
  non-reentrant lock (including one level of ``self.method()``
  expansion), and inconsistent lock-acquisition order between code paths.
* **Event-loop hygiene** (``CONC301``): blocking calls (``os.fsync``,
  ``time.sleep``, ``subprocess.*``, bare ``open``, non-awaited
  ``.acquire()``) lexically inside ``async def`` bodies, unless routed
  off the loop through ``asyncio.to_thread`` / ``run_in_executor``.

``@guarded_by`` convention — one line per lock in the class docstring::

    @guarded_by("_cond"): _tasks, _jobs, _job_seq
    @guarded_by("_lock"): _fh, _closed

Alternatively (for classes whose source cannot be annotated) a sidecar
entry in :data:`SIDECAR_GUARDS` maps ``class name -> {attr: lock}``.
Two caller conventions are honoured: ``__init__``/``__del__`` run before
(or after) any concurrency and are exempt, and methods whose name ends
in ``_locked`` assert by name that the caller already holds the lock.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Union

from .findings import Finding
from .rules import FileContext, Rule, register

__all__ = ["SIDECAR_GUARDS", "guards_of"]

#: Directories whose code runs under real threads / the event loop.
CONCURRENT_SCOPES: tuple[str, ...] = ("service", "harness")

#: Sidecar guard table for classes whose docstring cannot carry the
#: ``@guarded_by`` annotation: ``class name -> {attribute -> lock attr}``.
#: Empty by default; extended by tests and (if ever needed) vendored code.
SIDECAR_GUARDS: dict[str, dict[str, str]] = {}

_GUARDED_BY_RE = re.compile(
    r"@guarded_by\(\s*[\"'](?P<lock>\w+)[\"']\s*\)\s*:\s*(?P<attrs>[\w, ]+)"
)

#: Methods that run strictly before/after any concurrent access.
_EXEMPT_METHODS = frozenset({"__init__", "__del__", "__post_init__"})

#: Suffix asserting "caller already holds the lock".
_HELD_SUFFIX = "_locked"

_AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def guards_of(cls: ast.ClassDef) -> dict[str, str]:
    """``attribute -> lock attribute`` map declared for ``cls``.

    Docstring ``@guarded_by`` lines and the :data:`SIDECAR_GUARDS` entry
    are merged; the docstring wins on conflicts.
    """
    guards: dict[str, str] = dict(SIDECAR_GUARDS.get(cls.name, {}))
    doc = ast.get_docstring(cls) or ""
    for m in _GUARDED_BY_RE.finditer(doc):
        lock = m.group("lock")
        for raw in m.group("attrs").split(","):
            attr = raw.strip()
            if attr:
                guards[attr] = lock
    return guards


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` for a ``self.X`` attribute node, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _acquired_lock(item: ast.withitem) -> Optional[str]:
    """Lock attribute acquired by one ``with`` item (``with self.X:``)."""
    return _self_attr(item.context_expr)


def _class_methods(cls: ast.ClassDef) -> dict[str, _AnyFunc]:
    return {
        stmt.name: stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _method_acquires(method: _AnyFunc) -> frozenset[str]:
    """Every lock the method acquires lexically anywhere in its body."""
    out: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                lock = _acquired_lock(item)
                if lock is not None:
                    out.add(lock)
    return frozenset(out)


def _called_method(node: ast.Call) -> Optional[str]:
    """``m`` for a ``self.m(...)`` call, else ``None``."""
    return _self_attr(node.func)


class _HeldWalk:
    """Shared recursive walk tracking the lexically-held lock set.

    Subclass hooks fire on guarded-attribute touches, lock acquisitions
    and ``self.method()`` calls; ``held`` is the set of lock attributes
    whose ``with`` scope encloses the node.  Nested function bodies are
    scanned with the held set at their *definition* site — a deliberate
    lexical approximation (closures created under a lock usually run
    under it; a ``# repro: noqa`` escape hatch covers the rest).
    """

    def __init__(self) -> None:
        self.findings: list[tuple[ast.AST, str]] = []

    # Hooks -------------------------------------------------------------
    def on_attr(self, node: ast.AST, attr: str, held: frozenset[str]) -> None:
        pass

    def on_acquire(
        self, node: ast.AST, lock: str, held: frozenset[str]
    ) -> None:
        pass

    def on_call(
        self, node: ast.Call, method: str, held: frozenset[str]
    ) -> None:
        pass

    # Walk --------------------------------------------------------------
    def walk(self, root: _AnyFunc) -> None:
        for stmt in root.body:
            self._visit(stmt, frozenset())

    def _visit(self, node: ast.AST, held: frozenset[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = set(held)
            for item in node.items:
                # The lock expression itself is evaluated unlocked.
                self._visit(item.context_expr, held)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, held)
                lock = _acquired_lock(item)
                if lock is not None:
                    self.on_acquire(item.context_expr, lock, frozenset(inner))
                    inner.add(lock)
            body_held = frozenset(inner)
            for stmt in node.body:
                self._visit(stmt, body_held)
            return
        attr = _self_attr(node)
        if attr is not None:
            self.on_attr(node, attr, held)
        if isinstance(node, ast.Call):
            method = _called_method(node)
            if method is not None:
                self.on_call(node, method, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)


@register
class GuardedAttributeRule(Rule):
    """CONC201: guarded attribute touched outside its lock's scope."""

    code = "CONC201"
    name = "guarded-by"
    description = (
        "read/write of an attribute declared @guarded_by(lock) outside a "
        "`with self.<lock>:` scope; either take the lock or move the "
        "access into a *_locked method called under it"
    )
    scopes = CONCURRENT_SCOPES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guards = guards_of(cls)
            if not guards:
                continue
            for name, method in _class_methods(cls).items():
                if name in _EXEMPT_METHODS or name.endswith(_HELD_SUFFIX):
                    continue
                yield from self._scan(ctx, cls.name, method, guards)

    def _scan(
        self,
        ctx: FileContext,
        cls_name: str,
        method: _AnyFunc,
        guards: dict[str, str],
    ) -> Iterator[Finding]:
        rule = self

        class Walk(_HeldWalk):
            def on_attr(
                self, node: ast.AST, attr: str, held: frozenset[str]
            ) -> None:
                lock = guards.get(attr)
                if lock is not None and lock not in held:
                    self.findings.append(
                        (
                            node,
                            f"self.{attr} accessed in "
                            f"{cls_name}.{method.name} without holding "
                            f"self.{lock} (declared @guarded_by)",
                        )
                    )

        walk = Walk()
        walk.walk(method)
        for node, message in walk.findings:
            yield ctx.finding(node, rule.code, message)


@register
class DoubleAcquireRule(Rule):
    """CONC202: re-acquisition of a held, non-reentrant lock."""

    code = "CONC202"
    name = "double-acquire"
    description = (
        "`with self.X:` nested inside a scope already holding self.X, or "
        "a call to a method that acquires self.X while it is held — "
        "threading.Lock/Condition are not reentrant, this deadlocks"
    )
    scopes = CONCURRENT_SCOPES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = _class_methods(cls)
            acquires = {
                name: _method_acquires(m) for name, m in methods.items()
            }
            for name, method in methods.items():
                yield from self._scan(ctx, cls.name, method, acquires)

    def _scan(
        self,
        ctx: FileContext,
        cls_name: str,
        method: _AnyFunc,
        acquires: dict[str, frozenset[str]],
    ) -> Iterator[Finding]:
        class Walk(_HeldWalk):
            def on_acquire(
                self, node: ast.AST, lock: str, held: frozenset[str]
            ) -> None:
                if lock in held:
                    self.findings.append(
                        (
                            node,
                            f"{cls_name}.{method.name} re-acquires "
                            f"self.{lock} while already holding it",
                        )
                    )

            def on_call(
                self, node: ast.Call, called: str, held: frozenset[str]
            ) -> None:
                overlap = held & acquires.get(called, frozenset())
                for lock in sorted(overlap):
                    self.findings.append(
                        (
                            node,
                            f"{cls_name}.{method.name} calls "
                            f"self.{called}() while holding self.{lock}, "
                            f"which {called}() acquires again",
                        )
                    )

        walk = Walk()
        walk.walk(method)
        for node, message in walk.findings:
            yield ctx.finding(node, self.code, message)


@register
class LockOrderRule(Rule):
    """CONC203: inconsistent lock-acquisition order (deadlock cycle)."""

    code = "CONC203"
    name = "lock-order"
    description = (
        "two code paths acquire the same pair of locks in opposite order "
        "(including one level of self.method() expansion); a consistent "
        "global order is the only cheap deadlock-freedom argument"
    )
    scopes = CONCURRENT_SCOPES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = _class_methods(cls)
            acquires = {
                name: _method_acquires(m) for name, m in methods.items()
            }
            #: (outer, inner) -> first AST node establishing the edge.
            edges: dict[tuple[str, str], ast.AST] = {}

            class Walk(_HeldWalk):
                def on_acquire(
                    self, node: ast.AST, lock: str, held: frozenset[str]
                ) -> None:
                    for outer in held:
                        if outer != lock:
                            edges.setdefault((outer, lock), node)

                def on_call(
                    self, node: ast.Call, called: str, held: frozenset[str]
                ) -> None:
                    for inner in acquires.get(called, frozenset()):
                        for outer in held:
                            if outer != inner:
                                edges.setdefault((outer, inner), node)

            for method in methods.values():
                Walk().walk(method)
            yield from self._report_cycles(ctx, cls.name, edges)

    def _report_cycles(
        self,
        ctx: FileContext,
        cls_name: str,
        edges: dict[tuple[str, str], ast.AST],
    ) -> Iterator[Finding]:
        adjacency: dict[str, set[str]] = {}
        for outer, inner in edges:
            adjacency.setdefault(outer, set()).add(inner)
        reported: set[frozenset[str]] = set()
        for (outer, inner), node in sorted(
            edges.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            if not self._reaches(adjacency, inner, outer):
                continue
            cycle = frozenset({outer, inner})
            if cycle in reported:
                continue
            reported.add(cycle)
            yield ctx.finding(
                node,
                self.code,
                f"{cls_name}: self.{outer} is taken before self.{inner} "
                f"here, but another path takes self.{inner} before "
                f"self.{outer} — pick one global order",
            )

    @staticmethod
    def _reaches(
        adjacency: dict[str, set[str]], start: str, target: str
    ) -> bool:
        seen: set[str] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(sorted(adjacency.get(node, ())))
        return False


#: Fully-qualified callables that block the calling thread.
_BLOCKING_CALLS = frozenset(
    {
        "os.fsync",
        "os.fdatasync",
        "os.sync",
        "time.sleep",
        "urllib.request.urlopen",
        "socket.create_connection",
    }
)

#: Module prefixes whose every call blocks (process spawn + wait).
_BLOCKING_PREFIXES = ("subprocess.",)

#: Off-loop routers: a blocking call inside their argument list is fine.
_OFFLOAD_ATTRS = frozenset({"to_thread", "run_in_executor"})


@register
class AsyncBlockingRule(Rule):
    """CONC301: blocking call lexically inside an ``async def`` body."""

    code = "CONC301"
    name = "async-blocking"
    description = (
        "os.fsync/time.sleep/subprocess.*/open()/non-awaited .acquire() "
        "inside an async def blocks the event loop for every connection; "
        "route it through asyncio.to_thread / run_in_executor"
    )
    scopes = CONCURRENT_SCOPES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                offloaded = self._offloaded_names(ctx, node)
                for stmt in node.body:
                    yield from self._scan(ctx, node.name, stmt, offloaded)

    def _offloaded_names(
        self, ctx: FileContext, func: ast.AsyncFunctionDef
    ) -> frozenset[str]:
        """Names passed to to_thread/run_in_executor anywhere in ``func``
        — nested sync defs with these names run off the loop."""
        names: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and self._is_offload(ctx, node):
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
        return frozenset(names)

    @staticmethod
    def _is_offload(ctx: FileContext, node: ast.Call) -> bool:
        resolved = ctx.resolve_call(node.func)
        if resolved in ("asyncio.to_thread",):
            return True
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _OFFLOAD_ATTRS
        )

    def _scan(
        self,
        ctx: FileContext,
        func_name: str,
        node: ast.AST,
        offloaded: frozenset[str],
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call) and self._is_offload(ctx, node):
            # Blocking work routed off the loop: do not descend.
            return
        if isinstance(node, ast.AsyncFunctionDef):
            return  # scanned on its own walk visit
        if isinstance(node, ast.FunctionDef) and node.name in offloaded:
            return  # nested sync def executed via to_thread/executor
        if isinstance(node, ast.Call):
            message = self._blocking_message(ctx, node)
            if message is not None:
                yield ctx.finding(
                    node,
                    self.code,
                    f"{message} inside async def {func_name}() blocks the "
                    "event loop; use asyncio.to_thread / run_in_executor",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._scan(ctx, func_name, child, offloaded)

    def _blocking_message(
        self, ctx: FileContext, node: ast.Call
    ) -> Optional[str]:
        resolved = ctx.resolve_call(node.func)
        if resolved in _BLOCKING_CALLS:
            return f"blocking call {resolved}()"
        if resolved is not None and resolved.startswith(_BLOCKING_PREFIXES):
            return f"blocking call {resolved}()"
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "bare file I/O (open())"
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "acquire"
            and not isinstance(ctx.parent_of(node), ast.Await)
        ):
            return "non-awaited .acquire()"
        return None
