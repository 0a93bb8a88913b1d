"""ASYNC001–003: asyncio hazards in runtime/ and mempool/ coroutines.

The TCP runtime multiplexes every node of a cluster onto one asyncio loop;
a single blocking call stalls all of them at once, which manifests as
heartbeat timeouts and spurious reliable-link reconnects rather than a
clean error. Production DAG-BFT implementations guard against exactly this
class of hazard with linters (Bullshark ships clippy rules for it); this is
the Python equivalent.

ASYNC002 targets the *lost update*: coroutines only interleave at ``await``
points, so ``self.x`` state read before an await and written after it (from
the stale read) is exactly the shape behind PR 6's reborn-peer cursor bug.
ASYNC003 targets *silent task death*: a ``create_task`` whose result is
neither consumed nor given a done-callback swallows any exception the task
raises until (at best) shutdown-time cleanup awaits it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.names import call_origin
from repro.lint.registry import Rule, register

#: Call origins that block the event loop. ``open`` covers synchronous file
#: I/O; the socket constructors cover synchronous networking (a raw
#: ``socket.socket`` in a coroutine is either blocking or belongs behind
#: ``loop.sock_*`` helpers, both worth flagging for review).
BLOCKING_ORIGINS = frozenset(
    {
        "time.sleep",
        "open",
        "input",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.getoutput",
        "subprocess.getstatusoutput",
        "os.system",
        "os.popen",
        "os.waitpid",
        "socket.socket",
        "socket.create_connection",
        "socket.create_server",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
    }
)


@register
class BlockingInAsyncRule(Rule):
    """Flags blocking calls lexically inside coroutine bodies.

    Nested synchronous ``def``s are skipped: a blocking call there is only
    a hazard if the closure runs on the loop, which is not statically
    decidable (it may be handed to ``run_in_executor``).
    """

    code = "ASYNC001"
    summary = (
        "blocking call (time.sleep, sync socket/file I/O, subprocess) "
        "inside an async def; use the asyncio equivalent"
    )
    packages = frozenset({"runtime", "mempool"})

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        for statement in node.body:
            self._scan(statement)
        # Do not generic_visit: nested async defs are reached by _scan,
        # nested sync defs are deliberately skipped.

    def _scan(self, node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef):
            return  # sync closure: may legitimately run in an executor
        if isinstance(node, ast.AsyncFunctionDef):
            self.visit_AsyncFunctionDef(node)
            return
        if isinstance(node, ast.Call):
            origin = call_origin(node, self.context.imports)
            if origin in BLOCKING_ORIGINS:
                self.report(
                    node,
                    f"`{origin}` blocks the event loop inside a coroutine; "
                    "every node in the cluster stalls with it",
                )
        for child in ast.iter_child_nodes(node):
            self._scan(child)


# ------------------------------------------------------------------ ASYNC002


@dataclass
class _Pending:
    """A ``self.<attr>`` read whose value may feed a later write."""

    line: int
    crossed: bool  # an await has happened since the read


def _await_in(node: ast.AST | None) -> bool:
    """Await detection that does not descend into nested function defs."""
    if node is None:
        return False
    if isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
        return True
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return False
    return any(_await_in(child) for child in ast.iter_child_nodes(node))


def _self_attr_loads(node: ast.AST | None) -> set[str]:
    """``self.<attr>`` names read anywhere under ``node``.

    Subscript stores (``self._cursor[src] = ...``) surface here too: the
    dict itself is loaded, mutated in place, never rebound — out of
    ASYNC002's lost-update shape.
    """
    attrs: set[str] = set()
    if node is None:
        return attrs
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Name)
            and child.value.id == "self"
        ):
            attrs.add(child.attr)
    return attrs


@register
class AwaitStraddlingWriteRule(Rule):
    """ASYNC002: read-modify-write of ``self.*`` state across an await.

    Within one coroutine frame (nested async defs are separate frames,
    nested sync defs are skipped), a ``self.attr`` read that feeds an
    assignment creates a *pending* read. Any await marks every pending
    read crossed. A later write to the same attribute is flagged when its
    value derives from the stale read — i.e. the write statement does not
    itself re-read the attribute — or when a single statement reads,
    awaits, and writes the attribute (``self.x = await f(self.x)``).

    Scope limits (documented in docs/static-analysis.md): branch bodies
    merge conservatively, loop-carried hazards across iterations and
    container in-place mutation are out of scope.
    """

    code = "ASYNC002"
    summary = (
        "self.* read before an await feeds a write after it; another "
        "coroutine can interleave at the await (lost update)"
    )
    packages = frozenset({"runtime", "mempool"})

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._run_block(node.body, {})
        # Nested defs are handled inside _run_block; no generic_visit.

    def _run_block(
        self, body: list[ast.stmt], pendings: dict[str, _Pending]
    ) -> None:
        for stmt in body:
            self._run_stmt(stmt, pendings)

    def _run_stmt(self, stmt: ast.stmt, pendings: dict[str, _Pending]) -> None:
        if isinstance(stmt, ast.FunctionDef):
            return  # sync closure: runs off-frame
        if isinstance(stmt, ast.AsyncFunctionDef):
            self.visit_AsyncFunctionDef(stmt)  # fresh frame
            return

        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._run_assign(stmt, pendings)
            return

        branches: list[list[ast.stmt]] = []
        headers: list[ast.AST | None] = []
        if isinstance(stmt, ast.If):
            headers = [stmt.test]
            branches = [stmt.body, stmt.orelse]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            headers = [stmt.iter]
            branches = [stmt.body, stmt.orelse]
        elif isinstance(stmt, ast.While):
            headers = [stmt.test]
            branches = [stmt.body, stmt.orelse]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            headers = [item.context_expr for item in stmt.items]
            branches = [stmt.body]
        elif isinstance(stmt, ast.Try):
            branches = [stmt.body] + [h.body for h in stmt.handlers]
            branches += [stmt.orelse, stmt.finalbody]
        elif isinstance(stmt, ast.Match):
            headers = [stmt.subject]
            branches = [case.body for case in stmt.cases]

        if branches:
            if any(_await_in(h) for h in headers) or isinstance(
                stmt, (ast.AsyncFor, ast.AsyncWith)
            ):
                for pending in pendings.values():
                    pending.crossed = True
            # Each branch sees the incoming state; outcomes merge (a read
            # pending or crossed in any branch stays so afterwards).
            merged: dict[str, _Pending] = {}
            for branch in branches:
                local = {
                    attr: _Pending(p.line, p.crossed)
                    for attr, p in pendings.items()
                }
                self._run_block(branch, local)
                for attr, pending in local.items():
                    seen = merged.get(attr)
                    if seen is None:
                        merged[attr] = pending
                    else:
                        seen.crossed = seen.crossed or pending.crossed
            pendings.clear()
            pendings.update(merged)
            return

        # Simple statement: only its awaits matter.
        if _await_in(stmt):
            for pending in pendings.values():
                pending.crossed = True

    def _run_assign(
        self,
        stmt: ast.Assign | ast.AnnAssign | ast.AugAssign,
        pendings: dict[str, _Pending],
    ) -> None:
        value = stmt.value
        has_await = _await_in(stmt)
        value_reads = _self_attr_loads(value)
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [stmt.target]
        written: list[str] = []
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                written.append(target.attr)
        if isinstance(stmt, ast.AugAssign):
            # ``self.x += ...`` reads the target too.
            value_reads |= set(written)

        for attr in written:
            pending = pendings.get(attr)
            if has_await and attr in value_reads:
                self.report(
                    stmt,
                    f"`self.{attr}` is read and written around the await in "
                    "this statement; another coroutine can change it at the "
                    "suspension point (lost update)",
                )
            elif pending is not None and pending.crossed and attr not in value_reads:
                self.report(
                    stmt,
                    f"`self.{attr}` was read at line {pending.line}, an "
                    "await intervened, and this write does not re-read it; "
                    "a coroutine interleaving at the await is lost here",
                )
            pendings.pop(attr, None)

        for attr in sorted(value_reads - set(written)):
            pendings[attr] = _Pending(line=stmt.lineno, crossed=has_await)
        if has_await:
            for pending in pendings.values():
                pending.crossed = True


# ------------------------------------------------------------------ ASYNC003

_SPAWN_NAMES = frozenset({"create_task", "ensure_future"})


@register
class FireAndForgetTaskRule(Rule):
    """ASYNC003: spawned task with no supervision path for its exception.

    A task reference must be (a) awaited at the spawn expression, (b)
    returned to the caller, (c) chained straight into
    ``.add_done_callback``, or (d) bound to a name/attribute that receives
    ``.add_done_callback(...)`` somewhere in the module. Merely *retaining*
    the reference and awaiting it during shutdown is not enough — an
    exception raised mid-run stays invisible until then, which for a link
    pump means a silently dead peer.
    """

    code = "ASYNC003"
    summary = (
        "create_task/ensure_future result lacks a done-callback (or "
        "immediate await/return); a crash in the task is silent"
    )
    packages = frozenset({"runtime", "mempool"})

    def run(self) -> list:  # type: ignore[override]
        tree = self.context.tree
        supervised = self._supervised_bindings(tree)
        for parent in ast.walk(tree):
            for field_name, child in ast.iter_fields(parent):
                for node, ctx in self._spawn_calls(child):
                    self._check_site(parent, field_name, node, ctx, supervised)
        self.violations.sort(key=lambda v: (v.line, v.col))
        return self.violations

    def _spawn_calls(self, child: object) -> list[tuple[ast.Call, object]]:
        nodes = child if isinstance(child, list) else [child]
        found: list[tuple[ast.Call, object]] = []
        for node in nodes:
            if isinstance(node, ast.Call) and self._is_spawn(node):
                found.append((node, node))
        return found

    @staticmethod
    def _is_spawn(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _SPAWN_NAMES
        if isinstance(func, ast.Attribute):
            return func.attr in _SPAWN_NAMES
        return False

    def _supervised_bindings(self, tree: ast.Module) -> set[str]:
        """Unparsed receivers of ``.add_done_callback(...)`` calls."""
        bindings: set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_done_callback"
            ):
                bindings.add(ast.unparse(node.func.value))
        return bindings

    def _check_site(
        self,
        parent: ast.AST,
        field_name: str,
        call: ast.Call,
        node: object,
        supervised: set[str],
    ) -> None:
        # Supervision by position in the parent expression/statement:
        if isinstance(parent, (ast.Await, ast.Return)):
            return  # awaited right here, or the caller owns it
        if (
            isinstance(parent, ast.Attribute)
            and parent.attr == "add_done_callback"
        ):
            return  # chained: loop.create_task(...).add_done_callback(...)
        if isinstance(parent, ast.Assign) and field_name == "value":
            for target in parent.targets:
                if (
                    isinstance(target, (ast.Name, ast.Attribute))
                    and ast.unparse(target) in supervised
                ):
                    return
            self.report(
                call,
                "task bound here never gets an add_done_callback; an "
                "exception in it is swallowed until shutdown",
            )
            return
        if isinstance(parent, ast.AnnAssign) and field_name == "value":
            target = parent.target
            if (
                isinstance(target, (ast.Name, ast.Attribute))
                and ast.unparse(target) in supervised
            ):
                return
            self.report(
                call,
                "task bound here never gets an add_done_callback; an "
                "exception in it is swallowed until shutdown",
            )
            return
        if isinstance(parent, ast.Expr):
            self.report(
                call,
                "task reference is discarded; the task can be garbage-"
                "collected mid-flight and its exception is never observed",
            )
            return
        # Any other position (argument to gather/wait, comprehension
        # element, dict value...) hands the reference somewhere that can
        # supervise it; stay quiet rather than guess.

