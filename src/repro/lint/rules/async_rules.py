"""ASYNC003: a spawned asyncio task whose exception nobody observes.

The TCP runtime multiplexes every node of a cluster onto one asyncio loop.
A ``create_task`` whose result is neither consumed nor given a
done-callback swallows any exception the task raises until (at best)
shutdown-time cleanup awaits it: a crashed reader loop looks exactly like
a silent peer. The rule applies to every module: asyncio code lives in
``runtime/``, the ``mempool/`` gateway and the CLI's ``tcp`` entry point.
"""

from __future__ import annotations

import ast

from repro.lint.registry import Rule, register

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
