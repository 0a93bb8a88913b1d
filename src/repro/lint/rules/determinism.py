"""Determinism rules DET001–DET003.

The reproduction's load-bearing invariant is bit-identical deterministic
metrics: ``python -m repro.perf --check`` fails on any drift from the
committed ``BENCH_sim.json``. These rules statically forbid the constructs
that have historically broken that class of invariant in simulator
codebases: unseeded randomness, wall-clock reads and set-iteration-order
leaks.
"""

from __future__ import annotations

import ast

from repro.lint.names import call_origin, imported_module_names
from repro.lint.registry import Rule, register

#: Wall-clock reads banned inside simulated-time packages (DET002). The
#: simulator's only clock is Scheduler.now; any of these leaking into
#: protocol, sim or perf code makes ``BENCH_sim.json`` machine-dependent.
WALL_CLOCK_ORIGINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Consumers whose output order mirrors their argument's iteration order;
#: feeding a set straight into one of these leaks the order (DET003).
ORDER_ESCAPING_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})


@register
class GlobalRandomRule(Rule):
    """DET001: the global ``random`` module is off-limits outside common/rng.

    All randomness must flow through :func:`repro.common.rng.derive_rng`
    (or an injected seeded ``Rng``), so every stream is derived from the
    run seed and adding a consumer never perturbs existing streams.
    """

    code = "DET001"
    summary = (
        "import/use of the global `random` module outside common/rng; "
        "derive streams via repro.common.rng instead"
    )
    packages = None
    exempt_modules = frozenset({"repro.common.rng"})

    def visit_Module(self, node: ast.Module) -> None:
        statement = imported_module_names(self.context.tree).get("random")
        if statement is not None:
            self.report(
                statement,
                "imports the global `random` module; use "
                "repro.common.rng.derive_rng / the Rng alias instead",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        origin = call_origin(node, self.context.imports)
        if origin is not None and origin.startswith("random."):
            self.report(
                node,
                f"calls `{origin}` (module-global RNG state); "
                "all randomness must come from a seeded generator",
            )
        self.generic_visit(node)


@register
class WallClockRule(Rule):
    """DET002: wall-clock reads inside simulated-time packages.

    ``perf`` is one of them: it sweeps the simulator into exact counts and
    owns no stopwatch (``bench/`` measures time, outside ``src/``).
    """

    code = "DET002"
    summary = (
        "wall-clock read (time.time/monotonic/perf_counter, datetime.now) "
        "in simulated-time code; use the scheduler clock"
    )
    packages = frozenset(
        {"sim", "dag", "core", "broadcast", "baselines", "obs", "perf"}
    )

    def visit_Call(self, node: ast.Call) -> None:
        origin = call_origin(node, self.context.imports)
        if origin in WALL_CLOCK_ORIGINS:
            self.report(
                node,
                f"reads the wall clock via `{origin}`; simulated-time "
                "packages must use Scheduler.now",
            )
        self.generic_visit(node)


#: Augmented assignments that keep a set a set (in-place set algebra).
_SET_AUG_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Nodes that open a new name scope; local dataflow stops at their border.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _is_set_expr(node: ast.expr, imports: dict[str, str]) -> bool:
    """True for expressions that statically construct a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return call_origin(node, imports) in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra (a | b, a - b, ...) where either side is a set expr.
        return _is_set_expr(node.left, imports) or _is_set_expr(node.right, imports)
    return False


def _set_typed_locals(
    scope: ast.FunctionDef | ast.AsyncFunctionDef, imports: dict[str, str]
) -> frozenset[str]:
    """Locals of ``scope`` whose every binding is statically a set expression.

    One function deep of dataflow: plain-name assignments are collected from
    the function's own body (nested scopes have their own locals and are not
    descended into), and a name qualifies only when *all* its bindings are
    set expressions per :func:`_is_set_expr`. Any other way of binding the
    name — parameter, import, ``for`` target, ``with ... as``, ``except
    ... as``, unpacking, ``global``/``nonlocal``, ``del`` — disqualifies it,
    as does augmented assignment outside the in-place set algebra operators
    (``|= &= -= ^=``), which preserve set-ness.
    """
    bindings: dict[str, list[ast.expr]] = {}
    disqualified: set[str] = set()
    for arg in ast.walk(scope.args):
        if isinstance(arg, ast.arg):
            disqualified.add(arg.arg)

    def bind(target: ast.expr, value: ast.expr | None) -> None:
        # value=None means "bound to something we cannot type statically".
        if isinstance(target, ast.Name):
            if value is None:
                disqualified.add(target.id)
            else:
                bindings.setdefault(target.id, []).append(value)
        elif isinstance(target, ast.Starred):
            bind(target.value, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind(element, None)

    def scan(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue  # separate scope; its assignments are not our locals
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    bind(target, child.value)
            elif isinstance(child, ast.AnnAssign):
                bind(child.target, child.value)
            elif isinstance(child, ast.AugAssign):
                if isinstance(child.target, ast.Name) and not isinstance(
                    child.op, _SET_AUG_OPS
                ):
                    disqualified.add(child.target.id)
            elif isinstance(child, ast.NamedExpr):
                bind(child.target, child.value)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                bind(child.target, None)
            elif isinstance(child, ast.withitem):
                if child.optional_vars is not None:
                    bind(child.optional_vars, None)
            elif isinstance(child, ast.ExceptHandler):
                if child.name is not None:
                    disqualified.add(child.name)
            elif isinstance(child, (ast.Global, ast.Nonlocal)):
                disqualified.update(child.names)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    disqualified.add((alias.asname or alias.name).split(".", 1)[0])
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    bind(target, None)
            elif isinstance(child, (ast.MatchAs, ast.MatchStar, ast.MatchMapping)):
                name = getattr(child, "name", None) or getattr(child, "rest", None)
                if name is not None:
                    disqualified.add(name)
            scan(child)

    scan(scope)
    return frozenset(
        name
        for name, values in bindings.items()
        if name not in disqualified
        and all(_is_set_expr(value, imports) for value in values)
    )


@register
class SetOrderEscapeRule(Rule):
    """DET003: set iteration order escaping without a ``sorted()`` wrapper.

    Detected escapes (heuristic — see docs/static-analysis.md):

    * ``for x in {…} / set(…) / frozenset(…)`` and comprehension iterables;
    * ``list(set(…))``, ``tuple(…)``, ``enumerate(…)``, ``iter(…)``;
    * ``sep.join(set(…))``;
    * the same escapes through a *set-typed local*: a function-local name
      whose every assignment is statically a set expression
      (:func:`_set_typed_locals`), so ``s = set(…); for x in s`` is caught
      one binding away, not just at the literal site.

    ``sorted(set(…))`` (or any wrapping call that imposes an order) is the
    fix and is never flagged: the set expression is then an *argument* of
    ``sorted``, not the escaping iterable itself. Membership tests and
    ``len()`` never iterate, so set-typed locals used that way stay clean.
    """

    code = "DET003"
    summary = (
        "iteration over a set/frozenset whose order escapes into state or "
        "output; wrap in sorted()"
    )
    packages = None

    def __init__(self, context) -> None:
        super().__init__(context)
        # Innermost-function frames of set-typed local names; locals of
        # enclosing functions are deliberately not consulted (closure
        # variables are beyond one-function-deep dataflow).
        self._frames: list[frozenset[str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def _visit_scope(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._frames.append(_set_typed_locals(node, self.context.imports))
        self.generic_visit(node)
        self._frames.pop()

    def _check_iterable(self, iterable: ast.expr, what: str) -> None:
        if _is_set_expr(iterable, self.context.imports):
            self.report(
                iterable,
                f"{what} iterates a set in hash order; wrap it in sorted() "
                "so the order is deterministic",
            )
        elif (
            isinstance(iterable, ast.Name)
            and self._frames
            and iterable.id in self._frames[-1]
        ):
            self.report(
                iterable,
                f"{what} iterates set-typed local `{iterable.id}` in hash "
                "order; wrap it in sorted() so the order is deterministic",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter, "for-loop")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter, "async for-loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr, generators: list[ast.comprehension]) -> None:
        for generator in generators:
            self._check_iterable(generator.iter, "comprehension")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        # Dict built from set iteration: insertion order (= hash order)
        # escapes through the dict's own iteration order.
        self._visit_comprehension(node, node.generators)

    def visit_Call(self, node: ast.Call) -> None:
        origin = call_origin(node, self.context.imports)
        if origin in ORDER_ESCAPING_CALLS and node.args:
            self._check_iterable(node.args[0], f"{origin}()")
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
        ):
            self._check_iterable(node.args[0], "str.join()")
        self.generic_visit(node)
