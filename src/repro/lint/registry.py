"""Rule base class, module context, and the rule registry.

Every rule is a small :class:`ast.NodeVisitor` subclass declaring:

* ``code`` — its identifier (``DET001``, ``ASYNC003``, ...);
* ``summary`` — a one-line description used by ``--list-rules`` and docs;
* ``packages`` — the ``repro`` subpackages it applies to (None = all);
* ``exempt_modules`` — dotted module names excluded even inside an
  applicable package (e.g. DET001 exempts ``repro.common.rng``, the one
  place allowed to touch the global ``random`` module).

Registration is declarative via the :func:`register` decorator; the engine
asks :func:`applicable_rules` which rules to run per module, so adding a
rule is one class + one decorator, with no engine changes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.names import collect_imports
from repro.lint.violations import Violation


@dataclass
class ModuleContext:
    """Everything a rule needs to know about the module being linted."""

    path: str  # repo-relative POSIX path
    module: str  # dotted module name, e.g. "repro.sim.network"
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, path: str, module: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            imports=collect_imports(tree),
        )

    @property
    def package(self) -> str:
        """First subpackage under ``repro`` ("" for top-level/foreign modules)."""
        parts = self.module.split(".")
        if len(parts) >= 2 and parts[0] == "repro":
            return parts[1]
        return ""

    def snippet(self, line: int) -> str:
        """The stripped source line at 1-based ``line`` ("" out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class Rule(ast.NodeVisitor):
    """Base class for lint rules.

    Subclasses implement ``visit_*`` methods and call :meth:`report` for
    each hit. The engine instantiates a fresh rule per module, so visitors
    may keep per-module state in ``__init__``/attributes freely.
    """

    code: str = ""
    summary: str = ""
    #: repro subpackages this rule applies to; None means every module.
    packages: frozenset[str] | None = None
    #: dotted module names skipped even when their package matches.
    exempt_modules: frozenset[str] = frozenset()

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        self.violations: list[Violation] = []

    @classmethod
    def applies_to(cls, context: ModuleContext) -> bool:
        if context.module in cls.exempt_modules:
            return False
        if cls.packages is None:
            return True
        return context.package in cls.packages

    def report(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.violations.append(
            Violation(
                code=self.code,
                message=message,
                path=self.context.path,
                line=line,
                col=col,
                snippet=self.context.snippet(line),
            )
        )

    def run(self) -> list[Violation]:
        self.visit(self.context.tree)
        return self.violations


#: All registered rule classes, in registration order.
RULES: list[type[Rule]] = []


def register(rule: type[Rule]) -> type[Rule]:
    """Class decorator adding ``rule`` to the global registry."""
    if not rule.code:
        raise ValueError(f"rule {rule.__name__} has no code")
    if any(existing.code == rule.code for existing in RULES):
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES.append(rule)
    return rule


def applicable_rules(context: ModuleContext) -> Iterable[type[Rule]]:
    """The registered rules that apply to ``context``'s module."""
    return [rule for rule in RULES if rule.applies_to(context)]


def rule_table() -> list[tuple[str, str, str]]:
    """(code, scope, summary) rows for ``--list-rules`` and the docs."""
    rows: list[tuple[str, str, str]] = []
    for rule in sorted(RULES, key=lambda r: r.code):
        scope = "all" if rule.packages is None else ",".join(sorted(rule.packages))
        rows.append((rule.code, scope, rule.summary))
    return rows


def check_module(context: ModuleContext) -> list[Violation]:
    """Run every applicable rule over one module and collect violations."""
    violations: list[Violation] = []
    for rule_cls in applicable_rules(context):
        violations.extend(rule_cls(context).run())
    return violations
