"""Whole-program model and the project-rule (contract) tier.

The per-file rules in :mod:`repro.lint.rules` see one module at a time,
which is the wrong altitude for the contracts DAG-Rider's safety argument
actually rests on: every wire frame the codec can emit must be handled on
some receive path, every WAL record kind written must be replayed on
recovery, the observability docs must describe the events the code emits.
Those span modules (and one markdown file), so they get a second tier:

* :class:`ProjectModel` parses nothing itself — it is assembled from the
  :class:`repro.lint.registry.ModuleContext` objects the engine already
  built, plus lazy access to repo docs — and exposes the cross-module
  indexes the contract rules share (resolved ``isinstance`` dispatch
  sites, ``emit`` event kinds, metric registrations);
* :class:`ProjectRule` subclasses (CONTRACT001…) receive the whole model
  and report :class:`repro.lint.violations.Violation` objects anchored at
  real file/line positions, so baselines and inline suppressions work
  exactly as they do for per-file rules.

Name resolution rides :mod:`repro.lint.names` with two project-level
extensions: a bare name defined as a class in its own module is qualified
(``BrachaMessage`` inside ``repro.broadcast.bracha`` resolves to
``repro.broadcast.bracha.BrachaMessage``, matching what an importer
resolves), and ``self.<attr>`` reads resolve through simple
``self.attr = Name`` aliases (the lazy-import dispatch pattern).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.lint.names import dotted_origin
from repro.lint.registry import ModuleContext
from repro.lint.violations import Violation

#: One evidence/usage location: (repo-relative path, 1-based line).
Site = tuple[str, int]

#: Method names that count as receive-path handlers when a parameter is
#: annotated with a message type (structural dispatch: the envelope layer
#: above already narrowed the type before calling).
HANDLER_NAMES = frozenset({"handle", "on_message"})

#: Packages whose modules never count as emit/metric/dispatch sites: the
#: observability machinery itself and this linter.
_MACHINERY_PREFIXES = ("repro.obs", "repro.lint")

_DOC_ROW = re.compile(r"^\|\s*`(?P<name>[A-Za-z0-9_.]+)`")


def _in_machinery(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _MACHINERY_PREFIXES
    )


@dataclass
class ProjectModel:
    """Everything the contract rules need to know about the whole tree."""

    modules: dict[str, ModuleContext]
    root: Path | None = None
    #: Injected doc sources (path -> text) used by fixture tests; when a
    #: path is absent here the file is read from ``root``.
    docs: dict[str, str] = field(default_factory=dict)
    _doc_cache: dict[str, list[str] | None] = field(default_factory=dict)
    _indexes: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_contexts(
        cls,
        contexts: Iterable[ModuleContext],
        root: Path | None = None,
        docs: dict[str, str] | None = None,
    ) -> "ProjectModel":
        """Build the model from already-parsed modules (repro.* only)."""
        modules = {
            context.module: context
            for context in contexts
            if context.module == "repro" or context.module.startswith("repro.")
        }
        return cls(modules=modules, root=root, docs=dict(docs or {}))

    # ------------------------------------------------------------------ docs

    def doc_lines(self, rel_path: str) -> list[str] | None:
        """The lines of a repo doc (None when the file does not exist)."""
        if rel_path not in self._doc_cache:
            if rel_path in self.docs:
                self._doc_cache[rel_path] = self.docs[rel_path].splitlines()
            elif self.root is not None:
                try:
                    text = (self.root / rel_path).read_text()
                except OSError:
                    self._doc_cache[rel_path] = None
                else:
                    self._doc_cache[rel_path] = text.splitlines()
            else:
                self._doc_cache[rel_path] = None
        return self._doc_cache[rel_path]

    def doc_catalog(self, rel_path: str, heading: str) -> dict[str, int] | None:
        """Backticked first-column names of table rows under ``## heading``.

        Returns name -> 1-based line of its first row, or None when the doc
        itself is missing. Table header rows carry no backticks, so only
        catalog entries match.
        """
        lines = self.doc_lines(rel_path)
        if lines is None:
            return None
        names: dict[str, int] = {}
        in_section = False
        for number, line in enumerate(lines, start=1):
            if line.startswith("## "):
                in_section = line[3:].strip().lower() == heading.lower()
                continue
            if in_section:
                match = _DOC_ROW.match(line)
                if match is not None:
                    names.setdefault(match.group("name"), number)
        return names

    def snippet(self, path: str, line: int) -> str:
        """Stripped source line at ``path:line`` (python module or doc)."""
        for context in self.modules.values():
            if context.path == path:
                return context.snippet(line)
        for rel, lines in self._doc_cache.items():
            if rel == path and lines is not None and 1 <= line <= len(lines):
                return lines[line - 1].strip()
        return ""

    # ------------------------------------------------------ name resolution

    def module_classes(self, context: ModuleContext) -> set[str]:
        """Names of classes defined at any level of ``context``'s module."""
        key = f"classes:{context.module}"
        cached = self._indexes.get(key)
        if cached is None:
            cached = {
                node.name
                for node in ast.walk(context.tree)
                if isinstance(node, ast.ClassDef)
            }
            self._indexes[key] = cached
        return cached  # type: ignore[return-value]

    def self_aliases(self, context: ModuleContext) -> dict[str, str]:
        """``self.attr`` names assigned a resolvable class, per module.

        Covers the lazy-import dispatch idiom ``self._cls = SomeMessage``
        followed by ``isinstance(message, self._cls)``. Conflicting
        assignments drop the alias (unresolvable statically).
        """
        key = f"aliases:{context.module}"
        cached = self._indexes.get(key)
        if cached is None:
            aliases: dict[str, str | None] = {}
            for node in ast.walk(context.tree):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                origin = self.resolve(context, node.value)
                if origin is None:
                    continue
                if target.attr in aliases and aliases[target.attr] != origin:
                    aliases[target.attr] = None  # ambiguous: never resolve
                else:
                    aliases.setdefault(target.attr, origin)
            cached = {k: v for k, v in aliases.items() if v is not None}
            self._indexes[key] = cached
        return cached  # type: ignore[return-value]

    def resolve(self, context: ModuleContext, node: ast.expr) -> str | None:
        """Dotted origin of an expression, module-qualified for local defs."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            alias = self.self_aliases(context).get(node.attr)
            if alias is not None:
                return alias
        origin = dotted_origin(node, context.imports)
        if origin is None:
            return None
        head = origin.split(".", 1)[0]
        if head not in context.imports and head in self.module_classes(context):
            return f"{context.module}.{origin}"
        return origin

    # --------------------------------------------------------------- indexes

    def dispatch_evidence(self) -> dict[str, list[Site]]:
        """Message-type origins with receive-path dispatch, with sites.

        Evidence is an ``isinstance(x, T)`` check, a ``type(x) is T``
        comparison, or a :data:`HANDLER_NAMES` method parameter annotated
        ``T`` — anywhere outside ``repro.codec`` (the codec itself must
        not witness for its own registry).
        """
        cached = self._indexes.get("dispatch")
        if cached is not None:
            return cached  # type: ignore[return-value]
        evidence: dict[str, list[Site]] = {}

        def record(context: ModuleContext, node: ast.expr, line: int) -> None:
            targets = node.elts if isinstance(node, ast.Tuple) else [node]
            for target in targets:
                origin = self.resolve(context, target)
                if origin is not None:
                    evidence.setdefault(origin, []).append((context.path, line))

        for module, context in sorted(self.modules.items()):
            if module.startswith("repro.codec") or _in_machinery(module):
                continue
            for node in ast.walk(context.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    record(context, node.args[1], node.lineno)
                elif (
                    isinstance(node, ast.Compare)
                    and len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                    and isinstance(node.left, ast.Call)
                    and isinstance(node.left.func, ast.Name)
                    and node.left.func.id == "type"
                ):
                    record(context, node.comparators[0], node.lineno)
                elif (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in HANDLER_NAMES
                ):
                    for arg in node.args.args + node.args.kwonlyargs:
                        if arg.annotation is not None:
                            record(context, arg.annotation, node.lineno)
        self._indexes["dispatch"] = evidence
        return evidence

    def emit_kinds(self) -> dict[str, list[Site]]:
        """Literal event kinds emitted anywhere outside the obs machinery.

        Matches ``<anything>.emit(pid, "kind", ...)`` and a process's own
        ``self.emit("kind", ...)`` — the kind is the first string-constant
        positional argument among the first two.
        """
        cached = self._indexes.get("emits")
        if cached is not None:
            return cached  # type: ignore[return-value]
        kinds: dict[str, list[Site]] = {}
        for module, context in sorted(self.modules.items()):
            if _in_machinery(module):
                continue
            for node in ast.walk(context.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                ):
                    continue
                for arg in node.args[:2]:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        kinds.setdefault(arg.value, []).append(
                            (context.path, node.lineno)
                        )
                        break
        self._indexes["emits"] = kinds
        return kinds

    def metric_uses(self) -> dict[str, dict[str, list[Site]]]:
        """Metric registrations: name -> instrument kind -> sites.

        Matches ``<anything>.counter("name")`` / ``gauge`` / ``histogram``
        with a literal first argument, outside the obs machinery (whose
        registry defines those methods rather than using them).
        """
        cached = self._indexes.get("metrics")
        if cached is not None:
            return cached  # type: ignore[return-value]
        uses: dict[str, dict[str, list[Site]]] = {}
        for module, context in sorted(self.modules.items()):
            if _in_machinery(module):
                continue
            for node in ast.walk(context.tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                    and node.args
                ):
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    uses.setdefault(arg.value, {}).setdefault(
                        node.func.attr, []
                    ).append((context.path, node.lineno))
        self._indexes["metrics"] = uses
        return uses


class ProjectRule:
    """Base class for whole-program contract rules.

    Subclasses set ``code``/``summary`` and implement :meth:`check`, calling
    :meth:`report` per hit. A rule whose anchor modules are absent from the
    model must return no violations (so partial lint invocations and
    fixture trees stay quiet rather than reporting everything as missing).
    """

    code: str = ""
    summary: str = ""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.violations: list[Violation] = []

    def report(self, path: str, line: int, message: str) -> None:
        self.violations.append(
            Violation(
                code=self.code,
                message=message,
                path=path,
                line=line,
                col=0,
                snippet=self.model.snippet(path, line),
            )
        )

    def check(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def run(self) -> list[Violation]:
        self.check()
        return self.violations


#: All registered project-rule classes, in registration order.
PROJECT_RULES: list[type[ProjectRule]] = []


def register_project(rule: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding ``rule`` to the project-tier registry."""
    if not rule.code:
        raise ValueError(f"project rule {rule.__name__} has no code")
    if any(existing.code == rule.code for existing in PROJECT_RULES):
        raise ValueError(f"duplicate project rule code {rule.code}")
    PROJECT_RULES.append(rule)
    return rule


def check_project(
    model: ProjectModel,
    rule_filter: Callable[[type[ProjectRule]], bool] | None = None,
) -> list[Violation]:
    """Run every project rule over ``model`` and collect violations."""
    violations: list[Violation] = []
    for rule_cls in PROJECT_RULES:
        if rule_filter is not None and not rule_filter(rule_cls):
            continue
        violations.extend(rule_cls(model).run())
    return violations


def project_rule_table() -> list[tuple[str, str, str]]:
    """(code, scope, summary) rows for ``--list-rules`` and the docs."""
    return [
        (rule.code, "project", rule.summary)
        for rule in sorted(PROJECT_RULES, key=lambda r: r.code)
    ]


def lint_project(
    sources: dict[str, str], docs: dict[str, str] | None = None
) -> list[Violation]:
    """Run the project tier over an in-memory tree. Test-friendly.

    ``sources`` maps dotted module names (``repro.codec.registry``) to
    source text; paths are derived (``src/repro/codec/registry.py``).
    Inline suppression comments are honoured exactly as the engine does,
    so fixture tests can exercise all three outcomes per rule.
    """
    # Importing the rules package registers the project rules (and the
    # per-file ones) as a side effect, exactly like the engine does.
    import repro.lint.rules  # noqa: F401
    from repro.lint.suppress import is_suppressed, parse_suppressions

    contexts = []
    suppressions_by_path: dict[str, dict[int, set[str]]] = {}
    for module, source in sources.items():
        path = "src/" + module.replace(".", "/") + ".py"
        context = ModuleContext.from_source(path, module, source)
        contexts.append(context)
        suppressions_by_path[path] = parse_suppressions(context.lines)
    model = ProjectModel.from_contexts(contexts, root=None, docs=docs or {})
    active = [
        violation
        for violation in check_project(model)
        if not is_suppressed(
            violation, suppressions_by_path.get(violation.path, {})
        )
    ]
    return sorted(active, key=lambda v: (v.path, v.line, v.code))
