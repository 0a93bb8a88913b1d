"""File discovery and per-module orchestration.

The engine walks the given paths, parses each ``.py`` file once and runs
every applicable rule (see :mod:`repro.lint.registry`). All ordering is
deterministic — paths are sorted, violations are sorted by position — so
the linter obeys its own rules.
"""

from __future__ import annotations

import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

# Importing the rules package populates the rule registry as a side effect.
import repro.lint.rules  # noqa: F401
from repro.lint.registry import ModuleContext, check_module
from repro.lint.violations import Violation, sort_key

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass
class LintResult:
    """Outcome of one engine run over a set of paths."""

    files_checked: int = 0
    violations: list[Violation] = field(default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    #: Per top-level package of ``repro`` ("." = its own modules): files,
    #: physical lines, code lines (no blanks/comments/docstrings). A trend
    #: for the CI ``lint-report`` artifact to record, not a gate.
    loc: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors


_STATEMENT_BREAKS = frozenset({tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT})
_NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.ENDMARKER})


def code_lines(source: str) -> int:
    """Lines of ``source`` carrying code: not blank, comment or docstring.

    A docstring is any string that is a statement of its own — the token
    right after a line break or an indent.
    """
    lines: set[int] = set()
    at_statement_start = True
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _STATEMENT_BREAKS:
            at_statement_start = True
        elif token.type not in _NOT_CODE:
            if not (at_statement_start and token.type == tokenize.STRING):
                lines.update(range(token.start[0], token.end[0] + 1))
            at_statement_start = False
    return len(lines)


def discover_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    found: set[Path] = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                found.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    found.add(candidate)
    return sorted(found)


def package_parts(path: Path) -> tuple[str, ...] | None:
    """The parts of ``path`` below its innermost ``repro`` directory.

    None when no directory on the path is named ``repro``. Innermost, so a
    checkout that is itself called ``repro`` still anchors at the package:
    ``/x/repro/src/repro/dag/store.py`` gives ``("dag", "store.py")``.
    """
    directories = path.parts[:-1]
    if "repro" not in directories:
        return None
    anchor = len(directories) - directories[::-1].index("repro")
    return path.parts[anchor:]


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    Files outside the package (scripts, tests) get their stem, which leaves
    ``ModuleContext.package`` empty so only all-package rules apply.
    """
    inside = package_parts(path)
    parts = [path.stem] if inside is None else ["repro", *inside[:-1], path.stem]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def relative_posix(path: Path, root: Path) -> str:
    """Repo-root-relative POSIX path (reports must not depend on cwd)."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_source(
    source: str, *, path: str = "<snippet>", module: str = "snippet"
) -> list[Violation]:
    """Lint one source string, violations in position order. Test-friendly."""
    context = ModuleContext.from_source(path, module, source)
    return sorted(check_module(context), key=sort_key)


def run(paths: list[Path], *, root: Path) -> LintResult:
    """Lint every file under ``paths``."""
    result = LintResult()
    for file_path in discover_files(paths):
        rel = relative_posix(file_path, root)
        try:
            source = file_path.read_text()
            context = ModuleContext.from_source(rel, module_name_for(file_path), source)
        except (OSError, SyntaxError, ValueError) as exc:
            result.parse_errors.append((rel, str(exc)))
            continue
        result.files_checked += 1
        inside = package_parts(file_path)
        if inside is not None:
            size = result.loc.setdefault(
                inside[0] if len(inside) > 1 else ".",
                {"files": 0, "lines": 0, "code": 0},
            )
            size["files"] += 1
            size["lines"] += len(context.lines)
            size["code"] += code_lines(source)
        result.violations.extend(check_module(context))
    result.violations.sort(key=sort_key)
    return result
