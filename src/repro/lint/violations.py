"""The unit of lint output: one :class:`Violation` per rule hit."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One rule hit at a source location.

    Attributes:
        code: Rule identifier, e.g. ``DET001``.
        message: Human-readable description of the hit.
        path: Repo-relative POSIX path of the offending file.
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        snippet: The stripped source line, for display.
    """

    code: str
    message: str
    path: str
    line: int
    col: int
    snippet: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "snippet": self.snippet,
        }


def sort_key(violation: Violation) -> tuple[str, int, int, str]:
    """Deterministic ordering for output: path, then position, then code."""
    return (violation.path, violation.line, violation.col, violation.code)
