"""The unit of lint output: one :class:`Violation` per rule hit.

Fingerprints identify a violation by *content*, not position: the key is
``path::code::hash(stripped source line)`` plus an occurrence index, so a
grandfathered violation survives unrelated edits that shift line numbers,
while a freshly introduced copy of the same pattern on a *new* line of the
same file still counts as new once it exceeds the baselined occurrence
count (see :mod:`repro.lint.baseline`).
"""

from __future__ import annotations

import hashlib
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
        snippet: The stripped source line, for display and fingerprinting.
    """

    code: str
    message: str
    path: str
    line: int
    col: int
    snippet: str = ""

    def fingerprint(self) -> str:
        """Content-addressed identity used by the baseline (position-free)."""
        digest = hashlib.sha256(self.snippet.encode()).hexdigest()[:12]
        return f"{self.path}::{self.code}::{digest}"

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


def sort_key(violation: Violation) -> tuple[str, int, int, str]:
    """Deterministic ordering for output: path, then position, then code."""
    return (violation.path, violation.line, violation.col, violation.code)
