"""Shared infrastructure for the paper's experiments.

Every file regenerates one table or figure of the paper and asserts its
shape. Reproduced tables are registered with the session-scoped
:func:`report` fixture and printed in the terminal summary, so
``python -m pytest experiments/ -q`` leaves the full paper-versus-measured
record (EXPERIMENTS.md) in its output.
"""

from __future__ import annotations

import pytest

_SECTIONS: list[tuple[str, str]] = []


@pytest.fixture(scope="session")
def report():
    """Register a reproduced table: ``report(title, body_text)``."""

    def add(title: str, body: str) -> None:
        _SECTIONS.append((title, body))

    return add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SECTIONS:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for title, body in _SECTIONS:
        terminalreporter.write_sep("-", title)
        terminalreporter.write_line(body)

