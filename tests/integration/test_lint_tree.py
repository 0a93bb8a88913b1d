"""The shipped tree must satisfy its own determinism lint.

This is the acceptance criterion ``python -m repro.lint src/`` exits 0,
pinned as a test so a violation (e.g. a stray ``import random`` or a
blocking call in a coroutine) fails tier-1 locally, not just the CI lint
job. Runs the engine in-process against the real repo root.
"""

from pathlib import Path

from repro.lint.cli import main
from repro.lint.engine import run

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestShippedTree:
    def test_src_is_lint_clean(self, capsys):
        exit_code = main([str(REPO_ROOT / "src"), "--root", str(REPO_ROOT)])
        assert exit_code == 0, capsys.readouterr().out

    def test_engine_sees_the_whole_package(self):
        result = run([REPO_ROOT / "src"], root=REPO_ROOT)
        # Every module of the package parses and is checked (the count only
        # grows as the repo does; a collapse here means discovery broke).
        assert result.parse_errors == []
        assert result.files_checked >= 84
