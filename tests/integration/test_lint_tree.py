"""The shipped tree must satisfy its own determinism lint.

This is the acceptance criterion ``python -m repro.lint src/`` exits 0,
pinned as a test so a violation (e.g. a stray ``import random`` or an
unsupervised task) fails tier-1 locally, not just the CI lint job. Runs
the engine in-process against the real repo root.

``TestKeptRules`` holds, per rule, the mutation that only that rule catches:
the reason the rule stays (docs/static-analysis.md "Last real finding per
rule").
"""

from pathlib import Path

from repro.lint.cli import main
from repro.lint.engine import lint_source, run

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


class TestKeptRules:
    def test_det002_catches_a_wall_clock_watchdog_in_the_scheduler(self):
        # An hour-long budget never trips on a fast host, so every test and
        # the count gate pass; on a slow one the counts move.
        source = (REPO_ROOT / "src" / "repro" / "sim" / "scheduler.py").read_text()
        for old, new in (
            ("import math\n", "import math\nimport time\n"),
            (
                "        while True:\n",
                "        deadline = time.monotonic() + 3600.0\n"
                "        while True:\n"
                "            if time.monotonic() > deadline:\n"
                "                return\n",
            ),
        ):
            assert source.count(old) == 1
            source = source.replace(old, new)
        violations = lint_source(source, module="repro.sim.scheduler")
        assert [v.code for v in violations] == ["DET002", "DET002"]
