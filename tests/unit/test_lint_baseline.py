"""Baseline workflow and CLI contract for the determinism lint.

The workflow under test is the CI one: grandfather pre-existing violations
in ``lint-baseline.json``, fail on anything new, survive line-number drift,
and honour the documented exit codes (0 clean, 1 new violations, 2 usage
errors).
"""

import json

import pytest

from repro.lint.baseline import (
    BaselineError,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.lint.cli import main
from repro.lint.violations import Violation

OLD_VIOLATION = "import random\n"
NEW_VIOLATION = "values = list({1, 2})\n"


@pytest.fixture
def tree(tmp_path):
    """A tiny lintable package with one pre-existing violation."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "old.py").write_text(OLD_VIOLATION)
    (package / "clean.py").write_text("x = 1\n")
    return tmp_path


def run_cli(tree, *extra):
    return main(["pkg", "--root", str(tree), *map(str, extra)])


class TestBaselineWorkflow:
    def test_no_baseline_fails_on_existing_violation(self, tree, monkeypatch):
        monkeypatch.chdir(tree)
        assert run_cli(tree) == 1

    def test_write_then_check_passes(self, tree, monkeypatch):
        monkeypatch.chdir(tree)
        baseline = tree / "lint-baseline.json"
        assert run_cli(tree, "--baseline", baseline, "--write-baseline") == 0
        assert baseline.exists()
        assert run_cli(tree, "--baseline", baseline) == 0

    def test_new_violation_fails_despite_baseline(self, tree, monkeypatch):
        monkeypatch.chdir(tree)
        baseline = tree / "lint-baseline.json"
        run_cli(tree, "--baseline", baseline, "--write-baseline")
        (tree / "pkg" / "fresh.py").write_text(NEW_VIOLATION)
        assert run_cli(tree, "--baseline", baseline) == 1

    def test_second_occurrence_in_same_file_fails(self, tree, monkeypatch):
        # The baseline records *counts*: a second copy of a grandfathered
        # pattern in the same file is new.
        monkeypatch.chdir(tree)
        (tree / "pkg" / "old.py").write_text(NEW_VIOLATION)
        baseline = tree / "lint-baseline.json"
        run_cli(tree, "--baseline", baseline, "--write-baseline")
        assert run_cli(tree, "--baseline", baseline) == 0
        (tree / "pkg" / "old.py").write_text(NEW_VIOLATION + NEW_VIOLATION)
        assert run_cli(tree, "--baseline", baseline) == 1

    def test_baselined_violation_survives_line_shift(self, tree, monkeypatch):
        # Fingerprints hash content, not positions: unrelated edits above a
        # grandfathered hit must not resurrect it.
        monkeypatch.chdir(tree)
        baseline = tree / "lint-baseline.json"
        run_cli(tree, "--baseline", baseline, "--write-baseline")
        (tree / "pkg" / "old.py").write_text(
            "# a new comment block\n# shifting every line down\nx = 0\n"
            + OLD_VIOLATION
        )
        assert run_cli(tree, "--baseline", baseline) == 0

    def test_fixing_the_violation_keeps_passing(self, tree, monkeypatch):
        monkeypatch.chdir(tree)
        baseline = tree / "lint-baseline.json"
        run_cli(tree, "--baseline", baseline, "--write-baseline")
        (tree / "pkg" / "old.py").write_text("x = 1\n")
        assert run_cli(tree, "--baseline", baseline) == 0

    def test_suppressed_violations_not_baselined(self, tree, monkeypatch):
        monkeypatch.chdir(tree)
        (tree / "pkg" / "old.py").write_text(
            "import random  # repro-lint: ignore[DET001] fixture\n"
        )
        baseline = tree / "lint-baseline.json"
        run_cli(tree, "--baseline", baseline, "--write-baseline")
        document = json.loads(baseline.read_text())
        assert document["entries"] == {}


class TestBaselineFile:
    def test_round_trip(self, tmp_path):
        violations = [
            Violation("DET001", "m", "a.py", 1, 0, "import random"),
            Violation("DET001", "m", "a.py", 2, 0, "import random"),
            Violation("DET003", "m", "b.py", 9, 4, "list(set(x))"),
        ]
        path = tmp_path / "baseline.json"
        write_baseline(path, violations)
        counts = load_baseline(path)
        assert sum(counts.values()) == 3
        new, grandfathered = split_by_baseline(violations, counts)
        assert new == [] and len(grandfathered) == 3

    def test_excess_occurrences_are_new(self, tmp_path):
        first = Violation("DET001", "m", "a.py", 1, 0, "import random")
        second = Violation("DET001", "m", "a.py", 5, 0, "import random")
        path = tmp_path / "baseline.json"
        write_baseline(path, [first])
        new, grandfathered = split_by_baseline([first, second], load_baseline(path))
        assert [v.line for v in grandfathered] == [1]
        assert [v.line for v in new] == [5]

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(BaselineError):
            load_baseline(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "content",
        ["not json", '{"version": 99, "entries": {}}', '{"version": 1, "entries": {"k": 0}}'],
    )
    def test_bad_baseline_raises(self, tmp_path, content):
        path = tmp_path / "baseline.json"
        path.write_text(content)
        with pytest.raises(BaselineError):
            load_baseline(path)


class TestCliContract:
    def test_missing_path_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["no-such-dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_bad_baseline_exits_2(self, tree, monkeypatch, capsys):
        monkeypatch.chdir(tree)
        bad = tree / "bad.json"
        bad.write_text("{")
        assert run_cli(tree, "--baseline", bad) == 2

    def test_unparsable_file_exits_1(self, tree, monkeypatch, capsys):
        monkeypatch.chdir(tree)
        (tree / "pkg" / "old.py").write_text("x = 1\n")
        (tree / "pkg" / "broken.py").write_text("def f(:\n")
        assert run_cli(tree) == 1
        assert "PARSE error" in capsys.readouterr().out

    def test_json_output_shape(self, tree, monkeypatch, capsys):
        monkeypatch.chdir(tree)
        assert run_cli(tree, "--format", "json") == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["files_checked"] == 2
        [violation] = document["new"]
        assert violation["code"] == "DET001"
        assert violation["path"].endswith("old.py")
        assert "fingerprint" in violation

    def test_text_output_positions(self, tree, monkeypatch, capsys):
        monkeypatch.chdir(tree)
        run_cli(tree)
        out = capsys.readouterr().out
        assert "old.py:1:1: DET001" in out
        assert "1 new, 0 baselined, 0 suppressed" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "DET004", "ASYNC001", "EXC001"):
            assert code in out


class TestLocSection:
    """``--format json`` reports the size of what it linted, per package."""

    SOURCE = (
        '"""Module docstring.\n'
        "\n"
        'Second paragraph."""\n'
        "\n"
        "# a comment\n"
        "TABLE = (\n"
        '    "a string that is data, not a docstring"\n'
        ")\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    return x  # trailing comment still counts as code\n"
    )

    def test_shape_and_counts(self, tmp_path, monkeypatch, capsys):
        repro = tmp_path / "src" / "repro"
        (repro / "runtime").mkdir(parents=True)
        (repro / "__init__.py").write_text("")
        (repro / "runtime" / "__init__.py").write_text('"""Docstring only."""\n')
        (repro / "runtime" / "thing.py").write_text(self.SOURCE)
        (tmp_path / "src" / "script.py").write_text("x = 1\n")  # not in repro
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--root", str(tmp_path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["loc"] == {
            ".": {"files": 1, "lines": 0, "code": 0},
            "runtime": {"files": 2, "lines": 14, "code": 5},
        }
        assert document["files_checked"] == 4

    def test_real_tree_covers_every_package(self, capsys):
        import repro

        from pathlib import Path

        package = Path(repro.__file__).parent
        assert main([str(package), "--root", str(package.parent.parent),
                     "--format", "json", "--no-project"]) == 0
        loc = json.loads(capsys.readouterr().out)["loc"]
        on_disk = {p.name for p in package.iterdir() if (p / "__init__.py").exists()}
        assert set(loc) == on_disk | {"."}
        assert list(loc) == sorted(loc)
        for size in loc.values():
            assert set(size) == {"files", "lines", "code"}
            assert 0 < size["code"] < size["lines"]
