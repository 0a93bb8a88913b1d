"""CLI contract for the determinism lint.

Every violation fails the run (fixing the code is the only way past a
rule), and the documented exit codes hold: 0 clean, 1 violations or an
unparsable file, 2 usage errors.
"""

import json

import pytest

from repro.lint.cli import main

OLD_VIOLATION = "import random\n"


@pytest.fixture
def tree(tmp_path):
    """A tiny lintable package with one violation."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "old.py").write_text(OLD_VIOLATION)
    (package / "clean.py").write_text("x = 1\n")
    return tmp_path


def run_cli(tree, *extra):
    return main(["pkg", "--root", str(tree), *map(str, extra)])


class TestCliContract:
    def test_violation_exits_1_and_suppression_exits_0(self, tree, monkeypatch, capsys):
        # There is no suppression syntax: the fixed file is what exits 0.
        monkeypatch.chdir(tree)
        assert run_cli(tree) == 1
        (tree / "pkg" / "old.py").write_text(
            "from repro.common.rng import derive_rng\n"
        )
        assert run_cli(tree) == 0
        assert capsys.readouterr().out.endswith("2 files checked: 0 violations\n")

    def test_missing_path_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["no-such-dir"]) == 2
        assert "no such path" in capsys.readouterr().err

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
        assert set(document) == {"files_checked", "violations", "parse_errors", "loc", "ok"}
        assert document["ok"] is False
        assert document["files_checked"] == 2
        [violation] = document["violations"]
        assert violation["code"] == "DET001"
        assert violation["path"].endswith("old.py")
        assert set(violation) == {"code", "message", "path", "line", "col", "snippet"}

    def test_text_output_positions(self, tree, monkeypatch, capsys):
        monkeypatch.chdir(tree)
        run_cli(tree)
        out = capsys.readouterr().out
        assert "old.py:1:1: DET001" in out
        assert out.endswith("2 files checked: 1 violations\n")

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == ["ASYNC003", "DET001", "DET002", "DET003"]


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
                     "--format", "json"]) == 0
        loc = json.loads(capsys.readouterr().out)["loc"]
        on_disk = {p.name for p in package.iterdir() if (p / "__init__.py").exists()}
        assert set(loc) == on_disk | {"."}
        assert list(loc) == sorted(loc)
        for size in loc.values():
            assert set(size) == {"files", "lines", "code"}
            assert 0 < size["code"] < size["lines"]


class TestCheckoutNamedRepro:
    """Module names anchor at the innermost ``repro`` directory of a path."""

    def test_absolute_path_through_a_checkout_named_repro(self, tmp_path, capsys):
        checkout = tmp_path / "repro"
        package = checkout / "src" / "repro"
        for sub in ("common", "sim"):
            (package / sub).mkdir(parents=True)
            (package / sub / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "common" / "rng.py").write_text("import random\n")
        (package / "sim" / "clock.py").write_text(
            "import time\n\ndef now():\n    return time.monotonic()\n"
        )
        assert main([str(checkout / "src"), "--root", str(checkout),
                     "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        found = [(v["path"], v["code"]) for v in document["violations"]]
        assert found == [("src/repro/sim/clock.py", "DET002")]
        assert document["loc"] == {
            ".": {"files": 1, "lines": 0, "code": 0},
            "common": {"files": 2, "lines": 1, "code": 1},
            "sim": {"files": 2, "lines": 4, "code": 3},
        }
