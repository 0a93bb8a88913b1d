"""A name has one home: packages re-export nothing.

Every name is imported from the module that defines it, so a package
``__init__.py`` is its docstring and nothing else. Three files keep
statements, each for a reason:

* ``repro/__init__.py`` — the public API README's quickstart imports
  (``test_readme_snippets.py::test_public_api_surface``);
* ``repro/codec/__init__.py`` — the benchmark's tracer rebinds
  ``repro.codec.encode_message`` / ``decode_message`` by name;
* ``repro/lint/rules/__init__.py`` — importing it registers the rules.

Without the re-export layer, importing one runtime module loads only what
that module uses, which is what the two fresh-interpreter checks pin.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
KEEPS_STATEMENTS = {"__init__.py", "codec/__init__.py", "lint/rules/__init__.py"}
DECLARES_ALL = {"__init__.py", "codec/__init__.py"}

#: What a ``tcp-node`` process has no use for: the fabric driver's side of
#: the runtime and the offline trace-analysis tools.
NOT_LOADED_BY_RUNNER = (
    "repro.runtime.live",
    "repro.runtime.cluster",
    "repro.runtime.fabric",
    "repro.obs.analyze",
    "repro.obs.causal",
    "repro.obs.spans",
)


def fresh_interpreter(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        timeout=60,
    )


def relative(path):
    return path.relative_to(SRC).as_posix()


def test_package_inits_hold_only_a_docstring():
    offenders = []
    for path in sorted(SRC.rglob("__init__.py")):
        if relative(path) in KEEPS_STATEMENTS:
            continue
        body = ast.parse(path.read_text(encoding="utf-8")).body
        is_docstring = (
            len(body) == 1
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        )
        if not is_docstring:
            offenders.append(relative(path))
    assert offenders == []


def test_all_is_declared_only_by_the_public_api():
    declaring = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                declaring.add(relative(path))
    assert declaring == DECLARES_ALL


def test_runner_loads_no_driver_or_analysis_module():
    result = fresh_interpreter(
        "import sys\n"
        "import repro.runtime.runner\n"
        f"print(sorted(set({NOT_LOADED_BY_RUNNER!r}) & set(sys.modules)))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_gateway_imports_first():
    result = fresh_interpreter("import repro.mempool.gateway")
    assert result.returncode == 0, result.stderr
