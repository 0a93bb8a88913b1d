"""Command-line front end: ``python -m repro.lint``.

Exit codes (CI contract):

* ``0`` — no violations;
* ``1`` — at least one violation or unparsable file;
* ``2`` — usage error (a path that does not exist).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.engine import LintResult, run
from repro.lint.registry import rule_table


def _format_text(result: LintResult) -> str:
    lines = [f"{path}: PARSE error: {error}" for path, error in result.parse_errors]
    lines += [
        f"{v.path}:{v.line}:{v.col + 1}: {v.code} {v.message}"
        for v in result.violations
    ]
    lines.append(
        f"{result.files_checked} files checked: "
        f"{len(result.violations)} violations"
        + (f", {len(result.parse_errors)} unparsable" if result.parse_errors else "")
    )
    return "\n".join(lines)


def _format_json(result: LintResult) -> str:
    document = {
        "files_checked": result.files_checked,
        "violations": [v.to_dict() for v in result.violations],
        "parse_errors": [
            {"path": path, "error": error} for path, error in result.parse_errors
        ],
        "loc": {package: result.loc[package] for package in sorted(result.loc)},
        "ok": result.ok,
    }
    return json.dumps(document, indent=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Determinism lint for the DAG-Rider reproduction: custom AST "
            "rules guarding the bit-identical-metrics invariant."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path("."),
        help="directory paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        # Importing the engine imported the rules package, which registered
        # every rule.
        for code, scope, summary in rule_table():
            print(f"{code:12s} [{scope}] {summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    result = run(paths, root=args.root)
    if args.fmt == "json":
        print(_format_json(result))
    else:
        print(_format_text(result))
    return 0 if result.ok else 1
