#!/usr/bin/env python3
"""Run the determinism lint from a checkout without installing the package.

Equivalent to ``PYTHONPATH=src python -m repro.lint`` with the repo root as
the path root; defaults to linting ``src/``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lint.cli import main  # noqa: E402

if __name__ == "__main__":
    argv = sys.argv[1:]
    if not argv:
        argv = [str(REPO_ROOT / "src"), "--root", str(REPO_ROOT)]
    sys.exit(main(argv))
