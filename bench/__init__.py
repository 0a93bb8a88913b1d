"""The benchmark: see bench/README.md. Run it with ``python3 bench/run.py``."""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class BenchFailure(Exception):
    """A correctness check failed, or the program could not be run: the
    benchmark exits non-zero and produces no numbers."""


def child_env() -> dict[str, str]:
    """Environment for ``python -m bench.<child>``: ``src/`` on the path."""
    env = dict(os.environ)
    inherited = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *inherited])
    return env
