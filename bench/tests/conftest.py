"""Run with ``python -m pytest bench/tests -q`` from the repository root."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
