#!/usr/bin/env bash
# Regenerate the full paper-versus-measured record.
#
# Usage: scripts/reproduce.sh [quick]
#   quick — tests only (a few minutes); otherwise tests + every
#           experiment (a few more minutes; Table 1's time rows dominate).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== installing (editable) =="
python setup.py develop >/dev/null

echo "== test suite =="
python -m pytest tests/ -q

if [ "${1:-}" = "quick" ]; then
    echo "quick mode: skipping experiments"
    exit 0
fi

echo "== the paper's experiments (reproduced tables print in the summary) =="
python -m pytest experiments/ -q

echo
echo "Compare the printed tables against EXPERIMENTS.md — same seeds,"
echo "so the numbers should match exactly."
