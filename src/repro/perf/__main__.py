"""``python -m repro.perf`` — sweep a suite; write it, check it, or both.

Examples (from the repo root, ``PYTHONPATH=src``):

    # Regenerate the committed baseline, then review `git diff BENCH_sim.json`:
    python -m repro.perf --suite all --out BENCH_sim.json

    # The CI gate: the smoke cells' counts equal the committed ones.
    python -m repro.perf --suite smoke --check BENCH_sim.json

Exit status: 0 ok, 1 a swept cell differs from ``--check``'s baseline (each
difference is printed as ``cell: section.key``), 2 no cell selected. The
document layout is described in docs/benchmarks.md.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from repro.perf.cells import SUITES, suite_cells
from repro.perf.sweep import check_document, dumps_document, render_summary, run_sweep


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Sweep a suite of seeded simulator cells into exact counts.",
    )
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default="table1",
        help="named grid of cells (default: table1)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="base seed the per-cell seeds derive from (default: 1)",
    )
    parser.add_argument(
        "--jobs", type=int,
        help="worker processes (default: CPU count; 1 = serial)",
    )
    parser.add_argument(
        "--cells", metavar="REGEX",
        help="only run cells whose name matches this regex",
    )
    parser.add_argument("--out", metavar="PATH", help="write the document here")
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="exit 1 unless every swept cell equals its cell in this document",
    )
    args = parser.parse_args(argv)

    cells = suite_cells(args.suite, args.seed)
    if args.cells:
        pattern = re.compile(args.cells)
        cells = [cell for cell in cells if pattern.search(cell.name)]
    if not cells:
        print("no cells selected", file=sys.stderr)
        return 2

    document = run_sweep(cells, suite=args.suite, jobs=args.jobs)
    print(render_summary(document))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dumps_document(document))
        print(f"wrote {args.out}")
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            errors = check_document(json.load(handle), document)
        for error in errors:
            print(f"DRIFT {error}")
        print(
            f"check against {args.check}: "
            + (f"FAILED ({len(errors)} differences)" if errors
               else f"OK ({len(cells)} cells exact)")
        )
        return 1 if errors else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
