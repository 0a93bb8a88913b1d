"""Sweep a grid of cells into one document, and check it against a baseline.

Cells are embarrassingly parallel — each replays a fully seeded simulation —
so the sweep ships them to a ``ProcessPoolExecutor`` and reassembles results
in declaration order. The document holds exact counts only, so it is a pure
function of the source tree, the suite and the base seed: serial or
parallel, on any machine, it serialises to the same bytes, and the gate is
plain equality.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

from repro.perf.cells import BenchCell
from repro.perf.runner import run_cell

#: Bump on any change to the document layout or metric definitions
#: (history in docs/benchmarks.md).
SCHEMA_VERSION = 4


def run_sweep(cells: list[BenchCell], suite: str, jobs: int | None = None) -> dict:
    """Run every cell and merge results into a ``BENCH_sim.json`` document.

    Args:
        cells: The grid; cell names must be unique.
        suite: Suite label recorded in the document.
        jobs: Worker processes; ``None`` uses the CPU count, ``1`` (or a
            single cell) runs serially in-process.
    """
    names = [cell.name for cell in cells]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate cell names in sweep: {names}")
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))  # respects container quotas
        except AttributeError:  # pragma: no cover - non-Linux fallback
            jobs = os.cpu_count() or 1
    if jobs <= 1 or len(cells) <= 1:
        results = [run_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            results = list(pool.map(run_cell, cells))
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "cells": dict(zip(names, results)),
        "totals": {
            "cells": len(cells),
            "events": sum(result["metrics"]["events"] for result in results),
        },
    }


def dumps_document(document: dict) -> str:
    """``document`` as stable, human-diffable JSON — the bytes on disk."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def check_document(baseline: dict, document: dict) -> list[str]:
    """Every way ``document``'s cells differ from ``baseline``'s; empty = pass.

    Each cell the sweep ran must be in the baseline with equal ``params`` and
    ``metrics``; a difference is reported as ``cell: section.key: baseline
    old != new``. Baseline cells the sweep did not run are not looked at
    (``tests/unit/test_perf.py`` pins the committed file's cell set).
    """
    if baseline.get("schema_version") != document["schema_version"]:
        return [
            f"schema_version: baseline {baseline.get('schema_version')} "
            f"!= {document['schema_version']}"
        ]
    errors = []
    for name, cell in document["cells"].items():
        pinned = baseline["cells"].get(name)
        if pinned is None:
            errors.append(f"{name}: not in the baseline")
            continue
        for section in ("params", "metrics"):
            old, new = pinned[section], cell[section]
            errors.extend(
                f"{name}: {section}.{key}: baseline {old.get(key)!r} != {new.get(key)!r}"
                for key in sorted(set(old) | set(new))
                if old.get(key) != new.get(key)
            )
    return errors


def render_summary(document: dict) -> str:
    """A terminal table of the document: one line per cell plus totals."""
    lines = [
        f"{'cell':<22}{'events':>10}{'messages':>10}{'Mbits':>10}"
        f"{'commits':>9}{'txs':>8}{'sim_time':>10}"
    ]
    lines.append("-" * len(lines[0]))
    for name, cell in document["cells"].items():
        metrics = cell["metrics"]
        lines.append(
            f"{name:<22}{metrics['events']:>10,}{metrics['messages']:>10,}"
            f"{metrics['total_bits'] / 1e6:>10.1f}"
            f"{metrics['commits']:>9}{metrics['transactions']:>8}"
            f"{metrics['sim_time']:>10.2f}"
        )
    totals = document["totals"]
    lines.append(f"total: {totals['cells']} cells, {totals['events']:,} events")
    return "\n".join(lines)
