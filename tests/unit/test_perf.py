"""Unit coverage for the perf layer: cells, documents, the equality gate."""

import ast
import json
from pathlib import Path

import pytest

import repro.perf
from repro.perf.cells import SUITES, batch_nlogn, smoke_cells, suite_cells, table1_cells
from repro.perf.sweep import SCHEMA_VERSION, check_document, dumps_document, run_sweep

REPO_ROOT = Path(__file__).resolve().parents[2]


def document(bits=100, commits=8, events=50, suite="smoke"):
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "cells": {
            "cell-a": {
                "params": {"n": 4, "seed": 1},
                "metrics": {
                    "events": events,
                    "total_bits": bits,
                    "commits": commits,
                },
            }
        },
        "totals": {"cells": 1, "events": events},
    }


class TestCells:
    def test_suites_registered(self):
        assert set(SUITES) == {"table1", "table1-large", "all", "smoke"}

    def test_table1_large_grid_shape(self):
        cells = suite_cells("table1-large")
        assert {cell.n for cell in cells} == {13, 25, 50, 100}
        assert {cell.broadcast for cell in cells} == {"bracha", "gossip", "avid"}
        names = [cell.name for cell in cells]
        assert len(set(names)) == len(names)
        crash = [cell for cell in cells if cell.fault == "crash_restart"]
        assert len(crash) == 4
        assert all(cell.name.endswith("-crash") for cell in crash)
        assert all(cell.fault is None for cell in table1_cells())
        # Budgets scale: wave targets shrink and event budgets grow with n.
        by_n = {cell.n: cell for cell in cells if cell.fault is None}
        assert by_n[100].wave_target <= by_n[25].wave_target
        assert by_n[100].max_events > by_n[25].max_events

    def test_all_suite_unions_grids(self):
        names = [cell.name for cell in suite_cells("all")]
        assert len(set(names)) == len(names)
        table1 = {cell.name for cell in table1_cells()}
        large = {cell.name for cell in suite_cells("table1-large")}
        assert set(names) == table1 | large

    def test_table1_grid_shape(self):
        cells = table1_cells()
        assert len(cells) == 12
        assert {cell.broadcast for cell in cells} == {"bracha", "gossip", "avid"}
        assert {cell.n for cell in cells} == {4, 7, 10, 13}
        names = [cell.name for cell in cells]
        assert len(set(names)) == len(names)

    def test_seeds_distinct_and_deterministic(self):
        seeds = {cell.name: cell.seed for cell in table1_cells(base_seed=1)}
        again = {cell.name: cell.seed for cell in table1_cells(base_seed=1)}
        assert seeds == again
        assert len(set(seeds.values())) == len(seeds)
        other = {cell.name: cell.seed for cell in table1_cells(base_seed=2)}
        assert all(other[name] != seed for name, seed in seeds.items())

    def test_batch_prescriptions(self):
        assert batch_nlogn(4) == 8
        for cell in smoke_cells():
            assert cell.batch_size >= 1
        with pytest.raises(KeyError):
            suite_cells("nope")


class TestSweepDocument:
    def test_duplicate_cell_names_rejected(self):
        cells = smoke_cells()
        with pytest.raises(ValueError):
            run_sweep([cells[0], cells[0]], suite="smoke", jobs=1)

    def test_serialisation_is_canonical(self):
        # Key order never changes the bytes on disk.
        reordered = json.loads(json.dumps(document(), sort_keys=True))
        assert dumps_document(reordered) == dumps_document(document())
        assert dumps_document(document()).endswith("}\n")


class TestCommittedBaseline:
    """``BENCH_sim.json`` against the declared grid; runs no simulation."""

    def test_cells_and_params_are_the_all_suite(self):
        baseline = json.loads((REPO_ROOT / "BENCH_sim.json").read_text("utf-8"))
        assert baseline["schema_version"] == SCHEMA_VERSION
        assert baseline["suite"] == "all"
        cells = suite_cells("all")
        assert sorted(baseline["cells"]) == sorted(cell.name for cell in cells)
        for cell in cells:
            assert baseline["cells"][cell.name]["params"] == cell.params()
        assert baseline["totals"]["cells"] == len(cells)

    def test_file_is_its_own_serialisation_with_counts_only(self):
        text = (REPO_ROOT / "BENCH_sim.json").read_text("utf-8")
        baseline = json.loads(text)
        assert dumps_document(baseline) == text
        assert set(baseline) == {"schema_version", "suite", "cells", "totals"}
        assert set(baseline["totals"]) == {"cells", "events"}
        for cell in baseline["cells"].values():
            assert set(cell) == {"params", "metrics"}


class TestNoStopwatch:
    def test_perf_imports_no_clock_profiler_or_environment(self):
        banned = {"time", "resource", "tracemalloc", "cProfile", "pstats", "gc"}
        for path in sorted(Path(repro.perf.__file__).parent.glob("*.py")):
            source = path.read_text("utf-8")
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Import):
                    imported = {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    imported = {(node.module or "").split(".")[0]}
                else:
                    continue
                assert not imported & banned, (path.name, imported & banned)
            assert "environ" not in source and "getenv" not in source, path.name


class TestCompare:
    def test_identical_documents_pass(self):
        assert check_document(document(), document()) == []

    def test_metric_drift_names_cell_and_key(self):
        errors = check_document(document(bits=100), document(bits=200))
        assert errors == ["cell-a: metrics.total_bits: baseline 100 != 200"]

    def test_param_drift_and_one_sided_keys_are_differences(self):
        new = document()
        new["cells"]["cell-a"]["params"]["seed"] = 2
        del new["cells"]["cell-a"]["metrics"]["commits"]
        assert check_document(document(), new) == [
            "cell-a: params.seed: baseline 1 != 2",
            "cell-a: metrics.commits: baseline 8 != None",
        ]

    def test_only_swept_cells_are_compared(self):
        baseline = document()
        baseline["cells"]["cell-b"] = baseline["cells"]["cell-a"]
        assert check_document(baseline, document()) == []
        swept = document()
        swept["cells"]["cell-c"] = swept["cells"]["cell-a"]
        assert check_document(baseline, swept) == ["cell-c: not in the baseline"]

    def test_schema_mismatch_fails(self):
        new = document()
        new["schema_version"] = SCHEMA_VERSION + 1
        assert len(check_document(document(), new)) == 1
