"""End-to-end smoke: short runs print every catalogued metric with its unit."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seconds: float, trace: int, out: Path) -> tuple[str, dict]:
    done = subprocess.run(
        BENCHMARK["command"] + [
            "--workload", workload, "--seed", "11", "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload,seconds", [("sim-gc-n7", 1), ("rt-open-n4", 2)])
def test_every_metric_is_printed_with_its_unit(
    workload: str, seconds: float, tmp_path: Path
) -> None:
    for trace, catalogue in ((0, "end_to_end"), (1, "per_layer")):
        text, result = _run(workload, seconds, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[catalogue]]
        lines = {line.split()[0]: line.split() for line in text.splitlines()[:-1] if line}
        for metric in BENCHMARK[catalogue]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert lines[metric["name"]][-1] == metric["unit"]
    assert (tmp_path / f"trace-{workload}.json").exists()
