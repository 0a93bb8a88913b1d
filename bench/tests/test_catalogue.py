"""``BENCHMARK.json`` and ``bench/workloads.py`` say the same thing."""

import json
from pathlib import Path

from bench.workloads import END_TO_END, PER_LAYER, WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text()
)


def test_workloads_match() -> None:
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])


def test_metrics_match() -> None:
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert any(m.name == "setup_s" and m.unit == "s" for m in END_TO_END)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
