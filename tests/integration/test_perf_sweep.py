"""Sweep harness end-to-end: determinism across serial and parallel runs.

The acceptance contract of the perf layer: the same seeded grid must
serialise to byte-identical documents whether cells run in this process or
are fanned across a ``ProcessPoolExecutor`` — otherwise the committed
``BENCH_sim.json`` baseline could never gate regressions — and the
``python -m repro.perf --check`` gate must pass on the committed file and
name the cell and key when a count differs.
"""

import json
from pathlib import Path

from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
from repro.obs.analyze import wave_stats
from repro.obs.context import Observability
from repro.perf.__main__ import main as perf_main
from repro.perf.cells import smoke_cells
from repro.perf.runner import run_cell, run_cell_traced
from repro.perf.sweep import check_document, dumps_document, run_sweep
from repro.sim.network import Network

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_sim.json"


class TestDeterminism:
    def test_serial_and_parallel_sweeps_identical_payloads(self):
        cells = smoke_cells(base_seed=1)
        serial = dumps_document(run_sweep(cells, suite="smoke", jobs=1))
        again = dumps_document(run_sweep(cells, suite="smoke", jobs=1))
        parallel = dumps_document(run_sweep(cells, suite="smoke", jobs=2))
        # The whole document, byte for byte: nothing in it depends on the
        # host, the clock, or which worker process ran a cell.
        assert serial == again == parallel

    def test_rerun_of_one_cell_is_bit_identical(self):
        cell = smoke_cells(base_seed=1)[0]
        first = run_cell(cell)
        second = run_cell(cell)
        assert first["metrics"] == second["metrics"]
        assert first["params"] == second["params"]

    def test_different_base_seed_changes_metrics(self):
        cells_a = smoke_cells(base_seed=1)[:1]
        cells_b = smoke_cells(base_seed=2)[:1]
        doc_a = run_sweep(cells_a, suite="smoke", jobs=1)
        doc_b = run_sweep(cells_b, suite="smoke", jobs=1)
        # Same grid shape, different seeds: simulated executions diverge.
        assert doc_a["cells"].keys() == doc_b["cells"].keys()
        assert check_document(doc_a, doc_b)

    def test_simulator_bus_is_unbounded_and_baseline_still_matches(self):
        """The runtime bounds the bus it is handed; the simulator never
        does — its traces are exact-compared and stitched whole — so the
        committed baseline's deterministic metrics must not have moved."""
        baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
        for cell in smoke_cells(base_seed=1):
            result, observability, _wire = run_cell_traced(cell)
            bus = observability.bus
            assert isinstance(bus.events, list) and bus.dropped == 0
            assert len(bus) == len(bus.events) > 0
            assert result == baseline["cells"][cell.name]

    def test_broadcast_bit_identical_to_per_send(self, monkeypatch):
        """``Network.broadcast`` changes nothing observable.

        Every committed BENCH_sim.json cell runs ``broadcast``, with its
        batched metrics accounting; this cross-check reruns a full protocol
        deployment with it replaced by n individual sends and demands
        byte-identical traces, metrics, and delivered logs — the batching
        is pure mechanism.
        """

        def per_send_broadcast(network, src, message):
            for dst in network.config.processes:
                network.send(src, dst, message)

        def run():
            observability = Observability()
            deployment = DagRiderDeployment(
                SystemConfig(n=4, seed=3), observability=observability
            )
            assert deployment.run_until_wave(2, max_events=200_000)
            return (
                deployment.metrics.snapshot(),
                deployment.scheduler.now,
                deployment.scheduler.events_processed,
                [
                    [(v.round, v.source) for v in node.ordered]
                    for node in deployment.correct_nodes
                ],
                observability.bus.events,
            )

        batched = run()
        monkeypatch.setattr(Network, "broadcast", per_send_broadcast)
        assert run() == batched


class TestRunner:
    def test_cell_result_shape(self):
        result = run_cell(smoke_cells()[0])
        assert set(result) == {"params", "metrics"}
        metrics = result["metrics"]
        assert metrics["commits"] > 0
        assert metrics["transactions"] > 0
        assert metrics["total_bits"] > 0
        assert metrics["correct_bits"] <= metrics["total_bits"]
        assert metrics["decided_wave"] >= smoke_cells()[0].wave_target

    def test_cell_observability_section(self):
        """The breakdowns ``obs record`` + ``summarize`` print, read off
        what ``run_cell_traced`` returns: the bundle and the wire snapshot."""
        cell = smoke_cells()[0]
        result, observability, wire = run_cell_traced(cell)
        assert result == run_cell(cell)
        # Per-wave commit latency covers every decided wave.
        waves = wave_stats(observability.bus.events)
        assert set(waves) >= set(range(1, cell.wave_target + 1))
        assert all(
            stat.latency is None or stat.latency >= 0.0 for stat in waves.values()
        )
        # The per-tag split partitions the correct-process bits and messages.
        assert wire["bits_by_tag"], "expected at least one message tag"
        assert sum(wire["bits_by_tag"].values()) == result["metrics"]["correct_bits"]
        assert sum(wire["messages_by_tag"].values()) == result["metrics"]["messages"]
        # The correct-pair delay accounting is the wire snapshot's.
        assert wire["delays_recorded"] > 0
        assert 0.0 < wire["mean_correct_delay"] <= wire["max_correct_delay"]


class TestGate:
    """``python -m repro.perf --check``, as CI runs it."""

    def test_smoke_suite_checks_clean_against_committed_baseline(self, capsys):
        assert perf_main(["--suite", "smoke", "--jobs", "1", "--check", str(BASELINE)]) == 0
        assert "OK (3 cells exact)" in capsys.readouterr().out

    def test_edited_metric_exits_1_naming_cell_and_key(self, tmp_path, capsys):
        edited = json.loads(BASELINE.read_text(encoding="utf-8"))
        edited["cells"]["avid-n4-b8"]["metrics"]["commits"] += 1
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edited), encoding="utf-8")
        out = tmp_path / "swept.json"
        code = perf_main(
            ["--suite", "smoke", "--jobs", "1", "--check", str(path), "--out", str(out)]
        )
        assert code == 1
        report = capsys.readouterr().out
        [drift] = [line for line in report.splitlines() if line.startswith("DRIFT")]
        assert "avid-n4-b8: metrics.commits" in drift
        # --out is written whatever --check says, and is itself exact.
        swept = json.loads(out.read_text(encoding="utf-8"))
        assert check_document(json.loads(BASELINE.read_text("utf-8")), swept) == []

    def test_no_cell_selected_exits_2(self, capsys):
        assert perf_main(["--suite", "smoke", "--cells", "^nope$"]) == 2
        assert "no cells selected" in capsys.readouterr().err
