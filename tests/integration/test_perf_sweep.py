"""Sweep harness end-to-end: determinism across serial and parallel runs.

The acceptance contract of the perf layer: the same seeded grid must
produce byte-identical deterministic metric payloads whether cells run in
this process or are fanned across a ``ProcessPoolExecutor`` — otherwise the
committed ``BENCH_sim.json`` baseline could never gate regressions.
"""

import json
from pathlib import Path

from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
from repro.obs.context import Observability
from repro.perf.cells import smoke_cells
from repro.perf.compare import compare_documents
from repro.perf.runner import run_cell, run_cell_profiled, run_cell_traced
from repro.perf.sweep import metric_payload, run_sweep
from repro.sim.network import Network


class TestDeterminism:
    def test_serial_and_parallel_sweeps_identical_payloads(self):
        cells = smoke_cells(base_seed=1)
        serial = run_sweep(cells, suite="smoke", jobs=1)
        parallel = run_sweep(cells, suite="smoke", jobs=2)
        assert metric_payload(serial) == metric_payload(parallel)
        # And the exact-metrics half of the regression gate agrees.
        result = compare_documents(serial, parallel, wall_advisory=True)
        assert result.ok, result.render()

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
        assert metric_payload(doc_a) != metric_payload(doc_b)

    def test_simulator_bus_is_unbounded_and_baseline_still_matches(self):
        """The runtime bounds the bus it is handed; the simulator never
        does — its traces are exact-compared and stitched whole — so the
        committed baseline's deterministic metrics must not have moved."""
        baseline = json.loads(
            (Path(__file__).resolve().parents[2] / "BENCH_sim.json").read_text(
                encoding="utf-8"
            )
        )
        for cell in smoke_cells(base_seed=1):
            result, observability = run_cell_traced(cell)
            bus = observability.bus
            assert isinstance(bus.events, list) and bus.dropped == 0
            assert len(bus) == result["observability"]["events"]
            assert result["metrics"] == baseline["cells"][cell.name]["metrics"]

    def test_batched_fanout_bit_identical_to_per_send(self, monkeypatch):
        """The coalesced-delivery fast path changes nothing observable.

        Every committed BENCH_sim.json cell runs the batched broadcast;
        this cross-check reruns a full protocol deployment with
        ``Network.broadcast`` replaced by n individual sends and demands
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
        assert set(result) == {"params", "metrics", "timing", "observability", "memory"}
        assert result["memory"]["max_rss_kb"] > 0
        assert result["memory"]["max_rss_delta_kb"] >= 0
        metrics = result["metrics"]
        assert metrics["commits"] > 0
        assert metrics["transactions"] > 0
        assert metrics["total_bits"] > 0
        assert metrics["correct_bits"] <= metrics["total_bits"]
        assert metrics["decided_wave"] >= smoke_cells()[0].wave_target
        assert result["timing"]["wall_clock_s"] > 0

    def test_cell_observability_section(self):
        cell = smoke_cells()[0]
        result = run_cell(cell)
        section = result["observability"]
        assert section["events"] > 0
        # Per-wave commit latency covers every decided wave.
        waves = {entry["wave"] for entry in section["waves"]}
        assert waves >= set(range(1, cell.wave_target + 1))
        assert all(
            entry["latency"] is None or entry["latency"] >= 0.0
            for entry in section["waves"]
        )
        # Control-overhead breakdown partitions the correct-process bits.
        control = section["control_overhead"]
        assert control, "expected at least one message tag"
        assert sum(tag["bits"] for tag in control.values()) == (
            result["metrics"]["correct_bits"]
        )
        fractions = sum(tag["bits_fraction"] for tag in control.values())
        assert abs(fractions - 1.0) < 1e-9
        # The registry snapshot carries the delay/commit-latency histograms.
        histograms = section["registry"]["histograms"]
        assert "net.delay" in histograms and "node.commit_latency" in histograms

    def test_profiled_run_reports_hotspots_and_tags(self):
        cell = smoke_cells()[0]
        result, text = run_cell_profiled(cell, top=5)
        assert result["metrics"]["commits"] > 0
        assert "cumulative" in text
        assert "per-tag message counts" in text
        assert "msgs" in text
