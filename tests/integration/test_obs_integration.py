"""Observability end to end: determinism, fault diffing, runtime traces.

The acceptance contract of the observability layer:

* two same-seed runs of a benchmark cell export *byte-identical* JSONL
  traces (same property class as the ``BENCH_sim.json`` metric gate);
* a clean run diffed against a perturbed run of the same seeded cell
  pinpoints the waves whose commit latency changed;
* a chaos-injected TCP cluster's trace carries the fault and redelivery
  event kinds a clean cluster's trace lacks.
"""

import asyncio

from repro.common.config import SystemConfig
from repro.obs.analyze import diff_traces, wave_stats
from repro.obs.cli import main as obs_main
from repro.obs.context import Observability
from repro.obs.export import dumps_trace, loads_trace
from repro.perf.cells import smoke_cells
from repro.perf.runner import run_cell_traced
from repro.runtime.chaos import ChaosConfig, ChaosTransport
from repro.runtime.cluster import LocalCluster


def _export(cell, slow=None):
    result, observability, wire = run_cell_traced(cell, slow=slow)
    meta = dict(result["params"])
    return dumps_trace(observability.bus.events, meta=meta, metrics={"wire": wire})


class TestSimDeterminism:
    def test_same_seed_traces_byte_identical(self):
        cell = smoke_cells(base_seed=1)[0]
        assert _export(cell) == _export(cell)

    def test_same_seed_diff_is_empty(self):
        cell = smoke_cells(base_seed=1)[0]
        trace_a = loads_trace(_export(cell))
        trace_b = loads_trace(_export(cell))
        diff = diff_traces(trace_a.events, trace_b.events)
        assert diff.identical
        assert diff.empty

    def test_clean_cell_trace_is_the_pipeline_kinds_and_nothing_else(self):
        """Each fact once: a fault-free cell emits the catalog's protocol
        pipeline kinds only — no ``span_begin``/``span_end`` brackets."""
        _result, observability, _wire = run_cell_traced(smoke_cells(base_seed=1)[0])
        assert observability.bus.kinds() == {
            "vertex_created",
            "r_deliver",
            "vertex_added",
            "wave_ready",
            "wave_leader",
            "commit",
            "a_deliver",
        }
        # bracha-n4-b4 emitted 1 144 events while spans bracketed the five
        # pipeline phases (552 of them markers); it is 592 without.
        assert len(observability.bus.events) <= 0.6 * 1144

    def test_different_seed_traces_differ(self):
        cell_a = smoke_cells(base_seed=1)[0]
        cell_b = smoke_cells(base_seed=2)[0]
        assert _export(cell_a) != _export(cell_b)


class TestCleanVsPerturbedDiff:
    def test_slow_process_changes_wave_latency(self):
        cell = smoke_cells(base_seed=1)[0]
        clean = loads_trace(_export(cell))
        slow = loads_trace(_export(cell, slow=(0, 1.5)))
        diff = diff_traces(clean.events, slow.events)
        assert not diff.empty
        # Every decided wave paid sim-time for the slow process.
        changed_waves = {change.wave for change in diff.wave_changes}
        assert changed_waves >= set(range(1, cell.wave_target + 1))
        assert all(
            "latency" in change.changed or "ready" in change.changed
            for change in diff.wave_changes
        )


class TestRuntimeTraces:
    def _run_cluster(self, peers, seed, chaos_config=None, target=8):
        observability = Observability()
        chaos = None
        if chaos_config is not None:
            chaos = ChaosTransport(seed, chaos_config)
        cluster = LocalCluster(
            SystemConfig(n=4, seed=seed),
            peers=peers,
            chaos=chaos,
            observability=observability,
        )
        reached = asyncio.run(
            cluster.run_until(
                lambda: cluster.nodes
                and all(len(node.ordered) >= target for node in cluster.nodes),
                timeout=60.0,
            )
        )
        assert reached
        cluster.check_total_order()
        return cluster

    def test_chaos_trace_reports_fault_kinds_clean_trace_lacks(self, free_peers):
        clean = self._run_cluster(free_peers(4), seed=11).observability
        chaotic = self._run_cluster(
            free_peers(4),
            seed=11,
            chaos_config=ChaosConfig(
                drop_rate=0.3, duplicate_rate=0.05, sever_every=20
            ),
        ).observability
        clean_kinds = clean.bus.kinds()
        chaos_kinds = chaotic.bus.kinds()
        # The protocol pipeline shows up in both.
        assert {"wave_ready", "commit", "a_deliver"} <= clean_kinds
        # Fault-injection and recovery kinds only under chaos.
        assert "chaos_drop" in chaos_kinds - clean_kinds
        assert "link_redelivery" in chaos_kinds - clean_kinds
        # The wall-clock traces differ; a loose tolerance still reports the
        # chaos-only kinds (kind deltas ignore tolerance entirely).
        diff = diff_traces(
            clean.bus.events, chaotic.bus.events, time_tolerance=1e9
        )
        assert "chaos_drop" in diff.kind_deltas
        assert diff.kind_deltas["chaos_drop"][0] == 0  # only in B

    def test_clean_cluster_records_protocol_metrics(self, free_peers):
        cluster = self._run_cluster(free_peers(4), seed=12)
        assert cluster.link_report()["redeliveries"] == 0
        # Wave-ready -> commit is the gap between two events per wave.
        waves = wave_stats(cluster.observability.bus.events)
        assert any(stat.latency is not None for stat in waves.values())
        assert all(stat.latency is None or stat.latency >= 0.0 for stat in waves.values())


class TestCli:
    def test_record_summarize_diff_round_trip(self, tmp_path, capsys):
        clean = tmp_path / "clean.jsonl"
        clean2 = tmp_path / "clean2.jsonl"
        slow = tmp_path / "slow.jsonl"
        assert obs_main(["record", "bracha-n4-b4", "--out", str(clean)]) == 0
        assert obs_main(["record", "bracha-n4-b4", "--out", str(clean2)]) == 0
        assert (
            obs_main(
                ["record", "bracha-n4-b4", "--out", str(slow), "--slow", "0:1.5"]
            )
            == 0
        )
        assert clean.read_bytes() == clean2.read_bytes()

        assert obs_main(["summarize", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "wave_ready" in out and "committers" in out

        # diff(1) conventions: 0 when identical, 1 when differing.
        assert obs_main(["diff", str(clean), str(clean2)]) == 0
        assert obs_main(["diff", str(clean), str(slow)]) == 1
        out = capsys.readouterr().out
        assert "waves with changed commit statistics" in out

    def test_filter_writes_subset(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        commits = tmp_path / "commits.jsonl"
        assert obs_main(["record", "bracha-n4-b4", "--out", str(trace)]) == 0
        assert (
            obs_main(
                ["filter", str(trace), "--kind", "commit", "--out", str(commits)]
            )
            == 0
        )
        filtered = loads_trace(commits.read_text())
        assert filtered.events
        assert {event.kind for event in filtered.events} == {"commit"}

    def test_unreadable_or_malformed_trace_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        assert obs_main(["diff", missing, missing]) == 2
        not_object = tmp_path / "list.jsonl"
        not_object.write_text("[1]\n")
        assert obs_main(["summarize", str(not_object)]) == 2
        assert capsys.readouterr().err.startswith("repro.obs: ")

    def test_unknown_cell_exits_with_error(self):
        import pytest

        with pytest.raises(SystemExit):
            obs_main(["record", "no-such-cell"])
