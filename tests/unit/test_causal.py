"""Unit tests for cross-host causal trace stitching (``repro.obs.causal``).

Synthetic traces pin down the attribution rules (deliveries belong to the
most recent *committed* ``wave_leader`` and are stamped by that wave's
``commit`` event, matching ``repro.core``'s emit order) and the clock-skew
estimator; a recorded 4-node simulator trace then checks the stitcher
covers every delivered vertex end to end.
"""

import json

import pytest

from repro.obs.bus import EventBus
from repro.obs.causal import EDGES, edge_stats, percentile, stitch
from repro.obs.cli import main as obs_main
from repro.obs.export import dumps_trace, loads_trace
from repro.perf.cells import smoke_cells
from repro.perf.runner import run_cell_traced
from repro.runtime.live import merge_traces


class TestPercentile:
    def test_nearest_rank_on_1_to_100(self):
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.90) == 90.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.00) == 100.0

    def test_small_samples(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([3.0, 1.0], 0.50) == 1.0
        assert percentile([3.0, 1.0], 0.90) == 3.0

    def test_edge_stats_summary(self):
        stats = edge_stats([2.0, 1.0, 3.0])
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
        assert stats.p50 == 2.0
        assert stats.max == 3.0
        assert edge_stats([]).count == 0


def _emit_vertex(bus, round_, source, create_at, deliver_at):
    """One vertex's full pipeline on hosts 0 and 1 (single shared clock).

    ``deliver_at[pid]`` is the a_deliver time at each host; the commit
    pipeline events (election, delivery, commit record) follow the emit
    order of ``repro.core``: leader -> a_deliver -> commit.
    """
    bus.emit_at(create_at, source, "vertex_created", round=round_, weak=0)
    for pid, at in deliver_at.items():
        bus.emit_at(at - 0.9, pid, "r_deliver", round=round_, source=source)
        bus.emit_at(at - 0.8, pid, "vertex_added", round=round_, source=source, weak=0)
        bus.emit_at(
            at - 0.2, pid, "wave_leader",
            wave=1, leader=source, support=3, committed=True,
        )
        bus.emit_at(at, pid, "a_deliver", round=round_, source=source)
        bus.emit_at(at + 0.1, pid, "commit", wave=1, leaders=1, delivered=1)


class TestAttribution:
    def test_single_vertex_chain_and_edges(self):
        bus = EventBus()
        _emit_vertex(bus, 1, 0, create_at=0.0, deliver_at={0: 1.0, 1: 1.0})
        report = stitch(bus.events)

        assert report.hosts == [0, 1]
        assert report.delivered_vertices == 1
        assert report.stitched_chains == 1
        assert report.coverage == 1.0
        chain = report.chains[(1, 0)]
        assert chain.created == 0.0
        assert chain.deliver == {0: 1.0, 1: 1.0}
        assert chain.commit == {0: pytest.approx(1.1), 1: pytest.approx(1.1)}
        assert chain.commit_wave == {0: 1, 1: 1}
        assert chain.leader == {0: pytest.approx(0.8), 1: pytest.approx(0.8)}
        for name in EDGES:
            assert report.edges[name].count == 2 if "create" not in name else True
        assert report.edges["leader->deliver"].p50 == pytest.approx(0.2)
        assert report.edges["deliver->commit"].p50 == pytest.approx(0.1)
        assert report.edges["r_deliver->insert"].p50 == pytest.approx(0.1)

    def test_delivery_belongs_to_committed_leader_only(self):
        bus = EventBus()
        # An uncommitted election must not claim the delivery that follows.
        bus.emit_at(0.5, 0, "wave_leader", wave=1, leader=2, support=1, committed=False)
        bus.emit_at(1.0, 0, "a_deliver", round=1, source=2)
        report = stitch(bus.events)
        chain = report.chains[(1, 2)]
        assert chain.deliver == {0: 1.0}
        assert chain.commit == {}
        assert chain.leader == {}
        assert report.stitched_chains == 1  # still a (partial) chain

    def test_batched_waves_commit_in_emit_order(self):
        bus = EventBus()
        # One wave_ready can commit two chained waves: both walks deliver
        # first (leader W1, delivers; leader W2, delivers), then both
        # commit records are emitted. Each delivery must be stamped with
        # its own wave's commit time.
        bus.emit_at(1.0, 0, "wave_leader", wave=1, leader=0, support=3, committed=True)
        bus.emit_at(1.0, 0, "a_deliver", round=1, source=0)
        bus.emit_at(1.0, 0, "wave_leader", wave=2, leader=1, support=3, committed=True)
        bus.emit_at(1.0, 0, "a_deliver", round=5, source=1)
        bus.emit_at(2.0, 0, "commit", wave=1, leaders=1, delivered=1)
        bus.emit_at(3.0, 0, "commit", wave=2, leaders=1, delivered=1)
        report = stitch(bus.events)
        assert report.chains[(1, 0)].commit == {0: 2.0}
        assert report.chains[(1, 0)].commit_wave == {0: 1}
        assert report.chains[(5, 1)].commit == {0: 3.0}
        assert report.chains[(5, 1)].commit_wave == {0: 2}

    def test_duplicate_deliveries_keep_first(self):
        bus = EventBus()
        bus.emit_at(1.0, 0, "a_deliver", round=1, source=0)
        bus.emit_at(9.0, 0, "a_deliver", round=1, source=0)
        report = stitch(bus.events)
        assert report.chains[(1, 0)].deliver == {0: 1.0}


class TestSkewEstimation:
    def test_recovers_known_clock_shift(self):
        # Host 1's clock runs 5 s ahead of host 0's for the same physical
        # instants. The estimator sees only per-host stamps; it should
        # recover the 5 s spread and cancel it from cross-host edges.
        shift = 5.0
        bus = EventBus()
        for index in range(8):
            round_ = index + 1
            base = float(index)
            _emit_vertex(
                bus, round_, 0,
                create_at=base,
                deliver_at={0: base + 1.0, 1: base + 1.0 + shift},
            )
        report = stitch(bus.events, clocks={0: "host-a", 1: "host-b"})
        offsets = report.offsets
        assert offsets[1] - offsets[0] == pytest.approx(shift)
        # Corrected end-to-end latency is the same 1 s on both hosts.
        e2e = report.edges["create->deliver"]
        assert e2e.count == 16
        assert e2e.p50 == pytest.approx(1.0)
        assert e2e.max == pytest.approx(1.0)
        # The raw (uncorrected) spread still shows up in the skew report.
        assert report.skew_spread().p50 == pytest.approx(shift)

    def test_single_clock_trace_estimates_zero(self):
        bus = EventBus()
        for index in range(4):
            _emit_vertex(
                bus, index + 1, 0,
                create_at=float(index),
                deliver_at={0: index + 1.0, 1: index + 1.0},
            )
        report = stitch(bus.events)
        assert all(abs(offset) < 1e-9 for offset in report.offsets.values())

    def test_one_clock_keeps_a_lagging_pids_lag(self):
        """Pid 1 delivers 0.5 s after pids 0 and 2 on the one clock they
        share (a node catching up after a restart): that is lag, not skew.
        Estimated per pid, it read as +0.5 s of offset and was subtracted
        from pid 1's create->deliver edge."""
        bus = EventBus()
        for index in range(8):
            base = float(index)
            _emit_vertex(
                bus, index + 1, 0,
                create_at=base,
                deliver_at={0: base + 1.0, 1: base + 1.5, 2: base + 1.0},
            )
        for clocks in (None, {0: "localhost", 1: "localhost", 2: "localhost"}):
            report = stitch(bus.events, clocks=clocks)
            assert report.offsets == {0: 0.0, 1: 0.0, 2: 0.0}
            e2e = report.edges["create->deliver"]
            assert e2e.count == 24
            assert e2e.p50 == pytest.approx(1.0)
            assert e2e.max == pytest.approx(1.5)

    @pytest.mark.parametrize("hosts, shift", [(("a", "b"), 5.0), (("a", "a"), 0.0)])
    def test_causal_reads_the_clocks_a_merge_names(self, tmp_path, capsys, hosts, shift):
        """The fabric's merge names each pid's host; ``causal`` estimates an
        offset only between pids on different hosts."""
        bus = EventBus()
        for index in range(4):
            base = float(index)
            _emit_vertex(
                bus, index + 1, 0, create_at=base, deliver_at={0: base + 1, 1: base + 6}
            )
        tees = [
            loads_trace(dumps_trace(
                [event for event in bus.events if event.pid == pid],
                meta={"pid": pid, "host": hosts[pid]},
            ))
            for pid in (0, 1)
        ]
        merged = merge_traces(tees)
        assert loads_trace(merged).meta["clocks"] == {"0": hosts[0], "1": hosts[1]}
        path = tmp_path / "merged.trace.jsonl"
        path.write_text(merged)
        assert obs_main(["causal", str(path), "--json"]) == 0
        offsets = json.loads(capsys.readouterr().out)["skew"]["offsets"]
        assert offsets["1"] - offsets["0"] == pytest.approx(shift)


class TestRecordedTrace:
    """The satellite check: stitch a recorded 4-node simulator trace."""

    @pytest.fixture(scope="class")
    def report_and_events(self):
        cell = smoke_cells(base_seed=1)[0]  # bracha-n4-b4
        _, observability, _wire = run_cell_traced(cell)
        events = observability.bus.events
        return stitch(events), events

    def test_covers_every_delivered_vertex(self, report_and_events):
        report, events = report_and_events
        delivered_keys = {
            (event.get("round"), event.get("source"))
            for event in events
            if event.kind == "a_deliver"
        }
        assert delivered_keys
        assert report.coverage == 1.0
        assert report.delivered_vertices == len(delivered_keys)
        assert report.stitched_chains == len(delivered_keys)
        for key in delivered_keys:
            assert report.chains[key].deliver

    def test_every_delivery_is_fully_attributed(self, report_and_events):
        report, _ = report_and_events
        for chain in report.chains.values():
            if not chain.deliver:
                continue
            # Each delivering host also has the committing wave's election
            # and commit record attributed — nothing dangles.
            assert set(chain.commit) == set(chain.deliver)
            assert set(chain.leader) == set(chain.deliver)
            assert set(chain.commit_wave) == set(chain.deliver)

    def test_all_pipeline_edges_have_samples(self, report_and_events):
        report, _ = report_and_events
        for name in EDGES:
            assert report.edges[name].count > 0, name
        # Simulator time never runs backwards along within-host edges.
        for name in ("r_deliver->insert", "insert->leader", "deliver->commit"):
            stats = report.edges[name]
            assert stats.max >= stats.p50 >= 0.0

    def test_single_clock_bounds_offsets_by_delivery_spread(self, report_and_events):
        report, _ = report_and_events
        assert report.hosts == [0, 1, 2, 3]
        # One shared simulated clock: nothing to estimate, so hosts that
        # consistently deliver later keep that delay in their edges.
        assert report.skew_spread().max > 0.0
        assert set(report.offsets.values()) == {0.0}

    def test_report_serializes(self, report_and_events):
        report, _ = report_and_events
        document = json.loads(json.dumps(report.as_dict(), sort_keys=True))
        assert document["schema"] == "repro.obs.causal"
        assert document["coverage"] == 1.0
        text = report.render(limit=5)
        assert "causal stitch" in text
        assert "create->deliver" in text
