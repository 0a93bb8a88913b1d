"""Real-socket runtime: unmodified nodes over localhost TCP."""

import asyncio

import pytest

from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
from repro.obs.context import Observability
from repro.runtime import transport
from repro.runtime.cluster import LocalCluster
from repro.runtime.linerpc import LineClient
from repro.runtime.runner import ControlServer


def run_cluster(
    peers, coin_mode="ideal", target=10, n=4, seed=5, timeout=45.0, observability=None
):
    cluster = LocalCluster(
        SystemConfig(n=n, seed=seed),
        peers=peers,
        coin_mode=coin_mode,
        observability=observability,
    )

    async def main():
        return await cluster.run_until(
            lambda: cluster.nodes
            and all(len(node.ordered) >= target for node in cluster.nodes),
            timeout=timeout,
        )

    reached = asyncio.run(main())
    return cluster, reached


class TestTcpRuntime:
    def test_orders_over_real_sockets(self, free_peers):
        cluster, reached = run_cluster(free_peers(4))
        assert reached
        cluster.check_total_order()

    @pytest.mark.parametrize("coin_mode", ["threshold", "piggyback"])
    def test_threshold_coin_over_sockets(self, free_peers, coin_mode):
        """One seed, one leader sequence: the runtime's nodes elect, wave
        by wave, the leaders a simulated run of the same seed elects."""
        cluster, reached = run_cluster(free_peers(4), coin_mode=coin_mode)
        assert reached
        cluster.check_total_order()
        decided = min(node.decided_wave for node in cluster.nodes)
        assert decided >= 1
        sim = DagRiderDeployment(SystemConfig(n=4, seed=5), coin_mode=coin_mode)
        assert sim.run_until_wave(decided)
        waves = range(1, decided + 1)
        expected = [sim.nodes[0].coin.leader_of(w) for w in waves]
        assert None not in expected
        for node in cluster.nodes:
            assert [node.coin.leader_of(w) for w in waves] == expected

    def test_logs_carry_all_sources(self, free_peers):
        cluster, reached = run_cluster(free_peers(4), target=20)
        assert reached
        sources = {e.source for e in cluster.nodes[0].ordered}
        assert sources == {0, 1, 2, 3}

    def test_metrics_account_bits(self, free_peers):
        cluster, reached = run_cluster(free_peers(4))
        assert reached
        assert all(net.metrics.correct_bits_total > 0 for net in cluster.networks)

    def test_bundle_less_cluster_serves_subscribe(self, free_peers, free_port):
        """A cluster built without ``observability=`` makes its own bundle,
        so a control socket over one of its runners answers ``subscribe``
        with a stream header, then the events its bus holds."""
        cluster = LocalCluster(SystemConfig(n=4, seed=5), peers=free_peers(4))
        port = free_port()

        async def main():
            await cluster.start()
            control = ControlServer(cluster.runners[0], "127.0.0.1", port)
            await control.start()
            try:
                while not all(len(node.ordered) >= 2 for node in cluster.nodes):
                    await asyncio.sleep(0.05)
                async with await LineClient.open(("127.0.0.1", port)) as client:
                    header = await client.call({"cmd": "subscribe"})
                    first = await client.recv()
            finally:
                await control.close()
                await cluster.stop()
            return header, first

        header, first = asyncio.run(asyncio.wait_for(main(), 45.0))
        assert header["schema"] == "repro.obs.trace"
        assert header["meta"]["pid"] == 0
        assert {"kind", "pid", "t"} <= set(first)

    def test_event_bus_is_a_window_not_a_lifetime(self, free_peers, monkeypatch):
        window = 400  # a few rounds' worth, so a short run overflows it
        monkeypatch.setattr(transport, "RETAINED_EVENTS", window)
        observability = Observability()
        seen = []
        observability.bus.subscribe(seen.append)
        cluster, reached = run_cluster(
            free_peers(4), target=20, observability=observability
        )
        assert reached
        bus = observability.bus
        assert len(bus) == window and bus.dropped == len(seen) - window > 0
        assert list(bus) == seen[-window:]
        cluster.check_total_order()
        # A `subscribe` stream replays the window, and its header says so.
        assert cluster.runners[0].trace_meta()["dropped_events"] == bus.dropped
        # Four booted runners hung nothing on the bus: an emit reaches this
        # test's tap and the window's drop counter, no per-runner recorder.
        assert bus._subscribers == [seen.append, bus._count_emit]
