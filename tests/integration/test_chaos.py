"""Robustness of the TCP runtime under seeded fault injection."""

import asyncio
from collections import Counter

from repro.common.config import SystemConfig
from repro.runtime.chaos import ChaosConfig, ChaosTransport
from repro.runtime.cluster import LocalCluster


def chaos_cluster(peers, seed, chaos_config, n=4):
    chaos = ChaosTransport(seed, chaos_config)
    cluster = LocalCluster(SystemConfig(n=n, seed=seed), peers=peers, chaos=chaos)
    return cluster, chaos


def ordered_at_least(cluster, target):
    return lambda: cluster.nodes and all(
        len(node.ordered) >= target for node in cluster.nodes
    )


class TestChaosAcceptance:
    def test_orders_despite_drops_severs_and_dial_failures(self, free_peers):
        """The ISSUE acceptance scenario: >=20% first-attempt drops, every
        link severed at least once, and a 4-node cluster still orders >=20
        blocks on every node with prefix-consistent logs."""
        cluster, chaos = chaos_cluster(
            free_peers(4),
            seed=42,
            chaos_config=ChaosConfig(
                drop_rate=0.3,
                duplicate_rate=0.05,
                delay_rate=0.1,
                max_delay=0.02,
                sever_every=20,
                dial_fail_rate=0.15,
            ),
        )
        reached = asyncio.run(
            cluster.run_until(ordered_at_least(cluster, 20), timeout=60.0)
        )
        assert reached
        cluster.check_total_order()

        assert chaos.drop_fraction() >= 0.2
        # sever_every guarantees every busy directed link was cut.
        assert len(chaos.severs_by_link) == 4 * 3
        assert min(chaos.severs_by_link.values()) >= 1
        assert chaos.dial_failures > 0

        report = cluster.link_report()
        assert report["reconnects"] > 0
        assert report["redeliveries"] > 0
        assert report["retries"] > 0

    def test_mid_run_connection_kill_redelivers(self, free_peers):
        """Kill every live TCP connection mid-run (on top of a light seeded
        chaos schedule); redelivery must restore prefix-consistent logs."""
        cluster, _chaos = chaos_cluster(
            free_peers(4), seed=7, chaos_config=ChaosConfig(drop_rate=0.1)
        )

        async def main():
            await cluster.start()
            try:
                deadline = asyncio.get_running_loop().time() + 60.0
                severed = False
                while asyncio.get_running_loop().time() < deadline:
                    done = min(len(node.ordered) for node in cluster.nodes)
                    if not severed and done >= 5:
                        assert cluster.sever_all_connections() > 0
                        severed = True
                    if done >= 20:
                        return True
                    await asyncio.sleep(0.05)
                return False
            finally:
                await cluster.stop()

        assert asyncio.run(main())
        cluster.check_total_order()
        report = cluster.link_report()
        assert report["reconnects"] > 0
        assert report["redeliveries"] > 0

    def test_duplicate_heavy_schedule_preserves_integrity(self, free_peers):
        cluster, chaos = chaos_cluster(
            free_peers(4),
            seed=3,
            chaos_config=ChaosConfig(duplicate_rate=0.5, delay_rate=0.3),
        )
        reached = asyncio.run(
            cluster.run_until(ordered_at_least(cluster, 15), timeout=60.0)
        )
        assert reached
        cluster.check_total_order()
        assert chaos.duplicates > 0
        # (Not compared exactly: frames duplicated right at shutdown may
        # never be received, and lost acks also force benign redeliveries.)
        assert cluster.link_report()["duplicates_dropped"] > 0
        # No node delivers a slot twice even when the wire duplicates.
        for node in cluster.nodes:
            keys = [(e.round, e.source) for e in node.ordered]
            assert len(keys) == len(set(keys))


class TestChaosEvents:
    def test_each_chaos_event_kind_matches_its_counter(self, free_peers):
        """The link that suffers a fault records it: every ``chaos_*`` event
        on the cluster's bus answers to one count in ``chaos.report()``."""
        cluster, chaos = chaos_cluster(
            free_peers(4),
            seed=11,
            chaos_config=ChaosConfig(
                drop_rate=0.2,
                duplicate_rate=0.1,
                delay_rate=0.1,
                max_delay=0.005,
                sever_every=15,
                dial_fail_rate=0.2,
            ),
        )
        reached = asyncio.run(
            cluster.run_until(ordered_at_least(cluster, 8), timeout=60.0)
        )
        assert reached
        bus = cluster.observability.bus
        assert bus.dropped == 0  # the whole run is on the bus
        seen = Counter(event.kind for event in bus.events)
        report = chaos.report()
        counters = {
            "chaos_drop": "drops",
            "chaos_duplicate": "duplicates",
            "chaos_delay": "delays",
            "chaos_sever": "severs",
            "chaos_dial_fail": "dial_failures",
        }
        for kind, counter in counters.items():
            assert report[counter] > 0, counter
            assert seen[kind] == report[counter], kind


class TestChaosOffParity:
    def test_protocol_accounting_excludes_link_overhead(self, free_peers):
        """With chaos disabled the MetricsCollector sees exactly the
        protocol's sends (the paper's §3 accounting, as in the seed); all
        reliability traffic lands in the separate link_stats."""
        cluster = LocalCluster(SystemConfig(n=4, seed=5), peers=free_peers(4))
        reached = asyncio.run(
            cluster.run_until(ordered_at_least(cluster, 10), timeout=45.0)
        )
        assert reached
        for network in cluster.networks:
            assert network.metrics.correct_bits_total > 0
            assert "LinkAck" not in network.metrics.bits_by_tag
            assert "LinkHeartbeat" not in network.metrics.bits_by_tag
            assert network.link_stats.control_bits > 0
        report = cluster.link_report()
        assert report["redeliveries"] == 0
        assert report["gaps"] == 0
        assert report["dropped_degraded"] == 0

    def test_stop_is_idempotent(self, free_peers):
        cluster = LocalCluster(SystemConfig(n=4, seed=6), peers=free_peers(4))

        async def main():
            reached = await cluster.run_until(
                ordered_at_least(cluster, 5), timeout=45.0
            )
            await cluster.stop()  # run_until already stopped; must be a no-op
            await cluster.stop()
            return reached

        assert asyncio.run(main())
