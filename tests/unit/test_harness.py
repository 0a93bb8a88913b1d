"""Deployment harness: consistency checks and run predicates."""

import pytest

from repro.coin.threshold import ThresholdCoin
from repro.common.config import SystemConfig
from repro.common.errors import ConsistencyError
from repro.core.harness import DagRiderDeployment
from repro.core.node import OrderedEntry
from repro.crypto.dealer import run_dealer
from repro.mempool.blocks import Block


def small_deployment(**kwargs):
    return DagRiderDeployment(SystemConfig(n=4, seed=77), **kwargs)


class TestChecks:
    def test_check_total_order_passes_on_consistent_logs(self):
        dep = small_deployment()
        assert dep.run_until_ordered(10)
        dep.check_total_order()

    def test_check_total_order_detects_divergence(self):
        dep = small_deployment()
        assert dep.run_until_ordered(5)
        # Corrupt one node's log artificially.
        node = dep.correct_nodes[0]
        entry = node.ordered[2]
        node.ordered[2] = OrderedEntry(
            entry.position, entry.block, entry.round, (entry.source + 1) % 4, entry.time
        )
        with pytest.raises(ConsistencyError, match="total order violated"):
            dep.check_total_order()

    def test_check_total_order_detects_another_block_in_the_same_slot(self):
        """The slot agrees, the bytes do not: what reliable broadcast should
        prevent and the check exists to catch."""
        dep = small_deployment()
        assert dep.run_until_ordered(5)
        node = dep.correct_nodes[0]
        entry = node.ordered[2]
        forged = Block(entry.block.proposer, entry.block.sequence, (b"forged",))
        assert forged.to_bytes() != entry.block.to_bytes()
        node.ordered[2] = OrderedEntry(
            entry.position, forged, entry.round, entry.source, entry.time
        )
        with pytest.raises(ConsistencyError, match="position 2"):
            dep.check_total_order()

    def test_check_total_order_returns_the_agreed_prefix(self):
        dep = small_deployment()
        assert dep.run_until_ordered(5)
        shortest = min(len(node.ordered) for node in dep.correct_nodes)
        assert dep.check_total_order() == shortest >= 5

    def test_check_integrity_detects_duplicates(self):
        dep = small_deployment()
        assert dep.run_until_ordered(5)
        node = dep.correct_nodes[0]
        node.ordered.append(node.ordered[0])
        with pytest.raises(AssertionError, match="twice"):
            dep.check_integrity()

    def test_total_transactions_ordered_counts_shortest_log(self):
        dep = small_deployment(batch_size=3)
        assert dep.run_until_ordered(8)
        total = dep.total_transactions_ordered()
        assert total >= 8 * 3


class TestRunPredicates:
    def test_run_until_ordered_false_when_budget_too_small(self):
        dep = small_deployment()
        assert not dep.run_until_ordered(1000, max_events=100)

    def test_run_until_wave(self):
        dep = small_deployment()
        assert dep.run_until_wave(2)
        assert all(node.decided_wave >= 2 for node in dep.correct_nodes)

    def test_correct_nodes_excludes_byzantine(self):
        config = SystemConfig(n=4, seed=1, byzantine=frozenset({2}))
        dep = DagRiderDeployment(config)
        assert [node.pid for node in dep.correct_nodes] == [0, 1, 3]

    def test_dealer_created_only_for_real_coins(self):
        """An ideal-coin node holds no key; a threshold node's key is its
        share under the run's one dealer."""
        assert not isinstance(small_deployment().nodes[0].coin, ThresholdCoin)
        dep = small_deployment(coin_mode="threshold")
        dealer = run_dealer(dep.config)
        for node in dep.nodes:
            assert isinstance(node.coin, ThresholdCoin)
            node.coin.invoke(1)
            [share] = node.coin.own_shares(1)
            assert dealer.verify_share(node.pid, 1, share.value)

    def test_default_node_kwargs_applied(self):
        dep = small_deployment(default_node_kwargs={"batch_size": 5})
        dep.run_until_ordered(4)
        node = dep.correct_nodes[0]
        assert all(len(e.block) == 5 for e in node.ordered if e.block.transactions)


class TestNodeAssembly:
    def test_unknown_broadcast_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            small_deployment(broadcast="smoke-signals")

    def test_unknown_coin_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            small_deployment(coin_mode="quantum")

    def test_ordered_entry_fields(self):
        dep = small_deployment()
        assert dep.run_until_ordered(3)
        entry = dep.correct_nodes[0].ordered[0]
        assert entry.position == 0
        assert isinstance(entry.block, Block)
        assert entry.round >= 1
        assert 0 <= entry.source < 4
        assert entry.time > 0

    def test_on_deliver_callback(self):
        config = SystemConfig(n=4, seed=3)
        seen = []
        dep = DagRiderDeployment(config)
        for node in dep.correct_nodes:
            node.add_delivery_listener(seen.append)
        assert dep.run_until_ordered(4)
        assert len(seen) >= 16  # 4 nodes x 4 entries
