"""Deployment harness: build and run a whole simulated DAG-Rider system.

Wraps the boilerplate every experiment repeats — scheduler, metrics,
network, one node per process (with per-pid overrides for
faulty variants) — and provides the run-until predicates and cross-node
consistency checks that tests and benches assert.
"""

from __future__ import annotations

from typing import Callable

from repro.broadcast.avid import SharedReconstructionCache
from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.core.node import DagRiderNode, check_prefix_consistency
from repro.obs.context import Observability
from repro.obs.wire import MetricsCollector
from repro.sim.adversary import Adversary, UniformDelay
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler

#: Per-pid node factory override: ``factory(pid, network, **node_kwargs)``.
NodeFactory = Callable[..., Process]


class DagRiderDeployment:
    """A full simulated deployment of DAG-Rider."""

    def __init__(
        self,
        config: SystemConfig,
        adversary: Adversary | None = None,
        broadcast: str = "bracha",
        coin_mode: str = "ideal",
        batch_size: int = 1,
        tx_bytes: int = 64,
        broadcast_kwargs: dict | None = None,
        node_factories: dict[int, NodeFactory] | None = None,
        node_kwargs: dict[int, dict] | None = None,
        default_node_kwargs: dict | None = None,
        observability: Observability | None = None,
    ):
        self.config = config
        self.scheduler = Scheduler()
        self.metrics = MetricsCollector()
        self.observability = observability
        if adversary is None:
            adversary = UniformDelay(derive_rng(config.seed, "delays"))
        self.adversary = adversary
        self.network = Network(
            self.scheduler, config, adversary, self.metrics, obs=observability
        )

        if broadcast == "avid":
            # One verified-reconstruction cache for the whole deployment:
            # every node's endpoint shares it by reference (node constructors
            # shallow-copy broadcast_kwargs), turning the grid's n² decodes
            # per dispersal into ~1 without changing delivery timing.
            broadcast_kwargs = dict(broadcast_kwargs or {})
            broadcast_kwargs.setdefault(
                "reconstruction_cache", SharedReconstructionCache(config.n)
            )

        self.nodes: list[Process] = []
        factories = node_factories or {}
        extra = node_kwargs or {}
        for pid in config.processes:
            factory = factories.get(pid, DagRiderNode)
            kwargs = dict(
                broadcast=broadcast,
                coin_mode=coin_mode,
                batch_size=batch_size,
                tx_bytes=tx_bytes,
                broadcast_kwargs=broadcast_kwargs,
            )
            kwargs.update(default_node_kwargs or {})
            kwargs.update(extra.get(pid, {}))
            self.nodes.append(factory(pid, self.network, **kwargs))

        for node in self.nodes:
            self.scheduler.call_at(0.0, node.start)

    # ----------------------------------------------------------------- views

    @property
    def correct_nodes(self) -> list[DagRiderNode]:
        """Nodes of correct processes that expose the full DAG-Rider API."""
        return [
            node
            for node in self.nodes
            if isinstance(node, DagRiderNode)
            and self.config.is_correct(node.pid)
            and not getattr(node, "crashed", False)
        ]

    # ------------------------------------------------------------------ runs

    def run(self, **kwargs) -> None:
        """Run the scheduler (same keyword arguments as :meth:`Scheduler.run`)."""
        self.scheduler.run(**kwargs)

    def run_until_ordered(
        self, count: int, max_events: int = 2_000_000
    ) -> bool:
        """Run until every correct node ordered >= ``count`` entries.

        Returns True when the target was reached before ``max_events``.
        """
        target_nodes = self.correct_nodes

        def reached() -> bool:
            # Plain loop: runs after every scheduler event, so no
            # generator allocation on the hot path.
            for node in target_nodes:
                if len(node.ordered) < count:
                    return False
            return True

        self.scheduler.run(max_events=max_events, stop_when=reached)
        return reached()

    def run_until_wave(self, wave: int, max_events: int = 2_000_000) -> bool:
        """Run until every correct node decided at least ``wave``."""
        # Poll the ordering cores directly: ``decided_wave`` is a plain
        # attribute there, where the node-level property would add a
        # descriptor call per node per scheduler event.
        orderings = [node.ordering for node in self.correct_nodes]

        def reached() -> bool:
            for ordering in orderings:
                if ordering.decided_wave < wave:
                    return False
            return True

        self.scheduler.run(max_events=max_events, stop_when=reached)
        return reached()

    # ------------------------------------------------------------ invariants

    def check_total_order(self) -> int:
        """BAB total order: every pair of logs agrees on its common prefix.

        Compares entry digests (slot and block bytes) with
        :func:`repro.core.node.check_prefix_consistency`, the check the TCP
        runtime runs; raises :class:`repro.common.errors.ConsistencyError`
        at the first divergence. Returns the agreed prefix length.
        """
        return check_prefix_consistency(
            {f"node {node.pid}": node.digest_log() for node in self.correct_nodes}
        )

    def check_integrity(self) -> None:
        """Assert BAB integrity: no node delivers the same slot twice."""
        for node in self.correct_nodes:
            slots = {(entry.round, entry.source) for entry in node.ordered}
            if len(slots) != len(node.ordered):
                raise AssertionError(f"node {node.pid} delivered a slot twice")

    def total_transactions_ordered(self) -> int:
        """Transactions in the shortest correct log (the committed prefix)."""
        nodes = self.correct_nodes
        if not nodes:
            return 0
        return min(
            sum(len(entry.block) for entry in node.ordered) for node in nodes
        )
