"""Boot an n-node DAG-Rider cluster over localhost TCP.

Since the multi-host runner landed, this is a thin composition: the
cluster builds one :class:`repro.runtime.peers.PeerTable` and boots one
:class:`repro.runtime.runner.NodeRunner` per pid inside the current
asyncio loop — exactly the stack ``python -m repro tcp-node`` boots in a
process of its own, so in-loop tests and real multi-process deployments
share their boot/teardown code.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable

import asyncio

from repro.common.config import SystemConfig
from repro.core.node import DagRiderNode, check_prefix_consistency
from repro.mempool.admission import AdmissionConfig
from repro.obs.context import Observability
from repro.runtime.consistency import full_digest_log
from repro.runtime.peers import PeerTable, make_peer_table
from repro.runtime.runner import NodeRunner
from repro.runtime.transport import TcpNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.chaos import ChaosTransport


class LocalCluster:
    """n DAG-Rider nodes on localhost ports, one asyncio loop.

    Example::

        cluster = LocalCluster(SystemConfig(n=4, seed=1), base_port=9200)
        asyncio.run(cluster.run_until(lambda: all(
            len(node.ordered) >= 10 for node in cluster.nodes
        ), timeout=30.0))

    Every runner emits into one shared ``observability`` bundle, built
    here when none is passed. Pass ``chaos`` (a
    :class:`repro.runtime.chaos.ChaosTransport`) to inject seeded faults
    on every link, ``gc_depth`` to bound each node's DAG
    (it goes into the peer table, the one place a runner reads it), and
    ``peers`` (pid -> ``(host, port)``) to place nodes on explicit
    addresses instead of the contiguous ``base_port + pid`` block on
    localhost — tests use freshly allocated free ports this way so
    parallel runs cannot collide.
    """

    def __init__(
        self,
        config: SystemConfig,
        base_port: int = 9100,
        coin_mode: str = "ideal",
        chaos: "ChaosTransport | None" = None,
        observability: Observability | None = None,
        peers: dict[int, tuple[str, int]] | None = None,
        state_dirs: dict[int, str] | None = None,
        ingress_ports: dict[int, int] | None = None,
        ingress: "AdmissionConfig | None" = None,
        gc_depth: int | None = None,
    ):
        self.config = config
        self.peers = (
            dict(peers)
            if peers is not None
            else {pid: ("127.0.0.1", base_port + pid) for pid in config.processes}
        )
        self.table: PeerTable = make_peer_table(
            self.peers,
            config,
            coin_mode=coin_mode,
            ingress_ports=ingress_ports,
            gc_depth=gc_depth,
            ingress=ingress,
        )
        self._chaos = chaos
        #: The one bundle every runner (and so every link) emits into.
        self.observability = (
            observability if observability is not None else Observability()
        )
        #: pid -> state directory; listed nodes journal to disk and can be
        #: restarted from it (see tests/integration/test_crash_recovery.py).
        self._state_dirs = dict(state_dirs or {})
        self._stopped = False
        self.runners: list[NodeRunner] = []

    @property
    def networks(self) -> list[TcpNetwork]:
        return [r.network for r in self.runners]

    @property
    def nodes(self) -> list[DagRiderNode]:
        return [r.node for r in self.runners]

    async def start(self) -> None:
        """Build and bind every runner, then launch every runner."""
        for pid in self.config.processes:
            runner = NodeRunner(
                self.table,
                pid,
                observability=self.observability,
                chaos=self._chaos,
                state_dir=self._state_dirs.get(pid),
            )
            self.runners.append(runner)
            await runner.bind()
        for runner in self.runners:
            await runner.launch()

    async def stop(self) -> None:
        """Close every socket and background task; safe to call repeatedly."""
        if self._stopped:
            return
        self._stopped = True
        # Quiesce every node's outbound links before closing any server, so
        # survivors don't spend teardown reconnecting to half-closed peers.
        for runner in self.runners:
            await runner.close_links()
        for runner in self.runners:
            await runner.close()

    async def run_until(
        self, predicate: Callable[[], bool], timeout: float = 60.0, poll: float = 0.05
    ) -> bool:
        """Start (if needed), poll ``predicate``, stop; True if it held."""
        if not self.runners:
            await self.start()
        deadline = asyncio.get_running_loop().time() + timeout
        try:
            while asyncio.get_running_loop().time() < deadline:
                if predicate():
                    return True
                await asyncio.sleep(poll)
            return predicate()
        finally:
            await self.stop()

    def sever_all_connections(self) -> int:
        """Cut every live TCP connection in the cluster (fault injection)."""
        return sum(network.sever_connections() for network in self.networks)

    def link_report(self) -> dict[str, object]:
        """Aggregate reliable-link counters across every node."""
        totals: Counter[str] = Counter()
        degraded: set[int] = set()
        depth = 0
        for network in self.networks:
            for key, value in network.link_stats.as_dict().items():
                totals[key] += value
            degraded |= network.degraded_peers
            depth += network.queue_depth
        report: dict[str, object] = dict(totals)
        report["queue_depth"] = depth
        report["degraded_peers"] = sorted(degraded)
        return report

    def check_total_order(self) -> int:
        """Prefix-consistency across all nodes' delivery logs.

        Compares full entry digests (slot *and* block bytes), so two
        different blocks in the same ``(round, source)`` slot fail the
        check; raises :class:`repro.common.errors.ConsistencyError` on the
        first divergence (a real exception — ``python -O`` cannot strip
        it the way it strips a bare ``assert``). Returns the agreed
        prefix length. The fabric driver runs the same check across host
        boundaries on digests fetched over each node's control socket.
        """
        return check_prefix_consistency(
            {f"node {node.pid}": full_digest_log(node) for node in self.nodes}
        )
