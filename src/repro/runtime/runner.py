"""Boot **one** DAG-Rider node from a peer table — the multi-host unit.

:class:`NodeRunner` is the single shared boot/teardown path for both
deployment shapes:

* ``python -m repro tcp-node --peers table.json --pid K`` runs one runner
  per OS process (one per host in a real deployment), plus a
  :class:`ControlServer` on the pid's ``control_port`` so the fabric
  driver (``scripts/fabric.py``) can probe readiness, aggregate state,
  and stop the node;
* :class:`repro.runtime.cluster.LocalCluster` composes ``n`` runners
  inside one asyncio loop for tests and examples.

Both boot a runner the same way. The constructor builds the whole stack
inside the loop that runs it and replays the state dir, if any, into the
node; :meth:`NodeRunner.bind` binds the data socket; :meth:`NodeRunner.launch`
starts the protocol and opens the ingress gateway when the table gives the
pid an ``ingress_port``. A cluster binds every runner before it launches any.

Every runner carries an :class:`repro.obs.context.Observability` bundle:
process runners always create their own (the clock bound to this node's
transport scheduler); an in-loop cluster shares one bundle across its
runners.

The control socket is a :class:`repro.runtime.linerpc.LineServer` (framing,
error replies and shutdown: docs/runtime.md "Line RPC"). Its verbs:
``ping``, ``status``, ``log`` (position-wise entry digests, hex, for the
cross-host prefix-consistency check), ``partition`` / ``heal`` / ``slow``
(scenario fault injection) and ``stop``. One verb streams, the one way a
node's events leave it:
``subscribe`` answers with this host's ``repro.obs.trace`` v1 document
written live — the header, the bus's window, then each event as it is
emitted (bounded ring, oldest dropped and counted) and every ``interval``
seconds one ``repro.obs.metrics`` record (``links``, ``status``, the ring's
``dropped``; all absolute) until the client disconnects or the node stops.
The driver's diagnostic dumps are cut from these streams, not asked of the
node. See docs/observability.md "Live streaming and causal analysis".
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from typing import TYPE_CHECKING, Any

from repro.common.errors import ConfigurationError
from repro.core.node import DagRiderNode
from repro.mempool.admission import Mempool
from repro.mempool.gateway import IngressGateway
from repro.obs.context import Observability
from repro.obs.events import Event
from repro.obs.export import event_line, header_line, metrics_line
from repro.obs.stream import DEFAULT_STREAM_CAPACITY, EventRing
from repro.runtime.consistency import full_digest_log
from repro.runtime.linerpc import LineServer, Send
from repro.runtime.peers import PeerTable
from repro.runtime.transport import TcpNetwork
from repro.storage.journal import NodeJournal, RecoveryReport, recover_node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.chaos import ChaosTransport


class NodeRunner:
    """One DAG-Rider node booted from a declarative peer table."""

    def __init__(
        self,
        table: PeerTable,
        pid: int,
        *,
        observability: Observability,
        chaos: "ChaosTransport | None" = None,
        state_dir: str | None = None,
    ):
        """Build the whole stack: the (unbound) network, the journal when
        there is a ``state_dir``, and the node, with the state dir replayed
        into it. Must run inside the loop that will run the runner, as
        :class:`TcpNetwork` does. Recovery finishes here, before
        :meth:`bind`, so no peer frame can reach a half-restored node."""
        self.table = table
        self.pid = pid
        self.entry = table.entry(pid)
        self.config = table.system_config()
        self.observability = observability
        self._stop = asyncio.Event()
        self._closed = False
        self.network = TcpNetwork(
            self.config, pid, table.addresses(), obs=observability, chaos=chaos
        )
        self.journal = (
            NodeJournal(state_dir, pid=pid, obs=observability)
            if state_dir is not None
            else None
        )
        self.node = DagRiderNode(
            pid,
            self.network,
            coin_mode=table.coin_mode,
            journal=self.journal,
            gc_depth=table.gc_depth,
        )
        self.recovery: RecoveryReport | None = (
            recover_node(self.node, self.journal) if self.journal is not None else None
        )
        self.mempool: Mempool | None = None
        self.gateway: IngressGateway | None = None

    # ------------------------------------------------------------ lifecycle

    async def bind(self) -> None:
        """Bind this node's data socket; peers can dial it from here on."""
        await self.network.start()

    async def launch(self) -> None:
        """Start the protocol (first broadcast), then open the client
        transaction socket when the table gives this pid an ``ingress_port``.

        A recovered node also pulls the DAG suffix peers built while it was
        down. The mempool takes the table's admission config and the node's
        own clock (the transport scheduler), so submit → ``a_deliver``
        latency stamps share the trace time axis.
        """
        node = self.node
        node.start()
        if self.recovery is not None and self.recovery.recovered:
            node.request_catchup()
        if self.entry.ingress_port is None:
            return
        self.mempool = Mempool(self.pid, config=self.table.ingress, clock=lambda: node.now)
        self.gateway = IngressGateway(
            node,
            self.mempool,
            self.entry.host,
            self.entry.ingress_port,
            obs=self.observability,
        )
        await self.gateway.start()

    async def close_links(self) -> None:
        """Quiesce outbound links only (first phase of cluster teardown)."""
        await self.network.close_links()

    async def close(self) -> None:
        """Tear the transport down; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.gateway is not None:
            await self.gateway.close()
        await self.network.close()
        if self.journal is not None:
            self.journal.close()

    def request_stop(self) -> None:
        """Ask :meth:`wait_stopped` to return (control ``stop``, signals)."""
        self._stop.set()

    @property
    def stopped(self) -> bool:
        """True once a stop was requested."""
        return self._stop.is_set()

    async def wait_stopped(self, timeout: float | None = None) -> bool:
        """Block until a stop is requested; False when ``timeout`` hit first."""
        if timeout is None:
            await self._stop.wait()
            return True
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._stop.wait(), timeout)
        return self._stop.is_set()

    # ----------------------------------------------------------- inspection

    def status(self) -> dict[str, object]:
        """Liveness snapshot the fabric driver polls."""
        node = self.node
        status: dict[str, object] = {
            "ok": True,
            "pid": self.pid,
            "ready": True,
            "ordered": node.delivered_count,
            "decided_wave": node.decided_wave,
            "current_round": node.current_round,
            "queue_depth": self.network.queue_depth,
        }
        if self.recovery is not None:
            status["recovered"] = self.recovery.recovered
            status["recovery"] = self.recovery.as_dict()
        if self.mempool is not None:
            status["ingress"] = self.mempool.status()
        return status

    # -------------------------------------------------------------- tracing

    def trace_meta(self) -> dict[str, Any]:
        """This host's header for a document that starts at the bus's
        retention window: who it is, and how many older events the document
        does not hold."""
        return {
            "pid": self.pid,
            "n": self.config.n,
            "seed": self.config.seed,
            "coin_mode": self.table.coin_mode,
            "host": self.entry.host,
            "port": self.entry.port,
            "dropped_events": self.observability.bus.dropped,
        }

    def trace_metrics(self) -> dict[str, object]:
        """The metrics record of this host's stream ticks: ``links``, the
        link counters (``LinkStats``) and queue state."""
        return {"links": self.network.link_report()}


class ControlServer(LineServer):
    """The control endpoint of one :class:`NodeRunner`: its verb table."""

    def __init__(self, runner: NodeRunner, host: str, port: int):
        super().__init__(
            host,
            port,
            verbs={
                "ping": lambda _: self._reply(ready=True),
                "status": lambda _: runner.status(),
                # Entries delivered before a restart included (digests.log),
                # so a recovered node's log lines up with its peers'.
                "log": lambda _: self._reply(digests=full_digest_log(runner.node)),
                "partition": self._partition,
                "heal": self._heal,
                "slow": self._slow,
                "stop": self._stop,
            },
            streams={"subscribe": self._serve_subscribe},
        )
        self.runner = runner

    def _reply(self, **fields: object) -> dict[str, object]:
        return {"ok": True, "pid": self.runner.pid, **fields}

    def _partition(self, request: dict[str, Any]) -> dict[str, object]:
        peers, n = request.get("peers", []), self.runner.config.n
        if not isinstance(peers, list) or any(type(p) is not int or not 0 <= p < n for p in peers):
            raise ValueError(f"peers must be a list of pids in [0, {n})")
        self.runner.network.block_peers(set(peers))
        return self._reply(blocked=sorted(peers))

    def _heal(self, request: dict[str, Any]) -> dict[str, object]:
        self.runner.network.heal()
        self.runner.network.set_peer_delay(0.0)
        return self._reply(healed=True)

    def _slow(self, request: dict[str, Any]) -> dict[str, object]:
        delay = float(request.get("delay", 0.0))
        self.runner.network.set_peer_delay(delay)
        return self._reply(delay=delay)

    def _stop(self, request: dict[str, Any]) -> dict[str, object]:
        self.runner.request_stop()
        return self._reply(stopping=True)

    async def _serve_subscribe(self, request: dict[str, Any], send: Send) -> None:
        """Stream this host's trace, live, until stop or client hang-up: a
        ``repro.obs.trace`` v1 document — the header, the bus's window, then
        what was emitted since the last write each time an emit wakes the
        stream, and every ``interval`` seconds a ``repro.obs.metrics`` record
        (:meth:`NodeRunner.trace_metrics`, ``status``, the cumulative ring
        overflow ``dropped``, record number ``seq``, bus time ``t``; all
        absolute). A final record follows the stop; a stopping runner
        streams nothing."""
        runner = self.runner
        if runner.stopped:
            return
        obs, loop = runner.observability, asyncio.get_running_loop()
        interval = max(0.05, _finite(request.get("interval", 1.0), "interval"))
        ring: EventRing[Event] = EventRing(DEFAULT_STREAM_CAPACITY)
        wake = asyncio.Event()
        reported_drops, seq, stopped, due = 0, 0, False, False

        def tap(event: Event) -> None:
            ring.append(event)
            wake.set()

        def record_due() -> None:
            nonlocal due
            due = True
            wake.set()

        # Window and tap in one synchronous step: no event missed or sent twice.
        lines = [header_line({**runner.trace_meta(), "interval": interval})]
        lines += map(event_line, obs.bus.events)
        obs.bus.subscribe(tap)
        stopping = asyncio.ensure_future(runner.wait_stopped())
        stopping.add_done_callback(lambda _: wake.set())
        timer = loop.call_later(interval, record_due)
        try:
            while True:
                if lines:
                    await send(*lines)
                if stopped:
                    break
                await wake.wait()
                wake.clear()
                stopped = runner.stopped
                lines = [event_line(event) for event in ring.drain()]
                if ring.dropped > reported_drops:
                    # Overflow is data: stamp the node's own trace so
                    # post-hoc analysis knows this stream has holes.
                    dropped = ring.dropped - reported_drops
                    obs.emit(runner.pid, "stream_drop", dropped=dropped, total=ring.dropped)
                    reported_drops = ring.dropped
                if stopped or due:
                    seq, due = seq + 1, False
                    lines.append(metrics_line({
                        **runner.trace_metrics(), "status": runner.status(),
                        "dropped": ring.dropped, "seq": seq, "t": obs.bus.now,
                    }))
                    timer.cancel()
                    timer = loop.call_later(interval, record_due)
        finally:
            obs.bus.unsubscribe(tap)
            stopping.cancel()
            timer.cancel()


def _finite(value: Any, name: str) -> float:
    """``value`` as a float; JSON's ``1e999`` (``inf``) and ``NaN`` are
    refused, since neither is a time a trace or a wait can carry."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {number}")
    return number


async def serve_node(
    table: PeerTable,
    pid: int,
    run_seconds: float | None = None,
    state_dir: str | None = None,
) -> int:
    """Run one node process until stopped over control (or the deadline).

    The ``python -m repro tcp-node`` body. Returns the process exit code:
    0 after a clean control-socket stop, 2 when ``run_seconds`` expired
    first (so orphaned runners are visible to whatever launched them).
    The ingress gateway starts whenever the table gives this pid an
    ``ingress_port``.
    """
    entry = table.entry(pid)
    if entry.control_port is None:
        raise ConfigurationError(
            f"peer {pid} has no control_port; tcp-node needs one to be driven"
        )
    runner = NodeRunner(table, pid, observability=Observability(), state_dir=state_dir)
    await runner.bind()
    await runner.launch()
    control = ControlServer(runner, entry.host, entry.control_port)
    await control.start()
    recovered = ""
    if runner.recovery is not None and runner.recovery.recovered:
        recovered = (
            f" (recovered: {runner.recovery.snapshot_vertices} snapshot + "
            f"{runner.recovery.replayed_vertices} wal vertices, "
            f"{runner.recovery.replayed_commits} commits)"
        )
    ingress = "" if entry.ingress_port is None else f" ingress {entry.host}:{entry.ingress_port}"
    print(
        f"node {pid}/{table.n} up: data {entry.host}:{entry.port} "
        f"control {entry.host}:{entry.control_port}{ingress}{recovered}",
        flush=True,
    )
    stopped_clean = await runner.wait_stopped(timeout=run_seconds)
    await control.close()
    await runner.close_links()
    await runner.close()
    return 0 if stopped_clean else 2
