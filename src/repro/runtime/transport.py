"""Asyncio TCP transport with the simulator network's duck interface.

One :class:`TcpNetwork` per node: it binds the node's listening socket,
dials peers through :class:`repro.runtime.reliable.ReliableLink` (per-peer
outbound queues, sequence numbers, ack-based redelivery, backoff,
heartbeats), frames messages as ``4-byte length || 8-byte seq || canonical
codec`` (:mod:`repro.codec` — no pickle on the wire), and authenticates the
sender with a ``pid || boot incarnation`` handshake validated against the
configuration (adequate for a localhost demo; a deployment would wrap the
stream in TLS/noise — see ROADMAP). The incarnation lets a receiver reset
its duplicate cursor when a peer restarts from its state dir and begins a
fresh sequence space.

The receiving half of each link lives here too: every socket read is cut
into all the whole frames it holds
(:class:`repro.runtime.reliable.FrameSplitter`), delivered in order, and
acked at most once per :data:`repro.runtime.reliable.ACK_DELAY` with one
cumulative ``LinkAck``; a heartbeat is acked at once.

The pieces :class:`repro.core.node.DagRiderNode` actually touches are kept
signature-compatible with :class:`repro.sim.network.Network`:

* ``network.config`` / ``network.register(process)``
* ``network.send(src, dst, message)`` / ``network.broadcast(src, message)``
* ``network.scheduler.now`` / ``network.scheduler.call_later(delay, cb)``
* ``network.metrics`` (same §3 bit accounting, fed by ``wire_size``; the
  reliability layer's retransmissions and ack/heartbeat traffic are
  tallied separately in ``network.link_stats``)
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import TYPE_CHECKING, Callable

from repro.codec import encode_message
from repro.codec.frames import LinkAck, LinkHeartbeat
from repro.common.config import SystemConfig
from repro.common.errors import WireFormatError
from repro.obs.context import Observability
from repro.obs.wire import MetricsCollector
from repro.runtime import reliable
from repro.runtime.reliable import (
    CONNECTION_ERRORS,
    CONTROL_SEQ,
    HANDSHAKE,
    FrameSplitter,
    LinkStats,
    ReliableLink,
    frame_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.chaos import ChaosTransport
    from repro.sim.process import Process
    from repro.sim.wire import Message


#: Events the runtime keeps on the bus it is handed — the newest this
#: many, a few seconds of a busy four-node cluster and ~10 MB. A process
#: that runs for hours cannot hold its whole history; captures longer than
#: the window belong to a ``subscribe`` stream (docs/observability.md).
RETAINED_EVENTS = 32_768

#: Longest slow-peer delay (seconds) :meth:`TcpNetwork.set_peer_delay`
#: accepts. A link sleeps the delay before each frame and reads the fault
#: again only at the next one, so ``heal`` takes effect within one in-flight
#: delay; the chaos scenarios use 50 ms and a delayed benchmark 25 ms.
MAX_PEER_DELAY = 1.0


class AsyncScheduler:
    """Adapter exposing the simulator scheduler's surface over asyncio."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop

    @property
    def now(self) -> float:
        """The loop's monotonic time: one axis for every node and every
        life of a node on this host."""
        return self._loop.time()

    def call_later(self, delay: float, callback: Callable[[], object]) -> None:
        self._loop.call_later(delay, callback)


class _Inbound:
    """One live accepted connection from a peer."""

    __slots__ = ("writer", "ack_timer")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.ack_timer: asyncio.TimerHandle | None = None


class TcpNetwork:
    """One node's view of the cluster over TCP, with reliable links.

    Must be constructed inside a running asyncio loop.
    """

    def __init__(
        self,
        config: SystemConfig,
        pid: int,
        peers: dict[int, tuple[str, int]],
        *,
        obs: Observability,
        chaos: "ChaosTransport | None" = None,
    ):
        self.config = config
        self.pid = pid
        self.peers = peers
        self.loop = asyncio.get_running_loop()
        self.scheduler = AsyncScheduler(self.loop)
        self.metrics = MetricsCollector()
        self.link_stats = LinkStats()
        self.chaos = chaos
        self.obs = obs
        # First network in wins: a whole cluster's events share one
        # monotonic time axis and one retention window (see
        # Observability.attach_clock).
        obs.attach_clock(self.scheduler, retain=RETAINED_EVENTS)
        self._process: "Process | None" = None
        self._server: asyncio.AbstractServer | None = None
        self._links: dict[int, ReliableLink] = {}
        self._inbound: dict[int, _Inbound] = {}
        self._recv_cursor: dict[int, int] = {}  # survives reconnects
        #: This boot's handshake incarnation. A restarted process numbers
        #: its outbound frames from 1 again; peers use the incarnation
        #: change to reset their duplicate cursor for us (monotonic_ns is
        #: system-wide, so each boot on a host gets a strictly larger one).
        self.incarnation = time.monotonic_ns() & (2**64 - 1)
        self._peer_incarnation: dict[int, int] = {}
        self._accept_tasks: set[asyncio.Task[None]] = set()
        self._closed = False
        #: Runtime faults, read by every link when it dials and writes:
        #: the partitioned peers (both directions) and the slow-peer delay.
        self.blocked: frozenset[int] = frozenset()
        self.peer_delay = 0.0

    # ------------------------------------------------------- node interface

    def register(self, process: "Process") -> None:
        if self._process is not None:
            raise RuntimeError("TcpNetwork hosts exactly one process")
        if process.pid != self.pid:
            raise RuntimeError(f"process {process.pid} on network for {self.pid}")
        self._process = process

    def send(self, src: int, dst: int, message: "Message") -> None:
        if src != self.pid:
            raise RuntimeError("a node may only send as itself")
        if dst == self.pid:
            self.loop.call_soon(self._deliver, src, message)
            return
        self.metrics.record_send(
            src, message.wire_size_cached(self.config.n), message.tag(), True
        )
        self._link_for(dst).enqueue(message)

    def broadcast(self, src: int, message: "Message") -> None:
        if src != self.pid:
            raise RuntimeError("a node may only send as itself")
        # Encode once; every peer's link shares the same payload bytes, and
        # the cached wire size prices the message once instead of per peer.
        payload: bytes | None = None
        bits = message.wire_size_cached(self.config.n)
        tag = message.tag()
        for dst in self.config.processes:
            if dst == self.pid:
                self.loop.call_soon(self._deliver, src, message)
                continue
            self.metrics.record_send(src, bits, tag, True)
            if payload is None:
                payload = encode_message(message)
            self._link_for(dst).enqueue_encoded(payload)

    # ----------------------------------------------------------- robustness

    def _link_for(self, dst: int) -> ReliableLink:
        link = self._links.get(dst)
        if link is None:
            link = self._links[dst] = ReliableLink(self, dst)
        return link

    @property
    def queue_depth(self) -> int:
        """Frames queued-but-unacked across all outbound links."""
        return sum(link.queue_depth for link in self._links.values())

    @property
    def degraded_peers(self) -> frozenset[int]:
        """Peers currently unreachable past the degradation threshold."""
        return frozenset(
            dst for dst, link in self._links.items() if link.degraded
        )

    def link_report(self) -> dict[str, object]:
        """Robustness counters plus live queue/degradation state."""
        report: dict[str, object] = dict(self.link_stats.as_dict())
        report["queue_depth"] = self.queue_depth
        report["degraded_peers"] = sorted(self.degraded_peers)
        return report

    def sever_connections(self) -> int:
        """Forcibly cut every live connection of this node (fault injection).

        Outbound links redial and redeliver; inbound peers do the same from
        their side. Returns the number of connections cut.
        """
        cut = sum(link.sever() for link in self._links.values())
        for state in list(self._inbound.values()):
            if not state.writer.is_closing():
                state.writer.close()
                cut += 1
        return cut

    def block_peers(self, peers: set[int] | frozenset[int]) -> None:
        """Partition helper: cut every connection to and from ``peers`` and
        refuse new ones, both directions, until :meth:`heal`."""
        self.blocked = frozenset(peers) - {self.pid}
        for dst, link in self._links.items():
            if dst in self.blocked:
                link.sever()
        for src, state in list(self._inbound.items()):
            if src in self.blocked and not state.writer.is_closing():
                state.writer.close()

    def heal(self) -> None:
        """Lift any partition installed by :meth:`block_peers`."""
        self.blocked = frozenset()

    def set_peer_delay(self, delay: float) -> None:
        """Slow-peer fault: add ``delay`` seconds before every frame write."""
        if not 0.0 <= delay <= MAX_PEER_DELAY:  # also refuses NaN
            raise ValueError(
                f"delay must be in [0, {MAX_PEER_DELAY}] seconds, got {delay}"
            )
        self.peer_delay = delay

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind this node's listening socket."""
        host, port = self.peers[self.pid]
        self._server = await asyncio.start_server(self._accept, host, port)

    async def close_links(self) -> None:
        """Stop the outbound reliable links only (first phase of shutdown).

        Closing a cluster one whole node at a time makes the survivors'
        links reconnect to the nodes not yet closed; quiescing every node's
        outbound side first keeps teardown free of reconnect noise.
        """
        for link in self._links.values():
            await link.close()

    async def close(self) -> None:
        """Stop links, the server, and every accepted connection; idempotent."""
        if self._closed:
            return
        self._closed = True
        await self.close_links()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing inbound writers unblocks their handler tasks' reads.
        for state in list(self._inbound.values()):
            state.writer.close()
        for task in list(self._accept_tasks):
            task.cancel()
        for task in list(self._accept_tasks):
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._accept_tasks.clear()
        self._inbound.clear()

    # ------------------------------------------------------------- plumbing

    def _valid_handshake(self, src: int) -> bool:
        return 0 <= src < self.config.n and src != self.pid

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._accept_tasks.add(task)
        state = _Inbound(writer)
        src = -1
        try:
            src, incarnation = HANDSHAKE.unpack(
                await reader.readexactly(HANDSHAKE.size)
            )
            if not self._valid_handshake(src):
                # Never trust an out-of-range (or self-addressed) pid byte.
                self.link_stats.handshake_rejects += 1
                return
            if src in self.blocked:
                # Partitioned from this peer: refuse the connection; the
                # sender backs off and redials.
                return
            last = self._peer_incarnation.get(src)
            if last is not None and last != incarnation:
                # The peer restarted: its fresh links number frames from 1,
                # so the surviving cursor would swallow everything it sends.
                self._recv_cursor[src] = 0
                self.link_stats.peer_restarts += 1
                self.obs.emit(self.pid, "link_peer_restart", src=src)
            self._peer_incarnation[src] = incarnation
            prior = self._inbound.get(src)
            if prior is not None:
                # At most one live inbound connection per peer: a fresh
                # handshake supersedes the stale one (the reconnect path).
                self.link_stats.superseded_connections += 1
                prior.writer.close()
            self._inbound[src] = state
            splitter = FrameSplitter()
            while not self._closed:
                data = heartbeat = False
                for seq, message in await splitter.read(reader):
                    if seq == CONTROL_SEQ:
                        heartbeat = heartbeat or isinstance(message, LinkHeartbeat)
                        continue
                    data = True
                    cursor = self._recv_cursor.get(src, 0)
                    if seq <= cursor:
                        # Redelivered after an ack was lost, or a chaos duplicate.
                        self.link_stats.duplicates_dropped += 1
                        continue
                    if seq > cursor + 1:
                        # Only a degraded sender drops queued frames; record
                        # the loss instead of stalling the link forever.
                        self.link_stats.gaps += seq - cursor - 1
                    self._recv_cursor[src] = seq
                    self._deliver(src, message)
                if heartbeat:
                    self._flush_ack(src, state)
                    await writer.drain()
                elif data:
                    self._schedule_ack(src, state)
        except CONNECTION_ERRORS:
            pass
        except asyncio.CancelledError:
            pass
        except WireFormatError:
            # Garbage on the stream: cut the connection; the sender's
            # reliable link redials and redelivers from the last ack.
            pass
        finally:
            if state.ack_timer is not None:
                state.ack_timer.cancel()
            if task is not None:
                self._accept_tasks.discard(task)
            if src >= 0 and self._inbound.get(src) is state:
                del self._inbound[src]
            writer.close()
            with contextlib.suppress(*CONNECTION_ERRORS, asyncio.CancelledError):
                await writer.wait_closed()

    def _write_ack(self, src: int, writer: asyncio.StreamWriter) -> None:
        ack = LinkAck(self._recv_cursor.get(src, 0))
        writer.write(frame_bytes(CONTROL_SEQ, encode_message(ack)))
        self.link_stats.acks_sent += 1
        self.link_stats.control_bits += ack.wire_size(self.config.n)

    def _schedule_ack(self, src: int, state: _Inbound) -> None:
        """Ack the link within :data:`repro.runtime.reliable.ACK_DELAY`.

        The first data frame after an ack arms one timer; every frame that
        arrives before it fires is covered by the one cumulative ack it
        writes, so a busy link carries at most one ack per ``ACK_DELAY``
        instead of one per read. The sender never waits for an ack to
        send: holding one only keeps its frames queued (and redelivered
        after a reconnect) that much longer.
        """
        if state.ack_timer is None:
            state.ack_timer = self.loop.call_later(
                reliable.ACK_DELAY, self._flush_ack, src, state
            )

    def _flush_ack(self, src: int, state: _Inbound) -> None:
        """Ack the link now, covering any ack a timer holds."""
        if state.ack_timer is not None:
            state.ack_timer.cancel()
            state.ack_timer = None
        writer = state.writer
        if not self._closed and not writer.is_closing():
            self._write_ack(src, writer)

    def _deliver(self, src: int, message: "Message") -> None:
        if self._process is not None:
            self._process.on_message(src, message)
