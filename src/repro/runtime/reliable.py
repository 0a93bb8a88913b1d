"""Reliable authenticated links over TCP — the §2 model, made real.

The paper's proofs assume the link between every two correct processes is
reliable: every message sent is eventually delivered. A raw TCP connection
does not provide that — a reset loses every byte still buffered — so the
runtime adds a classic reliable-link layer on top:

* every data frame carries a **monotonic sequence number** per directed
  link; the receiver keeps a cumulative cursor, discards duplicates, and
  acknowledges with :class:`repro.codec.frames.LinkAck`;
* the sender keeps frames **queued until acked**; after a reconnect it
  redelivers everything unacked, in order;
* dial failures back off **exponentially with seeded jitter** (all
  randomness derives from the run seed via :func:`repro.common.rng.derive_rng`);
* idle links exchange **heartbeats**; a link that stops acknowledging past
  :data:`HEARTBEAT_TIMEOUT` is torn down and redialed;
* a peer that stays unreachable past :data:`DEGRADE_AFTER` is marked
  **degraded** and its queue bounded (oldest frames dropped) — BAB
  tolerates the loss of ``f`` processes, so a correct sender must not
  buffer without bound for a dead one.

Frames move in bursts, not one at a time: each pump wake writes every
frame past the link's write cursor in one ``writelines`` and one
``drain`` (a frame a fault touches is written on its own, after the
frames before it), each socket read is cut into every whole frame it
holds by one :class:`FrameSplitter`, and the receiver acks a link at most
once per :data:`ACK_DELAY`. Only the grouping into writes, reads and acks
depends on timing; the bytes, sequence numbers and chaos fates of the
frames do not.

The timings are module constants, not configuration: the §2 model asks
only that links eventually deliver, so no timer value is part of the
protocol. A link reads them each time it uses them, so a test can
monkeypatch them.

Ack/heartbeat bits are tallied in :class:`LinkStats` (``control_bits``),
*not* in :class:`repro.obs.wire.MetricsCollector`, so the runtime's §3
communication accounting matches the simulator's message-level model.
"""

from __future__ import annotations

import asyncio
import contextlib
import struct
from collections import deque
from dataclasses import dataclass, fields
from itertools import islice
from typing import TYPE_CHECKING

from repro.codec import decode_message, encode_message
from repro.codec.frames import LinkAck, LinkHeartbeat
from repro.common.errors import WireFormatError
from repro.common.rng import derive_rng
from repro.runtime.chaos import NO_FAULT, FrameFate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.chaos import ChaosTransport
    from repro.runtime.transport import TcpNetwork
    from repro.sim.wire import Message

#: ``4-byte body length`` prefix on every frame (body = seq + codec bytes).
HEADER = struct.Struct(">I")

#: ``8-byte sequence number`` leading every frame body.
SEQ = struct.Struct(">Q")

#: :data:`HEADER` and :data:`SEQ` together: everything before a frame's payload.
PREFIX = struct.Struct(">IQ")

#: Sender handshake: ``pid byte || 8-byte boot incarnation``. The
#: incarnation changes every time the sending process (re)starts, so a
#: receiver can tell a reconnect (same incarnation — keep the duplicate
#: cursor) from a restart (new incarnation — the sender's sequence space
#: begins again at 1, so the old cursor must be reset or every frame the
#: reborn peer sends would be dropped as a duplicate).
HANDSHAKE = struct.Struct(">BQ")

#: Sequence number reserved for control frames (acks, heartbeats).
CONTROL_SEQ = 0

#: Exceptions that mean "this connection is gone, redial".
CONNECTION_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError)

#: Most bytes one socket read takes off a link's stream.
READ_SIZE = 1 << 20


def frame_bytes(seq: int, payload: bytes) -> bytes:
    """One wire frame: length header, sequence number, codec payload."""
    return PREFIX.pack(SEQ.size + len(payload), seq) + payload


class FrameSplitter:
    """Cuts one connection's byte stream into ``(seq, message)`` frames.

    :meth:`read` takes whatever one socket read returns and gives back
    every frame it completed, in order, so a burst of frames costs one
    await. Each frame's codec bytes are copied once, out of the read and
    into the decoder. A frame cut by the end of a read waits in a
    ``bytearray`` that the next reads append to, so a large frame arriving
    in many reads is assembled in linear time.
    """

    __slots__ = ("_partial",)

    def __init__(self) -> None:
        self._partial = bytearray()

    async def read(self, reader: asyncio.StreamReader) -> list[tuple[int, "Message"]]:
        """The frames the next read completes (possibly none).

        Raises :class:`asyncio.IncompleteReadError` at end of stream, with
        the bytes of a frame the stream cut short, if any.
        """
        chunk = await reader.read(READ_SIZE)
        if not chunk:
            raise asyncio.IncompleteReadError(bytes(self._partial), None)
        return self.feed(chunk)

    def feed(self, chunk: bytes) -> list[tuple[int, "Message"]]:
        """Append ``chunk`` to the stream; the frames it completed."""
        partial = self._partial
        data: bytes | bytearray = chunk
        if partial:
            partial += chunk
            data = partial
        frames: list[tuple[int, "Message"]] = []
        offset, size = 0, len(data)
        with memoryview(data) as view:
            while size - offset >= HEADER.size:
                (length,) = HEADER.unpack_from(data, offset)
                if length < SEQ.size:
                    raise WireFormatError("short link frame")
                end = offset + HEADER.size + length
                if end > size:
                    break
                (seq,) = SEQ.unpack_from(data, offset + HEADER.size)
                payload = bytes(view[offset + PREFIX.size : end])
                frames.append((seq, decode_message(payload)))
                offset = end
        if data is partial:
            del partial[:offset]
        elif offset < size:
            partial += memoryview(chunk)[offset:]
        return frames


#: First redial delay after a dial failure (seconds).
INITIAL_BACKOFF = 0.05
#: Multiplier applied to the redial delay per consecutive failure.
BACKOFF_FACTOR = 2.0
#: Redial delay ceiling (seconds).
MAX_BACKOFF = 2.0
#: Fraction of each backoff randomized away (seeded), so a cluster
#: restarting together does not redial in lockstep.
JITTER = 0.5
#: Idle time (seconds) before the sender probes the link: the period of
#: each connection's heartbeat timer, which asks for a heartbeat when a
#: whole period passed without a burst written.
HEARTBEAT_INTERVAL = 1.0
#: Longest time (seconds) a receiver holds the ack of a delivered data
#: frame, so a busy link carries at most one ack per this interval (a
#: heartbeat is acked at once).
ACK_DELAY = 0.01
#: Silence (no acks, seconds) after which a connection is presumed dead and
#: torn down for redial.
HEARTBEAT_TIMEOUT = 5.0
#: Continuous unreachability (seconds) after which a peer is marked
#: degraded and its queue bounded.
DEGRADE_AFTER = 10.0
#: Unacked-frame cap for a degraded peer; the oldest frames are dropped
#: beyond it.
MAX_DEGRADED_QUEUE = 1024


@dataclass
class LinkStats:
    """Robustness counters for one node's links (all peers aggregated).

    Kept separate from :class:`repro.obs.wire.MetricsCollector` on
    purpose: these measure the *transport's* work (retries, redeliveries,
    control traffic), which the paper's §3 accounting excludes.
    """

    enqueued: int = 0
    frames_sent: int = 0
    retries: int = 0
    reconnects: int = 0
    redeliveries: int = 0
    duplicates_dropped: int = 0
    gaps: int = 0
    peer_restarts: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    heartbeats_sent: int = 0
    control_bits: int = 0
    dropped_degraded: int = 0
    handshake_rejects: int = 0
    superseded_connections: int = 0
    task_failures: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for reports and aggregation)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ReliableLink:
    """Sender half of one directed reliable link (this node → one peer).

    ``enqueue`` is the only entry point the network uses; a background pump
    task owns the connection: dial (with backoff), handshake, redeliver the
    unacked backlog, then stream new frames, a burst per wake, and
    heartbeats while a reader task consumes cumulative acks from the same
    connection. The network's
    partition and slow-peer state is read when it dials and when it writes;
    the chaos faults it suffers are recorded as ``chaos_*`` events.
    """

    def __init__(self, network: "TcpNetwork", dst: int):
        self.pid = network.pid
        self.dst = dst
        self.degraded = False
        self._network = network
        self._loop = network.loop
        self._stats = network.link_stats
        self._n = network.config.n
        self._obs = network.obs
        self._rng = derive_rng(network.config.seed, "link-jitter", self.pid, dst)
        # Consecutive seqs: enqueue appends, acks and trims pop the oldest.
        self._unacked: deque[tuple[int, bytes]] = deque()
        self._next_seq = 1
        self._acked = 0  # highest cumulatively acked seq
        self._conn_written = 0  # write cursor: highest seq written on the live connection
        self._ever_written = 0  # highest seq ever written on any connection
        self._connections = 0
        self._dial_attempts = 0
        self._heartbeat_nonce = 0
        self._heartbeat: asyncio.TimerHandle | None = None
        self._heartbeat_due = False
        self._wrote_since_tick = False
        self._down_since: float | None = None
        self._last_rx = self._loop.time()
        self._wake = asyncio.Event()
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task[None] | None = None
        self._task: asyncio.Task[None] | None = None
        self._closed = False

    # ------------------------------------------------------------- queueing

    @property
    def queue_depth(self) -> int:
        """Frames enqueued but not yet acknowledged by the peer."""
        return len(self._unacked)

    def enqueue(self, message: "Message") -> None:
        """Queue a protocol message for reliable delivery to the peer."""
        self.enqueue_encoded(encode_message(message))

    def enqueue_encoded(self, payload: bytes) -> None:
        """Queue an already-encoded message for reliable delivery.

        The broadcast path encodes each message once and hands the same
        bytes to every peer's link, instead of re-running the codec per
        destination.
        """
        if self._closed:
            return
        self._stats.enqueued += 1
        seq = self._next_seq
        self._next_seq += 1
        self._unacked.append((seq, payload))
        if self.degraded:
            self._trim_degraded()
        self._wake.set()
        if self._task is None:
            self._task = self._loop.create_task(self._run())
            self._task.add_done_callback(self._on_task_done)

    def sever(self) -> int:
        """Forcibly cut the live connection (fault-injection helper).

        Returns the number of connections cut (0 or 1); the pump notices and
        redials, redelivering everything unacked.
        """
        writer = self._writer
        if writer is None or writer.is_closing():
            return 0
        writer.close()
        return 1

    def _trim_degraded(self) -> None:
        while len(self._unacked) > MAX_DEGRADED_QUEUE:
            self._unacked.popleft()
            self._stats.dropped_degraded += 1

    # ----------------------------------------------------------------- pump

    async def _run(self) -> None:
        while not self._closed:
            try:
                await self._connect()
                if self._writer is None:  # closed while dialing
                    return
                await self._stream()
            except CONNECTION_ERRORS:
                await self._drop_connection()

    async def _connect(self) -> None:
        backoff = INITIAL_BACKOFF
        if self._down_since is None:
            self._down_since = self._loop.time()
        network = self._network
        while not self._closed:
            if self.dst in network.blocked:
                await asyncio.sleep(0.02)  # partitioned: poll until healed
                continue
            self._dial_attempts += 1
            writer = None
            try:
                if network.chaos is not None and network.chaos.fail_dial(
                    self.pid, self.dst, self._dial_attempts
                ):
                    self._obs.emit(
                        self.pid,
                        "chaos_dial_fail",
                        dst=self.dst,
                        attempt=self._dial_attempts,
                    )
                    raise ConnectionRefusedError("chaos: dial failure injected")
                reader, writer = await asyncio.open_connection(*network.peers[self.dst])
                writer.write(HANDSHAKE.pack(self.pid, network.incarnation))
                await writer.drain()
            except CONNECTION_ERRORS:
                if writer is not None:
                    writer.close()
                self._stats.retries += 1
                self._obs.emit(
                    self.pid, "link_retry", dst=self.dst, attempt=self._dial_attempts
                )
                if (
                    not self.degraded
                    and self._loop.time() - self._down_since >= DEGRADE_AFTER
                ):
                    self.degraded = True
                    self._trim_degraded()
                    self._obs.emit(self.pid, "link_degraded", dst=self.dst)
                await asyncio.sleep(backoff * (1.0 - JITTER * self._rng.random()))
                backoff = min(backoff * BACKOFF_FACTOR, MAX_BACKOFF)
                continue
            self._writer = writer
            self._conn_written = self._acked
            self._connections += 1
            if self._connections > 1:
                self._stats.reconnects += 1
                self._obs.emit(
                    self.pid,
                    "link_reconnect",
                    dst=self.dst,
                    connection=self._connections,
                    unacked=len(self._unacked),
                )
            self.degraded = False
            self._down_since = None
            self._last_rx = self._loop.time()
            self._reader_task = self._loop.create_task(self._read_acks(reader))
            self._reader_task.add_done_callback(self._on_task_done)
            self._heartbeat_due = self._wrote_since_tick = False
            self._heartbeat = self._loop.call_later(HEARTBEAT_INTERVAL, self._tick)
            return

    async def _stream(self) -> None:
        while not self._closed:
            frames = self._unwritten()
            if frames:
                await self._write_burst(frames)
                self._wrote_since_tick = True
                self._check_liveness(idle=False)
            elif self._heartbeat_due:
                self._heartbeat_due = False
                await self._send_heartbeat()
                self._check_liveness(idle=True)
            else:
                self._wake.clear()
                await self._wake.wait()

    def _tick(self) -> None:
        """The connection's heartbeat timer: every :data:`HEARTBEAT_INTERVAL`,
        a period without a burst written makes the pump send a heartbeat."""
        self._heartbeat = self._loop.call_later(HEARTBEAT_INTERVAL, self._tick)
        if self._wrote_since_tick:
            self._wrote_since_tick = False
        else:
            self._heartbeat_due = True
            self._wake.set()

    def _unwritten(self) -> list[tuple[int, bytes]]:
        """The queued frames past the write cursor, oldest first."""
        unacked = self._unacked
        if not unacked:
            return []
        start = self._conn_written + 1 - unacked[0][0]
        if start >= len(unacked):
            return []
        return list(islice(unacked, max(0, start), None))

    async def _write_burst(self, frames: list[tuple[int, bytes]]) -> None:
        """Write ``frames`` up to the first one a fault touches.

        Every frame before it goes out in one ``writelines`` and one
        ``drain``; the touched frame (a chaos fate or a slow peer's delay)
        is then written on its own, as its fate says. Each frame's fate is
        planned once, in order, so chaos sees what a frame-at-a-time
        writer showed it. Frames after the touched one wait for the next
        burst.
        """
        network, chaos = self._network, self._network.chaos
        slow = network.peer_delay > 0
        parts: list[bytes] = []
        last = 0
        for seq, payload in frames:
            fate = NO_FAULT if chaos is None else self._plan(chaos, seq)
            if slow or (chaos is not None and fate != NO_FAULT):
                if parts:
                    await self._send(parts)
                    self._count_written(frames[0][0], last)
                await self._write_faulted(seq, payload, fate)
                return
            parts += (PREFIX.pack(SEQ.size + len(payload), seq), payload)
            last = seq
        await self._send(parts)
        self._count_written(frames[0][0], last)

    async def _write_faulted(self, seq: int, payload: bytes, fate: FrameFate) -> None:
        delay = self._network.peer_delay + fate.delay
        if delay > 0:
            # Head-of-line: frames behind this one wait too (congestion model).
            await asyncio.sleep(delay)
        if fate.drop:
            raise ConnectionResetError(f"chaos dropped frame {seq} to {self.dst}")
        frame = (PREFIX.pack(SEQ.size + len(payload), seq), payload)
        await self._send(list(frame * 2 if fate.duplicate else frame))
        if fate.sever:
            raise ConnectionResetError(f"chaos severed link to {self.dst}")
        self._count_written(seq, seq)

    async def _send(self, parts: list[bytes]) -> None:
        if self.dst in self._network.blocked:  # partitioned mid-delay, or a dial raced it
            raise ConnectionResetError(f"partitioned from {self.dst}")
        writer = self._writer
        if writer is None or writer.is_closing():
            raise ConnectionResetError("connection lost")
        writer.writelines(parts)
        await writer.drain()

    def _count_written(self, first: int, last: int) -> None:
        """Frames ``first..last`` reached the live connection."""
        self._stats.frames_sent += last - first + 1
        resent = min(last, self._ever_written)
        if resent >= first:
            # One event per burst: a reconnect's whole backlog is one range.
            self._stats.redeliveries += resent - first + 1
            self._obs.emit(self.pid, "link_redelivery", dst=self.dst, first=first, last=resent)
        self._conn_written = last
        self._ever_written = max(self._ever_written, last)

    def _plan(self, chaos: "ChaosTransport", seq: int) -> FrameFate:
        """Frame ``seq``'s fate from chaos, each planned fault recorded."""
        obs, pid, dst = self._obs, self.pid, self.dst
        fate = chaos.plan(pid, dst, seq)
        if fate.drop:
            obs.emit(pid, "chaos_drop", dst=dst, seq=seq)
        if fate.duplicate:
            obs.emit(pid, "chaos_duplicate", dst=dst, seq=seq)
        if fate.delay:
            obs.emit(pid, "chaos_delay", dst=dst, seq=seq, delay=fate.delay)
        if fate.sever:
            obs.emit(pid, "chaos_sever", dst=dst, seq=seq)
        return fate

    async def _send_heartbeat(self) -> None:
        writer = self._writer
        if writer is None or writer.is_closing():
            raise ConnectionResetError("connection lost")
        self._heartbeat_nonce += 1
        message = LinkHeartbeat(self._heartbeat_nonce)
        writer.write(frame_bytes(CONTROL_SEQ, encode_message(message)))
        await writer.drain()
        self._stats.heartbeats_sent += 1
        self._stats.control_bits += message.wire_size(self._n)

    def _check_liveness(self, idle: bool) -> None:
        """Tear the connection down when the peer stopped acknowledging.

        On a busy link unacked frames past the timeout mean the peer (or the
        path back) is gone; on an idle link heartbeats should keep acks
        flowing, so prolonged silence is equally fatal.
        """
        stale = self._loop.time() - self._last_rx > HEARTBEAT_TIMEOUT
        if stale and (idle or self._unacked):
            raise ConnectionResetError("peer unresponsive: ack timeout")

    # ------------------------------------------------------------- ack path

    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        splitter = FrameSplitter()
        try:
            while True:
                for _seq, message in await splitter.read(reader):
                    if isinstance(message, LinkAck):
                        self._on_ack(message)
        except CONNECTION_ERRORS:
            pass
        except asyncio.CancelledError:
            raise
        except WireFormatError:
            # Corrupt ack stream: let the pump tear the connection down via
            # its liveness timeout; redelivery resyncs both cursors.
            pass

    def _on_ack(self, ack: LinkAck) -> None:
        self._stats.acks_received += 1
        self._stats.control_bits += ack.wire_size(self._n)
        self._last_rx = self._loop.time()
        if ack.cumulative > self._acked:
            self._acked = ack.cumulative
            while self._unacked and self._unacked[0][0] <= ack.cumulative:
                self._unacked.popleft()

    # ------------------------------------------------------------ lifecycle

    def _on_task_done(self, task: asyncio.Task[None]) -> None:
        """Surface pump/reader crashes the moment they happen (ASYNC003).

        Expected terminations (cancellation at close, clean returns) pass
        through silently; an unexpected exception would otherwise sit
        swallowed inside the task object until shutdown awaits it, leaving
        the peer silently dead in the meantime.
        """
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        self._stats.task_failures += 1
        self._obs.emit(
            self.pid, "link_task_error", dst=self.dst, error=type(exc).__name__
        )

    async def _drop_connection(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            self._heartbeat = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task
            self._reader_task = None
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            with contextlib.suppress(*CONNECTION_ERRORS):
                await writer.wait_closed()
        if not self._closed and self._down_since is None:
            self._down_since = self._loop.time()

    async def close(self) -> None:
        """Stop the pump and close the connection; idempotent."""
        self._closed = True
        self._wake.set()
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        await self._drop_connection()
