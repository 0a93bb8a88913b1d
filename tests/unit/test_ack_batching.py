"""Ack batching: a busy link carries one cumulative ack per ``ACK_DELAY``
instead of one per frame; a heartbeat is acked at once."""

import asyncio
import math

import pytest

from repro.broadcast.gossip import GossipSubscribe
from repro.codec import encode_message
from repro.codec.frames import LinkAck, LinkHeartbeat
from repro.common.config import SystemConfig
from repro.obs.context import Observability
from repro.runtime import reliable
from repro.runtime.peers import allocate_port_block
from repro.runtime.reliable import CONTROL_SEQ, HANDSHAKE, FrameSplitter, frame_bytes
from repro.runtime.transport import TcpNetwork


FRAMES = 60


class Sink:
    def __init__(self, pid: int):
        self.pid = pid
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


async def eventually(predicate, timeout=10.0, poll=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(poll)
    return predicate()


async def busy_link_control_bits() -> tuple[int, int]:
    """Blast FRAMES data frames at a node in one write; return (acks, bits).

    Writing the whole burst before the receiver's read loop wakes guarantees
    the frames arrive in (at most a few) bursts, which is exactly the busy
    link scenario the batching optimization targets.
    """
    ports = allocate_port_block(2)
    peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(2)}
    net = TcpNetwork(SystemConfig(n=2, seed=3), 0, peers, obs=Observability())
    sink = Sink(0)
    net.register(sink)
    await net.start()
    try:
        _reader, writer = await asyncio.open_connection(*peers[0])
        writer.write(HANDSHAKE.pack(1, 1))  # handshake as pid 1
        blob = b"".join(
            frame_bytes(seq, encode_message(GossipSubscribe(f"m{seq}")))
            for seq in range(1, FRAMES + 1)
        )
        writer.write(blob)
        await writer.drain()
        assert await eventually(lambda: len(sink.received) == FRAMES)
        # Let any scheduled ack flush run before sampling the counters.
        assert await eventually(lambda: net.link_stats.acks_sent > 0)
        await asyncio.sleep(0.05)
        writer.close()
        return net.link_stats.acks_sent, net.link_stats.control_bits
    finally:
        await net.close()


def test_burst_coalescing_halves_control_bits():
    async def main():
        batched_acks, batched_bits = await busy_link_control_bits()
        # Acking every data frame individually (the pre-batching receiver)
        # would cost exactly one LinkAck frame per data frame.
        per_frame_acks = FRAMES
        per_frame_bits = FRAMES * LinkAck(FRAMES).wire_size(2)
        # Batching coalesces bursts: control traffic drops at least ~half
        # (in practice far more — the whole blob is one or two bursts).
        assert batched_acks < per_frame_acks
        assert batched_bits <= per_frame_bits * 0.55
        assert batched_acks >= 1

    asyncio.run(main())


def test_batched_ack_is_cumulative():
    async def main():
        ports = allocate_port_block(2)
        peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(2)}
        net = TcpNetwork(SystemConfig(n=2, seed=3), 0, peers, obs=Observability())
        net.register(Sink(0))
        await net.start()
        try:
            reader, writer = await asyncio.open_connection(*peers[0])
            writer.write(HANDSHAKE.pack(1, 1))
            writer.write(
                b"".join(
                    frame_bytes(seq, encode_message(GossipSubscribe(f"m{seq}")))
                    for seq in range(1, 11)
                )
            )
            await writer.drain()
            # Whatever the burst split was, the last ack must cover seq 10.
            from repro.codec import decode_message
            from repro.runtime.reliable import HEADER, SEQ

            cumulative = 0
            while cumulative < 10:
                (length,) = HEADER.unpack(
                    await asyncio.wait_for(reader.readexactly(HEADER.size), 5.0)
                )
                body = await asyncio.wait_for(reader.readexactly(length), 5.0)
                message = decode_message(body[SEQ.size :])
                if isinstance(message, LinkAck):
                    assert message.cumulative > cumulative  # monotone
                    cumulative = message.cumulative
            assert cumulative == 10
            writer.close()
        finally:
            await net.close()

    asyncio.run(main())


def test_broadcast_encodes_once(monkeypatch):
    async def main():
        import repro.runtime.transport as transport_module

        ports = allocate_port_block(4)
        peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(4)}
        net = TcpNetwork(SystemConfig(n=4, seed=3), 0, peers, obs=Observability())
        sink = Sink(0)
        net.register(sink)

        calls = []
        real_encode = transport_module.encode_message
        monkeypatch.setattr(
            transport_module,
            "encode_message",
            lambda message: (calls.append(message), real_encode(message))[1],
        )
        net.broadcast(0, GossipSubscribe("hello"))
        # One codec pass serves all three remote links (self skips the wire).
        assert len(calls) == 1
        assert sum(link.queue_depth for link in net._links.values()) == 3
        await eventually(lambda: len(sink.received) == 1, timeout=2.0)
        assert sink.received == [(0, GossipSubscribe("hello"))]
        await net.close()

    asyncio.run(main())


class TimedSink(Sink):
    """Records the loop time of each delivery too."""

    def __init__(self, pid: int):
        super().__init__(pid)
        self.times = []

    def on_message(self, src, message):
        super().on_message(src, message)
        self.times.append(asyncio.get_running_loop().time())


async def node_zero(sink):
    """A started two-node network's pid 0 and a raw connection to it that
    has shaken hands as pid 1."""
    ports = allocate_port_block(2)
    peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(2)}
    net = TcpNetwork(SystemConfig(n=2, seed=3), 0, peers, obs=Observability())
    net.register(sink)
    await net.start()
    reader, writer = await asyncio.open_connection(*peers[0])
    writer.write(HANDSHAKE.pack(1, 1))
    return net, reader, writer


def data_frame(seq):
    return frame_bytes(seq, encode_message(GossipSubscribe(f"m{seq}")))


def test_a_busy_link_gets_at_most_one_ack_per_ack_delay():
    async def main():
        sink = TimedSink(0)
        net, reader, writer = await node_zero(sink)
        try:
            loop = asyncio.get_running_loop()
            start, seq = loop.time(), 0
            while loop.time() - start < 0.05:  # a 50 ms stream, a frame a ms
                seq += 1
                writer.write(data_frame(seq))
                await writer.drain()
                await asyncio.sleep(0.001)
            assert await eventually(lambda: len(sink.received) == seq)
            splitter, cumulative = FrameSplitter(), 0
            while cumulative < seq:
                for _, ack in await asyncio.wait_for(splitter.read(reader), 5.0):
                    cumulative = ack.cumulative
            await asyncio.sleep(3 * reliable.ACK_DELAY)
            writer.close()
            return seq, sink.times[-1] - sink.times[0], net.link_stats.acks_sent
        finally:
            await net.close()

    frames, span, acks = asyncio.run(main())
    assert frames >= 5
    # Each ack is armed by a frame that arrived at least ACK_DELAY after the
    # one that armed the previous ack.
    assert 1 <= acks <= math.ceil(span / reliable.ACK_DELAY) + 1


def test_a_heartbeat_is_acked_without_waiting(monkeypatch):
    monkeypatch.setattr(reliable, "ACK_DELAY", 5.0)

    async def main():
        sink = Sink(0)
        net, reader, writer = await node_zero(sink)
        try:
            writer.write(data_frame(1))
            assert await eventually(lambda: len(sink.received) == 1)
            # The data frame's ack is still held ...
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(reader.read(1), 0.2)
            assert net.link_stats.acks_sent == 0
            # ... and a heartbeat is answered at once, covering it.
            writer.write(frame_bytes(CONTROL_SEQ, encode_message(LinkHeartbeat(1))))
            frames = await asyncio.wait_for(FrameSplitter().read(reader), 1.0)
            writer.close()
            return frames, net.link_stats.acks_sent
        finally:
            await net.close()

    frames, acks = asyncio.run(main())
    assert frames == [(CONTROL_SEQ, LinkAck(1))]
    assert acks == 1


def test_no_ack_timer_fires_after_close(monkeypatch):
    monkeypatch.setattr(reliable, "ACK_DELAY", 0.5)
    flushed = []
    flush = TcpNetwork._flush_ack

    def record(self, src, state):
        flushed.append(self._closed)
        flush(self, src, state)

    monkeypatch.setattr(TcpNetwork, "_flush_ack", record)

    async def main():
        sink = Sink(0)
        net, _reader, writer = await node_zero(sink)
        writer.write(data_frame(1))
        assert await eventually(lambda: len(sink.received) == 1)
        assert net._inbound[1].ack_timer is not None  # the ack is held
        await net.close()
        await asyncio.sleep(1.5 * reliable.ACK_DELAY)
        writer.close()

    asyncio.run(main())
    assert flushed == []
