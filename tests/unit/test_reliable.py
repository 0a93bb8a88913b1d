"""Reliable-link layer: framing, chaos determinism, acks, lifecycle."""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.gossip import GossipSubscribe
from repro.codec import decode_message, encode_message
from repro.codec.frames import LinkAck, LinkHeartbeat
from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError, WireFormatError
from repro.obs.context import Observability
from repro.obs.stream import DEFAULT_STREAM_CAPACITY
from repro.runtime import reliable
from repro.runtime.chaos import NO_FAULT, ChaosConfig, ChaosTransport, FrameFate
from repro.runtime.peers import allocate_port_block, make_peer_table
from repro.runtime.reliable import (
    CONNECTION_ERRORS,
    CONTROL_SEQ,
    HANDSHAKE,
    HEADER,
    SEQ,
    FrameSplitter,
    LinkStats,
    frame_bytes,
)
from repro.runtime.runner import ControlServer, NodeRunner
from repro.runtime.transport import MAX_PEER_DELAY, TcpNetwork



class Sink:
    """Minimal process: records everything the network delivers."""

    def __init__(self, pid: int):
        self.pid = pid
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


def make_pair(n=2, seed=7, chaos=None):
    ports = allocate_port_block(n)
    peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(n)}
    config = SystemConfig(n=n, seed=seed)
    obs = Observability()
    nets = [
        TcpNetwork(config, pid, peers, obs=obs, chaos=chaos) for pid in range(n)
    ]
    sinks = [Sink(pid) for pid in range(n)]
    for net, sink in zip(nets, sinks):
        net.register(sink)
    return nets, sinks


def patch_links(monkeypatch, **constants):
    """Shorten the link timings for one test (``ReliableLink`` reads the
    module constants each time it uses them)."""
    for name, value in constants.items():
        monkeypatch.setattr(reliable, name, value)


async def eventually(predicate, timeout=10.0, poll=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(poll)
    return predicate()


class TestFraming:
    def test_frame_layout(self):
        payload = encode_message(GossipSubscribe("hello"))
        frame = frame_bytes(9, payload)
        (length,) = HEADER.unpack(frame[: HEADER.size])
        assert length == SEQ.size + len(payload)
        (seq,) = SEQ.unpack(frame[HEADER.size : HEADER.size + SEQ.size])
        assert seq == 9
        assert decode_message(frame[HEADER.size + SEQ.size :]) == GossipSubscribe(
            "hello"
        )

    def test_link_control_frames_round_trip(self):
        for message in (LinkAck(123456), LinkHeartbeat(7)):
            assert decode_message(encode_message(message)) == message
            assert message.wire_size(4) > 0

    def test_link_stats_as_dict(self):
        stats = LinkStats()
        stats.reconnects += 2
        as_dict = stats.as_dict()
        assert as_dict["reconnects"] == 2
        for key in ("retries", "redeliveries", "duplicates_dropped", "control_bits"):
            assert key in as_dict


#: One frame of each kind the links carry, as ``(seq, message)``.
DATA = st.builds(
    lambda seq, channel: (seq, GossipSubscribe(channel)),
    st.integers(1, 2**64 - 1),
    st.text(max_size=40),
)
ACK = st.builds(lambda cumulative: (CONTROL_SEQ, LinkAck(cumulative)),
                st.integers(0, 2**64 - 1))
HEARTBEAT = st.builds(lambda nonce: (CONTROL_SEQ, LinkHeartbeat(nonce)),
                      st.integers(0, 2**64 - 1))
#: A catch-up answer's size: more than one read of a link's stream.
LARGE = st.just((7, GossipSubscribe("x" * (1 << 20))))


def wire(frames):
    return b"".join(frame_bytes(seq, encode_message(message)) for seq, message in frames)


def split(stream, cuts):
    """Feed ``stream`` to one splitter in the reads ``cuts`` make of it."""
    splitter = FrameSplitter()
    bounds = [0, *sorted(set(cuts)), len(stream)]
    out = []
    for start, end in zip(bounds, bounds[1:]):
        if end > start:
            out += splitter.feed(stream[start:end])
    return out


class TestFrameSplitter:
    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(st.one_of(DATA, ACK, HEARTBEAT, LARGE), max_size=8),
        cuts=st.lists(st.integers(0, 1 << 21), max_size=40),
    )
    def test_any_chunking_yields_the_same_frames(self, frames, cuts):
        stream = wire(frames)
        # Cut points past the end fall on it; two adjacent ones make a 1-byte read.
        assert split(stream, [cut % (len(stream) + 1) for cut in cuts]) == frames

    @settings(max_examples=20, deadline=None)
    @given(frames=st.lists(st.one_of(DATA, ACK, HEARTBEAT), max_size=6))
    def test_one_byte_reads_yield_the_same_frames(self, frames):
        stream = wire(frames)
        assert split(stream, range(len(stream))) == frames

    def test_a_large_frame_in_64_kib_reads(self):
        frames = [(1, GossipSubscribe("a")), (2, GossipSubscribe("y" * (3 << 20))),
                  (CONTROL_SEQ, LinkAck(2))]
        stream = wire(frames)
        assert split(stream, range(0, len(stream), 1 << 16)) == frames

    @pytest.mark.parametrize("length", [0, 1, SEQ.size - 1])
    def test_a_length_below_a_sequence_number_is_refused(self, length):
        splitter = FrameSplitter()
        good = frame_bytes(1, encode_message(GossipSubscribe("ok")))
        with pytest.raises(WireFormatError, match="short link frame"):
            splitter.feed(good + HEADER.pack(length) + b"\0" * length)

    @pytest.mark.parametrize("cut", [0, 3, HEADER.size, HEADER.size + SEQ.size + 1])
    def test_end_of_stream_inside_a_frame_is_a_connection_error(self, cut):
        async def main():
            reader = asyncio.StreamReader()
            whole = frame_bytes(1, encode_message(GossipSubscribe("a")))
            reader.feed_data(whole + whole[:cut])
            reader.feed_eof()
            splitter = FrameSplitter()
            assert await splitter.read(reader) == [(1, GossipSubscribe("a"))]
            with pytest.raises(CONNECTION_ERRORS) as caught:
                await splitter.read(reader)
            return caught.value

        error = asyncio.run(main())
        assert isinstance(error, asyncio.IncompleteReadError)
        assert len(error.partial) == cut


class TestConfigs:
    def test_chaos_config_rejects_bad_rates(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(drop_rate=1.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(sever_every=0)
        # A planned delay is a positive wait, so every counted delay is one
        # the link records as ``chaos_delay``.
        with pytest.raises(ConfigurationError, match="max_delay"):
            ChaosConfig(delay_rate=0.5, max_delay=0.0)


class TestChaosDeterminism:
    def test_same_seed_same_schedule(self):
        config = ChaosConfig(
            drop_rate=0.3, duplicate_rate=0.2, delay_rate=0.2, dial_fail_rate=0.3
        )
        a = ChaosTransport(99, config)
        b = ChaosTransport(99, config)
        fates_a = [a.plan(0, 1, seq) for seq in range(1, 200)]
        fates_b = [b.plan(0, 1, seq) for seq in range(1, 200)]
        assert fates_a == fates_b
        dials_a = [a.fail_dial(2, 3, k) for k in range(1, 50)]
        dials_b = [b.fail_dial(2, 3, k) for k in range(1, 50)]
        assert dials_a == dials_b

    def test_different_seeds_differ(self):
        config = ChaosConfig(drop_rate=0.3)
        a = ChaosTransport(1, config)
        b = ChaosTransport(2, config)
        fates_a = [a.plan(0, 1, seq).drop for seq in range(1, 300)]
        fates_b = [b.plan(0, 1, seq).drop for seq in range(1, 300)]
        assert fates_a != fates_b

    def test_links_are_independent_streams(self):
        config = ChaosConfig(drop_rate=0.5)
        chaos = ChaosTransport(5, config)
        drops_01 = [chaos.plan(0, 1, seq).drop for seq in range(1, 200)]
        drops_10 = [chaos.plan(1, 0, seq).drop for seq in range(1, 200)]
        assert drops_01 != drops_10

    def test_drop_rate_concentrates(self):
        chaos = ChaosTransport(11, ChaosConfig(drop_rate=0.25))
        drops = sum(chaos.plan(0, 1, seq).drop for seq in range(1, 2001))
        assert 0.18 <= drops / 2000 <= 0.32
        assert chaos.drop_fraction() == drops / 2000

    def test_retransmissions_pass_clean(self):
        chaos = ChaosTransport(3, ChaosConfig(drop_rate=0.999, duplicate_rate=0.5))
        first = chaos.plan(0, 1, 1)
        assert first.drop
        again = chaos.plan(0, 1, 1)  # retransmission of the same frame
        assert not again.drop and not again.duplicate and again.delay == 0.0
        assert chaos.first_attempts == 1

    def test_sever_cadence_counts_first_writes_only(self):
        chaos = ChaosTransport(4, ChaosConfig(sever_every=10))
        cuts = sum(chaos.plan(0, 1, seq).sever for seq in range(1, 31))
        assert cuts == 3
        # Rewriting old frames (a redelivery burst) never triggers a cut.
        assert not any(chaos.plan(0, 1, seq).sever for seq in range(1, 31))
        assert chaos.severs == 3

    def test_sever_cadence_skips_dropped_frames(self):
        chaos = ChaosTransport(6, ChaosConfig(drop_rate=0.4, sever_every=3))
        fates = [chaos.plan(0, 1, seq) for seq in range(1, 301)]
        kept = [fate for fate in fates if not fate.drop]
        assert 0 < chaos.drops < 300
        # One plan per frame decides both: a dropped frame is never also
        # severed, and every third frame chaos kept is.
        assert [fate.sever for fate in kept] == [
            index % 3 == 2 for index in range(len(kept))
        ]
        assert chaos.severs == len(kept) // 3


class TestReliableDelivery:
    def test_in_order_delivery_with_acks_and_heartbeats(self, monkeypatch):
        patch_links(monkeypatch, HEARTBEAT_INTERVAL=0.05, HEARTBEAT_TIMEOUT=2.0)

        async def main():
            nets, sinks = make_pair()
            await nets[1].start()
            for i in range(50):
                nets[0].send(0, 1, GossipSubscribe(f"m{i}"))
            assert await eventually(lambda: len(sinks[1].received) == 50)
            assert [m.channel for _, m in sinks[1].received] == [
                f"m{i}" for i in range(50)
            ]
            # Cumulative acks flowed back and the idle link heartbeats.
            assert await eventually(
                lambda: nets[0].link_stats.acks_received > 0
                and nets[0].link_stats.heartbeats_sent > 0
            )
            assert nets[1].link_stats.acks_sent > 0
            assert nets[0].link_stats.control_bits > 0
            # Control traffic never enters the §3 protocol accounting.
            assert "LinkAck" not in nets[0].metrics.bits_by_tag
            assert "LinkHeartbeat" not in nets[0].metrics.bits_by_tag
            for net in nets:
                await net.close()
                await net.close()  # idempotent

        asyncio.run(main())

    def test_sever_triggers_reconnect_and_redelivery(self, monkeypatch):
        patch_links(monkeypatch, INITIAL_BACKOFF=0.01, MAX_BACKOFF=0.1)

        async def main():
            nets, sinks = make_pair()
            await nets[1].start()
            for i in range(20):
                nets[0].send(0, 1, GossipSubscribe(f"a{i}"))
            assert await eventually(lambda: len(sinks[1].received) == 20)
            assert nets[0].sever_connections() >= 1
            for i in range(20):
                nets[0].send(0, 1, GossipSubscribe(f"b{i}"))
            assert await eventually(lambda: len(sinks[1].received) == 40)
            assert nets[0].link_stats.reconnects >= 1
            names = [m.channel for _, m in sinks[1].received]
            assert names == [f"a{i}" for i in range(20)] + [
                f"b{i}" for i in range(20)
            ]
            for net in nets:
                await net.close()

        asyncio.run(main())

    def test_chaos_duplicates_are_discarded(self):
        async def main():
            chaos = ChaosTransport(13, ChaosConfig(duplicate_rate=0.9))
            nets, sinks = make_pair(chaos=chaos)
            await nets[1].start()
            for i in range(30):
                nets[0].send(0, 1, GossipSubscribe(f"m{i}"))
            assert await eventually(lambda: len(sinks[1].received) == 30)
            assert chaos.duplicates > 0
            assert nets[1].link_stats.duplicates_dropped >= chaos.duplicates
            for net in nets:
                await net.close()

        asyncio.run(main())

    def test_degraded_peer_bounds_queue_then_recovers(self, monkeypatch):
        patch_links(
            monkeypatch,
            INITIAL_BACKOFF=0.01,
            MAX_BACKOFF=0.03,
            DEGRADE_AFTER=0.15,
            MAX_DEGRADED_QUEUE=5,
        )

        async def main():
            nets, sinks = make_pair()
            # Peer 1 is down: nobody listens on its port yet.
            for i in range(25):
                nets[0].send(0, 1, GossipSubscribe(f"m{i}"))
            assert await eventually(
                lambda: 1 in nets[0].degraded_peers, timeout=5.0
            )
            assert nets[0].queue_depth <= 5
            assert nets[0].link_stats.dropped_degraded >= 20
            assert nets[0].link_stats.retries > 0
            # The peer comes back: the bounded tail is delivered, the link
            # un-degrades, and the receiver records the loss as a gap.
            await nets[1].start()
            assert await eventually(lambda: len(sinks[1].received) >= 5)
            assert await eventually(lambda: not nets[0].degraded_peers)
            assert nets[1].link_stats.gaps >= 1
            for net in nets:
                await net.close()

        asyncio.run(main())


class FaultAtThird:
    """Chaos that gives frame 3's first transmission ``fate`` and leaves
    every other frame (and every dial) alone."""

    def __init__(self, fate):
        self.fate = fate
        self.planned = []

    def plan(self, src, dst, seq):
        first = seq not in self.planned
        self.planned.append(seq)
        return self.fate if seq == 3 and first else NO_FAULT

    def fail_dial(self, src, dst, attempt):
        return False


class TestBurstWrites:
    def test_a_burst_leaves_in_one_write(self, monkeypatch):
        writes = []
        write, writelines = asyncio.StreamWriter.write, asyncio.StreamWriter.writelines

        def record_write(self, data):
            writes.append(bytes(data))
            write(self, data)

        def record_writelines(self, parts):
            writes.append(b"".join(parts))
            writelines(self, parts)

        monkeypatch.setattr(asyncio.StreamWriter, "write", record_write)
        monkeypatch.setattr(asyncio.StreamWriter, "writelines", record_writelines)
        messages = [GossipSubscribe(f"m{i}") for i in range(20)]
        expected = wire(list(zip(range(1, 21), messages)))

        async def main():
            ports = allocate_port_block(2)
            peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(2)}
            received = bytearray()
            done = asyncio.Event()

            async def raw_peer(reader, writer):
                await reader.readexactly(HANDSHAKE.size)
                while len(received) < len(expected):
                    received.extend(await reader.read(1 << 16))
                done.set()
                writer.close()

            server = await asyncio.start_server(raw_peer, *peers[1])
            net = TcpNetwork(SystemConfig(n=2, seed=1), 0, peers, obs=Observability())
            try:
                for message in messages:  # one loop turn
                    net.send(0, 1, message)
                await asyncio.wait_for(done.wait(), 10.0)
            finally:
                await net.close()
                server.close()
            return bytes(received)

        assert asyncio.run(main()) == expected
        handshake, *data = writes
        assert len(handshake) == HANDSHAKE.size
        assert data == [expected]  # one writer call carries all 20 frames

    @pytest.mark.parametrize("fault", ["drop", "duplicate", "sever"])
    def test_a_fault_lands_on_its_own_frame(self, fault):
        """Frames 1-2 leave before frame 3's fault; after it, 3-6 arrive
        exactly once and in order, on a new connection when the fault cut
        the old one."""
        chaos = FaultAtThird(FrameFate(**{fault: True}))

        async def main():
            ports = allocate_port_block(2)
            peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(2)}
            obs = Observability()
            sender = TcpNetwork(SystemConfig(n=2, seed=1), 0, peers, obs=obs, chaos=chaos)
            receiver = TcpNetwork(SystemConfig(n=2, seed=1), 1, peers, obs=obs)
            arrivals = []

            class Recorder:
                pid = 1

                def on_message(self, src, message):
                    # Which accepted connection carried the frame (held, so
                    # no later connection can reuse its id).
                    arrivals.append((message.channel, receiver._inbound[src]))

            sender.register(Sink(0))
            receiver.register(Recorder())
            await receiver.start()
            try:
                for i in range(1, 7):
                    sender.send(0, 1, GossipSubscribe(f"m{i}"))
                assert await eventually(lambda: len(arrivals) >= 6)
                await asyncio.sleep(0.05)  # anything extra would show now
            finally:
                await sender.close()
                await receiver.close()
            return arrivals, sender.link_stats, receiver.link_stats, obs.bus.events

        arrivals, sent, received, events = asyncio.run(main())
        assert [channel for channel, _ in arrivals] == [f"m{i}" for i in range(1, 7)]
        connection = [id(conn) for _, conn in arrivals]
        assert connection[0] == connection[1]
        cut_before = {"drop": 2, "sever": 3, "duplicate": None}[fault]
        if cut_before is None:
            assert len(set(connection)) == 1 and received.duplicates_dropped == 1
        else:
            assert len(set(connection[:cut_before])) == 1
            assert len(set(connection[cut_before:])) == 1
            assert connection[cut_before - 1] != connection[cut_before]
            assert sent.reconnects == 1
        faults = [event for event in events if event.kind.startswith("chaos_")]
        assert [(event.kind, event.get("seq")) for event in faults] == [
            (f"chaos_{fault}", 3)
        ]
        redeliveries = [event for event in events if event.kind == "link_redelivery"]
        assert sum(resent_frames(event) for event in redeliveries) == sent.redeliveries

    def test_a_reconnect_backlog_is_one_redelivery_event(self, monkeypatch):
        """A severed link re-sends more unacked frames than a ``subscribe``
        stream's ring holds. One event per re-sent frame overflowed that
        ring; the burst is one event naming its range."""
        patch_links(monkeypatch, INITIAL_BACKOFF=0.01, HEARTBEAT_TIMEOUT=60.0)
        count = DEFAULT_STREAM_CAPACITY + 1
        messages = [GossipSubscribe(f"m{i}") for i in range(count)]
        size = len(wire(list(zip(range(1, count + 1), messages))))

        async def main():
            ports = allocate_port_block(2)
            peers = {pid: ("127.0.0.1", ports[pid]) for pid in range(2)}
            connections = asyncio.Queue()

            async def raw_peer(reader, writer):
                # Reads every frame and acks none: all of them stay unacked.
                await reader.readexactly(HANDSHAKE.size + size)
                await connections.put(writer)

            server = await asyncio.start_server(raw_peer, *peers[1])
            obs = Observability()
            net = TcpNetwork(SystemConfig(n=2, seed=1), 0, peers, obs=obs)
            try:
                for message in messages:
                    net.send(0, 1, message)
                await asyncio.wait_for(connections.get(), 10.0)
                assert net.sever_connections() == 1
                await asyncio.wait_for(connections.get(), 10.0)
                assert await eventually(lambda: net.link_stats.redeliveries == count)
            finally:
                await net.close()
                server.close()
            return net.link_stats, obs.bus.of_kind("link_redelivery")

        stats, redeliveries = asyncio.run(main())
        assert stats.redeliveries == count > DEFAULT_STREAM_CAPACITY
        assert len(redeliveries) < 10
        assert sum(resent_frames(event) for event in redeliveries) == stats.redeliveries


def resent_frames(event):
    """How many frames one ``link_redelivery`` event re-sent."""
    return event.get("last") - event.get("first") + 1


class TestHandshakeHardening:
    def test_out_of_range_pid_rejected(self):
        async def main():
            nets, sinks = make_pair(n=2)
            await nets[0].start()
            reader, writer = await asyncio.open_connection(*nets[0].peers[0])
            writer.write(HANDSHAKE.pack(77, 1))  # not a pid of this cluster
            payload = encode_message(GossipSubscribe("evil"))
            writer.write(frame_bytes(1, payload))
            await writer.drain()
            assert await eventually(
                lambda: nets[0].link_stats.handshake_rejects == 1
            )
            assert await eventually(lambda: reader.at_eof(), timeout=5.0)
            assert sinks[0].received == []
            writer.close()
            for net in nets:
                await net.close()

        asyncio.run(main())

    def test_self_pid_rejected(self):
        async def main():
            nets, sinks = make_pair(n=2)
            await nets[0].start()
            _reader, writer = await asyncio.open_connection(*nets[0].peers[0])
            writer.write(HANDSHAKE.pack(0, 1))  # claims to be the node itself
            await writer.drain()
            assert await eventually(
                lambda: nets[0].link_stats.handshake_rejects == 1
            )
            writer.close()
            for net in nets:
                await net.close()

        asyncio.run(main())

    def test_garbage_frame_drops_connection_without_delivery(self):
        async def main():
            nets, sinks = make_pair(n=2)
            await nets[0].start()
            reader, writer = await asyncio.open_connection(*nets[0].peers[0])
            writer.write(HANDSHAKE.pack(1, 1))  # valid handshake
            writer.write(HEADER.pack(12) + b"\xff" * 12)  # undecodable frame
            await writer.drain()
            assert await eventually(lambda: reader.at_eof(), timeout=5.0)
            assert sinks[0].received == []
            writer.close()
            for net in nets:
                await net.close()

        asyncio.run(main())

    def test_heartbeat_is_answered_with_a_link_ack(self):
        async def main():
            nets, _sinks = make_pair(n=2)
            await nets[0].start()
            reader, writer = await asyncio.open_connection(*nets[0].peers[0])
            writer.write(HANDSHAKE.pack(1, 1))
            writer.write(frame_bytes(CONTROL_SEQ, encode_message(LinkHeartbeat(5))))
            (length,) = HEADER.unpack(await asyncio.wait_for(reader.readexactly(HEADER.size), 5.0))
            body = await reader.readexactly(length)
            assert SEQ.unpack(body[: SEQ.size]) == (CONTROL_SEQ,)
            assert decode_message(body[SEQ.size :]) == LinkAck(0)
            writer.close()
            for net in nets:
                await net.close()

        asyncio.run(main())

    def test_duplicate_connection_superseded(self):
        async def main():
            nets, sinks = make_pair(n=2)
            await nets[0].start()
            _r1, w1 = await asyncio.open_connection(*nets[0].peers[0])
            w1.write(HANDSHAKE.pack(1, 1))
            await w1.drain()
            _r2, w2 = await asyncio.open_connection(*nets[0].peers[0])
            w2.write(HANDSHAKE.pack(1, 1))
            await w2.drain()
            assert await eventually(
                lambda: nets[0].link_stats.superseded_connections == 1
            )
            # The newest connection carries traffic; the stale one is closed.
            payload = encode_message(GossipSubscribe("fresh"))
            w2.write(frame_bytes(1, payload))
            await w2.drain()
            assert await eventually(lambda: len(sinks[0].received) == 1)
            w1.close()
            w2.close()
            for net in nets:
                await net.close()

        asyncio.run(main())

    def test_new_incarnation_resets_duplicate_cursor(self):
        """A restarted peer's fresh sequence space must not be swallowed.

        The duplicate cursor deliberately survives reconnects (same
        incarnation: redelivered frames are dropped), but a *restarted*
        sender numbers frames from 1 again — the incarnation change in the
        handshake is what tells the two cases apart.
        """

        async def main():
            nets, sinks = make_pair(n=2)
            await nets[0].start()
            _r1, w1 = await asyncio.open_connection(*nets[0].peers[0])
            w1.write(HANDSHAKE.pack(1, 100))  # first boot
            w1.write(frame_bytes(1, encode_message(GossipSubscribe("before"))))
            await w1.drain()
            assert await eventually(lambda: len(sinks[0].received) == 1)

            # Same incarnation, same seq: a redelivery, dropped as duplicate.
            _r2, w2 = await asyncio.open_connection(*nets[0].peers[0])
            w2.write(HANDSHAKE.pack(1, 100))
            w2.write(frame_bytes(1, encode_message(GossipSubscribe("dup"))))
            await w2.drain()
            assert await eventually(
                lambda: nets[0].link_stats.duplicates_dropped == 1
            )
            assert len(sinks[0].received) == 1

            # New incarnation, same seq: a restarted peer, cursor reset.
            _r3, w3 = await asyncio.open_connection(*nets[0].peers[0])
            w3.write(HANDSHAKE.pack(1, 200))
            w3.write(frame_bytes(1, encode_message(GossipSubscribe("reborn"))))
            await w3.drain()
            assert await eventually(lambda: len(sinks[0].received) == 2)
            assert nets[0].link_stats.peer_restarts == 1
            assert sinks[0].received[1][1] == GossipSubscribe("reborn")
            for writer in (w1, w2, w3):
                writer.close()
            for net in nets:
                await net.close()

        asyncio.run(main())


class TestRuntimeFaults:
    def test_peer_first_contacted_during_partition_is_not_dialled(self, monkeypatch):
        """A link created while its peer is partitioned away stays dark
        until ``heal``: the partition is the network's, not the link's."""
        patch_links(monkeypatch, INITIAL_BACKOFF=0.01, MAX_BACKOFF=0.05)

        async def main():
            nets, _sinks = make_pair()
            dials = []

            async def count_dial(reader, writer):
                dials.append(await reader.readexactly(HANDSHAKE.size))
                writer.close()

            peer = await asyncio.start_server(count_dial, *nets[0].peers[1])
            try:
                nets[0].block_peers({1})
                nets[0].send(0, 1, GossipSubscribe("held"))  # first contact
                await asyncio.sleep(0.3)
                assert dials == []
                nets[0].heal()
                assert await eventually(lambda: len(dials) >= 1)
            finally:
                peer.close()
                for net in nets:
                    await net.close()

        asyncio.run(main())

    def test_peer_delay_is_bounded(self):
        async def main():
            nets, _sinks = make_pair()
            for bad in (float("inf"), float("nan"), MAX_PEER_DELAY + 0.5, -0.1):
                with pytest.raises(ValueError):
                    nets[0].set_peer_delay(bad)
            assert nets[0].peer_delay == 0.0
            nets[0].set_peer_delay(MAX_PEER_DELAY)
            assert nets[0].peer_delay == MAX_PEER_DELAY
            for net in nets:
                await net.close()

        asyncio.run(main())

    def test_fault_verbs_refuse_bad_arguments(self, free_peers, free_port):
        """``slow`` with an unbounded delay used to stall the node's links
        forever (a sleep ``heal`` cannot wake), and ``partition`` with a
        string ``peers`` silently blocked the pids of its characters."""
        requests = [
            b'{"cmd": "slow", "delay": 1e999}',
            b'{"cmd": "slow", "delay": NaN}',
            b'{"cmd": "slow", "delay": 2.5}',
            b'{"cmd": "partition", "peers": "12"}',
            b'{"cmd": "partition", "peers": [1, 4]}',
            b'{"cmd": "partition", "peers": [true]}',
            b'{"cmd": "partition", "peers": {"1": 2}}',
        ]
        replies, network = control_replies(requests, free_peers, free_port)
        assert [reply["ok"] for reply in replies] == [False] * len(requests)
        assert "delay must be in [0, 1.0]" in replies[0]["error"]
        assert replies[3]["error"] == "peers must be a list of pids in [0, 4)"
        assert network.peer_delay == 0.0 and network.blocked == frozenset()

    def test_trace_verbs_refuse_non_finite_numbers(self, free_peers, free_port):
        """``subscribe`` with ``interval`` 1e999 wrote ``Infinity`` (not
        JSON) into its header and never ticked."""
        requests = [
            b'{"cmd": "subscribe", "interval": 1e999}',
            b'{"cmd": "subscribe", "interval": NaN}',
        ]
        replies, _ = control_replies(requests, free_peers, free_port)
        assert [reply["ok"] for reply in replies] == [False] * len(requests)
        assert replies[0]["error"] == "interval must be a finite number, got inf"
        assert replies[1]["error"] == "interval must be a finite number, got nan"


def control_replies(requests, free_peers, free_port):
    """Send ``requests`` down one control connection of a booted runner;
    returns the parsed replies and the runner's network."""
    table = make_peer_table(free_peers(4), SystemConfig(n=4, seed=3))
    port = free_port()

    async def main():
        runner = NodeRunner(table, 0, observability=Observability())
        await runner.bind()
        control = ControlServer(runner, "127.0.0.1", port)
        await control.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"\n".join(requests) + b"\n")
        replies = [
            json.loads(await asyncio.wait_for(reader.readline(), 10.0))
            for _ in requests
        ]
        writer.close()
        network = runner.network
        await control.close()
        await runner.close()
        return replies, network

    return asyncio.run(main())


class TestLoopRequirement:
    def test_constructing_outside_a_loop_raises(self):
        config = SystemConfig(n=2, seed=1)
        peers = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}
        with pytest.raises(RuntimeError):
            TcpNetwork(config, 0, peers, obs=Observability())
