"""Parse once: one vertex body is one ``Vertex`` object per process.

The memo in ``repro.codec.registry`` is keyed by the exact body bytes. These
tests pin what that buys (identity across SEND/ECHO/READY/catch-up) and
what it must never do (merge an equivocator's two vertices, remember a
failure, grow past its bound).
"""

import pytest

from repro.broadcast.bracha import BrachaBroadcast, BrachaMessage
from repro.codec import decode_message, encode_message
from repro.codec.frames import CatchupRequest
from repro.codec.registry import VERTEX_MEMO_BOUND, decode_vertex
from repro.common.config import SystemConfig
from repro.common.errors import WireFormatError
from repro.common.rng import derive_rng
from repro.core.harness import DagRiderDeployment
from repro.dag.vertex import Vertex
from repro.mempool.blocks import Block
from repro.sim.adversary import UniformDelay
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler


def vertex(txs=(b"tx",), round_=1, source=0):
    return Vertex(round_, source, Block(source, round_, tuple(txs)), frozenset({0, 1, 2}))


@pytest.fixture(autouse=True)
def cold_memo():
    decode_vertex.cache_clear()


class WireHost(Process):
    """A Bracha endpoint that sees only what a socket would hand it: every
    message is encoded and decoded again on arrival."""

    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.delivered = []
        self.rbc = BrachaBroadcast(
            pid,
            network.config,
            send=self.send,
            broadcast=self.broadcast,
            deliver=lambda payload, r, s: self.delivered.append(payload),
        )

    def on_message(self, src, message):
        self.rbc.handle(src, decode_message(encode_message(message)))


class TestIdentity:
    def test_send_echo_and_ready_decode_to_one_object(self):
        original = vertex()
        decoded = [
            decode_message(encode_message(BrachaMessage(kind, 0, 1, original))).payload
            for kind in ("SEND", "ECHO", "READY", "ECHO")
        ]
        assert decoded[0] == original and decoded[0] is not original
        assert all(payload is decoded[0] for payload in decoded)
        assert decode_vertex.cache_info().misses == 1

    def test_catchup_chunks_share_the_object_the_frames_decode_to(self):
        donor = DagRiderDeployment(SystemConfig(n=4, seed=11))
        assert donor.run_until_ordered(12, max_events=600_000)
        chunks = []
        donor.nodes[0].send = lambda dst, message: chunks.append(message)
        donor.nodes[0]._serve_catchup(1, CatchupRequest(from_round=1))

        node = DagRiderDeployment(SystemConfig(n=4, seed=11)).nodes[1]
        node._catchup_pending = {0}
        for chunk in chunks:
            node._apply_catchup(0, decode_message(encode_message(chunk)))
        caught_up = [v for v in node.store.vertices() if v.round >= 1]
        assert caught_up
        for stored in caught_up:
            echo = BrachaMessage("ECHO", stored.source, stored.round, stored)
            assert decode_message(encode_message(echo)).payload is stored


class TestEquivocation:
    def test_two_bodies_for_one_slot_stay_two_vertices(self):
        """Keying the memo by ``(round, source)`` would hand the second body
        the first one's object: every process would then echo whichever
        vertex *it* saw first under the other's name."""
        one, other = vertex((b"pay-alice",)), vertex((b"pay-bob",))
        assert one.ref == other.ref
        decoded = [
            decode_message(encode_message(BrachaMessage("SEND", 0, 1, v))).payload
            for v in (one, other, one, other)
        ]
        assert decoded[0] is decoded[2] and decoded[1] is decoded[3]
        assert decoded[0] is not decoded[1]
        assert decoded[0].digest == one.digest != other.digest == decoded[1].digest
        assert decoded[1].block.transactions == (b"pay-bob",)

    def test_bracha_over_the_wire_delivers_at_most_one_of_them(self):
        config = SystemConfig(n=4, seed=3, byzantine=frozenset({0}))
        scheduler = Scheduler()
        network = Network(scheduler, config, UniformDelay(derive_rng(3, "d")))
        hosts = [WireHost(pid, network) for pid in range(4)]
        one, other = vertex((b"pay-alice",)), vertex((b"pay-bob",))
        # The equivocator: ``one`` to processes 1 and 2 (and its own echo
        # for it, enough for a quorum), ``other`` to process 3.
        for dst, sent in ((1, one), (2, one), (3, other)):
            network.send(0, dst, BrachaMessage("SEND", 0, 1, sent))
            network.send(0, dst, BrachaMessage("ECHO", 0, 1, one))
        scheduler.run(max_events=10_000)
        delivered = [host.delivered for host in hosts[1:]]
        assert all(len(payloads) == 1 for payloads in delivered)
        assert {payloads[0].digest for payloads in delivered} == {one.digest}
        # ... and the three replicas hold one object, not three copies.
        assert delivered[0][0] is delivered[1][0] is delivered[2][0]


class TestMemo:
    def test_a_malformed_body_raises_every_time(self):
        frame = encode_message(BrachaMessage("ECHO", 0, 1, vertex()))
        # Drop the block's last byte and patch the body's length prefix.
        body = vertex().to_bytes()
        head = frame[: len(frame) - len(body) - 4]
        damaged = head + (len(body) - 1).to_bytes(4, "big") + body[:-1]
        for _ in range(3):
            with pytest.raises(WireFormatError):
                decode_message(damaged)
        assert decode_vertex.cache_info().currsize == 0
        assert decode_message(frame).payload == vertex()

    def test_never_holds_more_than_its_bound(self):
        bodies = [
            vertex((b"tx-%d" % i,), round_=1 + i).to_bytes()
            for i in range(VERTEX_MEMO_BOUND + 40)
        ]
        first = decode_vertex(bodies[0])
        for body in bodies:
            decode_vertex(body)
            assert decode_vertex.cache_info().currsize <= VERTEX_MEMO_BOUND
        assert decode_vertex.cache_info().currsize == VERTEX_MEMO_BOUND
        # Evicted, not lost: the oldest body parses again to an equal vertex.
        again = decode_vertex(bodies[0])
        assert again == first and again is not first
