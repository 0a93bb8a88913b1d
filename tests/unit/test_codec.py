"""Canonical binary codec: round-trips for every message type with a frame."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.broadcast.avid import AvidMessage
from repro.broadcast.bracha import BrachaMessage
from repro.broadcast.gossip import GossipMessage, GossipSubscribe
from repro.codec import decode_message, encode_message
from repro.codec.frames import CatchupRequest, CatchupVertices, LinkAck, LinkHeartbeat
from repro.codec.primitives import Reader, encode_bytes, encode_uint
from repro.codec.registry import _FRAMES, _PAYLOAD_TAGS
from repro.coin.threshold import CoinShareMessage
from repro.common.errors import WireFormatError
from repro.dag.vertex import Ref, Vertex
from repro.mempool.blocks import Block


def sample_vertex():
    return Vertex(
        5,
        2,
        Block(2, 5, (b"tx-a", b"tx-b")),
        frozenset({0, 1, 3}),
        frozenset({Ref(1, 2)}),
        coin_share=987654321,
    )


SAMPLES = [
    BrachaMessage("ECHO", 2, 5, sample_vertex()),
    BrachaMessage("SEND", 0, 1, sample_vertex()),
    GossipSubscribe("echo"),
    GossipMessage("READY", 1, 9, sample_vertex()),
    AvidMessage("VAL", 0, 3, b"\x11" * 32, 2, b"frag-bytes", (b"\x22" * 32,), 123),
    CoinShareMessage(7, 2**127 + 5),
    GossipMessage("SEND", 3, 4, Block(3, 4, (b"tx-c",))),
    LinkAck(41),
    LinkHeartbeat(9),
    CatchupRequest(12),
    CatchupVertices((sample_vertex().to_bytes(),), done=True),
]


class TestRoundTrips:
    @pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__ + getattr(m, "kind", ""))
    def test_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    @given(
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=2**63),
        st.lists(st.binary(max_size=30), max_size=5),
    )
    def test_bracha_with_random_blocks(self, source, round_, txs):
        vertex = Vertex(
            max(1, round_ % 1000),
            source % 100,
            Block(source, round_, tuple(txs)),
            frozenset({0, 1, 2}),
        )
        message = BrachaMessage("ECHO", source % 100, round_, vertex)
        assert decode_message(encode_message(message)) == message


class TestTables:
    def test_tags_and_types_are_unique_across_the_frame_table(self):
        assert len({row[0] for row in _FRAMES}) == len({row[1] for row in _FRAMES}) == len(_FRAMES)

    def test_every_frame_and_payload_type_has_a_round_trip_sample(self):
        assert {type(message) for message in SAMPLES} == {row[1] for row in _FRAMES}
        payloads = {type(getattr(message, "payload", None)) for message in SAMPLES}
        assert payloads - {type(None)} == set(_PAYLOAD_TAGS)


class TestErrors:
    def test_unknown_tag_rejected(self):
        with pytest.raises(WireFormatError):
            decode_message(b"\xff\x00")

    def test_trailing_bytes_rejected(self):
        frame = encode_message(GossipSubscribe("echo"))
        with pytest.raises(WireFormatError):
            decode_message(frame + b"\x00")

    def test_truncated_rejected(self):
        frame = encode_message(SAMPLES[0])
        with pytest.raises(WireFormatError):
            decode_message(frame[: len(frame) // 2])

    def test_unregistered_type_rejected(self):
        class Unknown:
            pass

        with pytest.raises(WireFormatError):
            encode_message(Unknown())  # type: ignore[arg-type]


class TestPrimitives:
    def test_uint_width_overflow(self):
        with pytest.raises(WireFormatError):
            encode_uint(256, 1)
        with pytest.raises(WireFormatError):
            encode_uint(-1, 4)

    def test_reader_sequencing(self):
        data = encode_uint(5, 2) + encode_bytes(b"abc")
        reader = Reader(data)
        assert reader.uint(2) == 5
        assert reader.bytes_() == b"abc"
        reader.expect_end()

    def test_reader_truncation(self):
        reader = Reader(b"\x00")
        with pytest.raises(WireFormatError):
            reader.uint(4)

    def test_reader_bad_bool(self):
        reader = Reader(b"\x07")
        with pytest.raises(WireFormatError):
            reader.bool_()
