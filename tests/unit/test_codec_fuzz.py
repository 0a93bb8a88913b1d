"""Codec robustness: arbitrary bytes must fail cleanly, never crash oddly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.bracha import BrachaMessage
from repro.codec import decode_message, encode_message
from repro.codec.registry import decode_vertex
from repro.common.errors import WireFormatError
from repro.dag.vertex import Ref, Vertex
from repro.mempool.blocks import Block


def outcome(decode, data):
    try:
        return decode(data)
    except WireFormatError as exc:
        return str(exc)


def decode_both_ways(frame):
    """``decode_message`` with a cold vertex memo (a plain parse), then
    again memoised: the same message or the same error, never anything but
    ``WireFormatError``."""
    decode_vertex.cache_clear()
    cold = outcome(decode_message, frame)
    assert outcome(decode_message, frame) == cold
    return cold


class TestDecodeFuzz:
    def test_baseline_smr_tags_are_unknown_tags(self):
        """Tags 6-10 (and payload tag 3) framed the baseline SMRs' messages,
        which run only under the simulator and are never encoded: from a
        socket they are unknown tags like any other. (5 000 nested tag-10
        slot headers once recursed the decoder into a RecursionError that
        no reader task catches.)"""
        for tag in range(6, 11):
            with pytest.raises(WireFormatError, match=f"unknown message tag {tag}$"):
                decode_message(bytes([tag]) + bytes(16))
        with pytest.raises(WireFormatError, match="unknown message tag 10$"):
            decode_message((b"\x0a" + bytes(8)) * 5000)
        echo = bytearray(encode_message(BrachaMessage("ECHO", 1, 2, Block(0, 1))))
        payload_tag = len(echo) - len(Block(0, 1).to_bytes()) - 5
        assert echo[payload_tag] == 2
        echo[payload_tag] = 3
        with pytest.raises(WireFormatError, match="unknown payload tag 3$"):
            decode_message(bytes(echo))

    @settings(max_examples=200)
    @given(st.binary(min_size=0, max_size=200))
    def test_random_bytes_raise_wire_format_error_or_decode(self, data):
        """Garbage either decodes (a valid frame by chance) or raises
        WireFormatError — never any other exception type."""
        decode_both_ways(data)

    @settings(max_examples=60)
    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0, max_value=50))
    def test_truncation_of_valid_frames(self, payload, cut):
        from repro.broadcast.gossip import GossipSubscribe

        frame = encode_message(GossipSubscribe(payload.decode("latin1")))
        truncated = frame[: max(1, len(frame) - 1 - cut % len(frame))]
        if truncated == frame:
            return
        # Only acceptable if truncation produced another valid frame.
        assert decode_both_ways(truncated) is not None

    @settings(max_examples=60)
    @given(st.binary(min_size=2, max_size=120), st.integers(min_value=0, max_value=119))
    def test_bit_flips_never_crash(self, base, position):
        frame = bytearray(
            encode_message(BrachaMessage("SEND", 1, 2, Block(0, 1, (base,))))
        )
        frame[position % len(frame)] ^= 0xFF
        decode_both_ways(bytes(frame))

    @settings(max_examples=200)
    @given(
        st.lists(st.binary(max_size=20), max_size=3),
        st.integers(min_value=0, max_value=399),
        st.integers(min_value=0, max_value=7),
    )
    def test_memoised_and_plain_vertex_parse_agree(self, txs, position, bit):
        """One flipped bit anywhere in a vertex-bearing frame: the memo (cold,
        then warm) and ``Vertex.from_bytes`` give the same vertex or the
        same error, and a body that failed is parsed afresh each time."""
        vertex = Vertex(
            3, 1, Block(1, 3, tuple(txs)), frozenset({0, 1, 2}),
            frozenset({Ref(2, 1)}), coin_share=77,
        )
        frame = bytearray(encode_message(BrachaMessage("ECHO", 1, 3, vertex)))
        body_at = len(frame) - len(vertex.to_bytes())
        frame[position % len(frame)] ^= 1 << bit
        decode_both_ways(bytes(frame))
        body = bytes(frame[body_at:])
        plain = outcome(Vertex.from_bytes, body)
        decode_vertex.cache_clear()
        assert outcome(decode_vertex, body) == plain  # miss
        assert outcome(decode_vertex, body) == plain  # hit, or a fresh failure
        failed = isinstance(plain, str)
        assert decode_vertex.cache_info().currsize == (0 if failed else 1)
