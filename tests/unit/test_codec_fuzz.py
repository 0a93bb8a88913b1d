"""Codec robustness: arbitrary bytes must fail cleanly, never crash oddly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.bracha import BrachaMessage
from repro.codec import decode_message, encode_message
from repro.common.errors import WireFormatError
from repro.mempool.blocks import Block


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
        try:
            decode_message(data)
        except WireFormatError:
            pass

    @settings(max_examples=60)
    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0, max_value=50))
    def test_truncation_of_valid_frames(self, payload, cut):
        from repro.broadcast.gossip import GossipSubscribe

        frame = encode_message(GossipSubscribe(payload.decode("latin1")))
        truncated = frame[: max(1, len(frame) - 1 - cut % len(frame))]
        if truncated == frame:
            return
        try:
            decoded = decode_message(truncated)
            # Only acceptable if truncation produced another valid frame.
            assert decoded is not None
        except WireFormatError:
            pass

    @settings(max_examples=60)
    @given(st.binary(min_size=2, max_size=120), st.integers(min_value=0, max_value=119))
    def test_bit_flips_never_crash(self, base, position):
        frame = bytearray(
            encode_message(BrachaMessage("SEND", 1, 2, Block(0, 1, (base,))))
        )
        frame[position % len(frame)] ^= 0xFF
        try:
            decode_message(bytes(frame))
        except WireFormatError:
            pass
