"""Codec robustness: arbitrary bytes must fail cleanly, never crash oddly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import decode_message, encode_message
from repro.common.errors import WireFormatError


class TestDecodeFuzz:
    def test_nested_slot_headers_raise_wire_format_error(self):
        """5 000 nested tag-10 headers (45 KB): the decoder used to recurse
        once per header and die of RecursionError, which no reader task
        catches; one level of nesting is already malformed."""
        from repro.baselines.smr import SlotMessage
        from repro.broadcast.gossip import GossipSubscribe

        header = b"\x0a" + (0).to_bytes(8, "big")
        for depth in (2, 5000):
            with pytest.raises(WireFormatError, match="tag 10"):
                decode_message(header * depth)
        once = SlotMessage(3, GossipSubscribe("topic"))
        assert decode_message(encode_message(once)) == once
        with pytest.raises(WireFormatError):
            decode_message(encode_message(SlotMessage(4, once)))

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
        from repro.baselines.vaba import VabaMessage
        from repro.mempool.blocks import Block

        frame = bytearray(
            encode_message(VabaMessage("PROMOTE", 1, 2, Block(0, 1, (base,))))
        )
        frame[position % len(frame)] ^= 0xFF
        try:
            decode_message(bytes(frame))
        except WireFormatError:
            pass
