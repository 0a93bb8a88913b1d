"""Type-tagged encoders/decoders for every protocol message.

Frame layout: ``1-byte type tag || type-specific body``. Payloads carried
inside messages (vertices, blocks) use their own canonical codecs behind a
1-byte payload tag, so nested messages (a Bracha ECHO carrying a vertex)
round-trip without pickle. The baseline SMRs (:mod:`repro.baselines`) run
only under the simulator, which moves objects and never encodes, so their
message types have no frames: message tags 6-10 and payload tag 3 are
unassigned and decode as unknown tags.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from repro.broadcast.avid import AvidMessage
from repro.broadcast.base import Payload
from repro.broadcast.bracha import BrachaMessage
from repro.broadcast.gossip import GossipMessage, GossipSubscribe
from repro.codec.frames import (
    CatchupRequest,
    CatchupVertices,
    LinkAck,
    LinkHeartbeat,
)
from repro.codec.primitives import (
    Reader,
    encode_bool,
    encode_bytes,
    encode_str,
    encode_uint,
)
from repro.coin.threshold import CoinShareMessage
from repro.common.errors import WireFormatError
from repro.dag.vertex import Vertex
from repro.mempool.blocks import Block
from repro.sim.wire import Message

# --------------------------------------------------------------- payloads

#: Vertices the parse-once memo below holds. One vertex reaches a process
#: as a SEND, up to n ECHOs and n READYs (and again in catch-up chunks), all
#: within a few rounds of each other, so the memo only has to span the
#: rounds in flight: 256 is 64 rounds at n = 4 and ten at n = 25, and at
#: most a few MB of full 64-transaction blocks.
VERTEX_MEMO_BOUND = 256


@lru_cache(maxsize=VERTEX_MEMO_BOUND)
def decode_vertex(body: bytes) -> Vertex:
    """Parse a canonical vertex body once per process.

    Keyed by the exact bytes, never by ``(round, source)``: an
    equivocator's two vertices for one slot stay two objects with two
    digests. Every frame that repeats a body — and every replica of an
    in-loop cluster — gets the same immutable :class:`Vertex`, whose
    re-encoding and digest are cached on it. A body that fails to parse
    raises every time it is seen (exceptions are not remembered).
    """
    return Vertex.from_bytes(body)


def _decode_block(body: bytes) -> Block:
    block, end = Block.from_bytes(body)
    if end != len(body):
        raise WireFormatError("trailing bytes after block")
    return block


#: The one payload table: tag -> (type, decode). Tag 0 is "no payload".
_PAYLOADS: dict[int, tuple[type, Callable[[bytes], Payload]]] = {
    1: (Vertex, decode_vertex),
    2: (Block, _decode_block),
}
_PAYLOAD_TAGS: dict[type, int] = {type_: tag for tag, (type_, _) in _PAYLOADS.items()}


def _encode_payload(payload: Payload | None) -> bytes:
    if payload is None:
        return b"\x00"
    tag = _PAYLOAD_TAGS.get(type(payload))
    if tag is None:
        raise WireFormatError(f"unencodable payload {type(payload).__name__}")
    return bytes([tag]) + encode_bytes(payload.to_bytes())


def _decode_payload(reader: Reader) -> Payload | None:
    tag = reader.take(1)[0]
    if not tag:
        return None
    body = reader.bytes_()
    entry = _PAYLOADS.get(tag)
    if entry is None:
        raise WireFormatError(f"unknown payload tag {tag}")
    return entry[1](body)


# --------------------------------------------------------------- messages

def _encode_proof(proof: tuple[bytes, ...]) -> bytes:
    return encode_uint(len(proof), 2) + b"".join(encode_bytes(p) for p in proof)


def _decode_proof(reader: Reader) -> tuple[bytes, ...]:
    count = reader.uint(2)
    return tuple(reader.bytes_() for _ in range(count))


def _enc_bracha(msg: BrachaMessage) -> bytes:
    return (
        encode_str(msg.kind)
        + encode_uint(msg.source, 2)
        + encode_uint(msg.round, 8)
        + _encode_payload(msg.payload)
    )


def _dec_bracha(reader: Reader) -> BrachaMessage:
    kind = reader.str_()
    source = reader.uint(2)
    round_ = reader.uint(8)
    payload = _decode_payload(reader)
    if payload is None:
        raise WireFormatError("bracha message without payload")
    return BrachaMessage(kind, source, round_, payload)


def _enc_gossip(msg: GossipMessage) -> bytes:
    return (
        encode_str(msg.kind)
        + encode_uint(msg.source, 2)
        + encode_uint(msg.round, 8)
        + _encode_payload(msg.payload)
    )


def _dec_gossip(reader: Reader) -> GossipMessage:
    kind = reader.str_()
    source = reader.uint(2)
    round_ = reader.uint(8)
    payload = _decode_payload(reader)
    if payload is None:
        raise WireFormatError("gossip message without payload")
    return GossipMessage(kind, source, round_, payload)


def _enc_subscribe(msg: GossipSubscribe) -> bytes:
    return encode_str(msg.channel)


def _dec_subscribe(reader: Reader) -> GossipSubscribe:
    return GossipSubscribe(reader.str_())


def _enc_avid(msg: AvidMessage) -> bytes:
    return (
        encode_str(msg.kind)
        + encode_uint(msg.source, 2)
        + encode_uint(msg.round, 8)
        + encode_bytes(msg.root)
        + encode_uint(msg.fragment_index, 2)
        + encode_bytes(msg.fragment)
        + _encode_proof(msg.proof)
        + encode_uint(msg.data_len, 4)
    )


def _dec_avid(reader: Reader) -> AvidMessage:
    return AvidMessage(
        reader.str_(),
        reader.uint(2),
        reader.uint(8),
        reader.bytes_(),
        reader.uint(2),
        reader.bytes_(),
        _decode_proof(reader),
        reader.uint(4),
    )


def _enc_coin_share(msg: CoinShareMessage) -> bytes:
    return encode_uint(msg.instance, 8) + encode_uint(msg.value, 17)


def _dec_coin_share(reader: Reader) -> CoinShareMessage:
    return CoinShareMessage(reader.uint(8), reader.uint(17))


def _enc_link_ack(msg: LinkAck) -> bytes:
    return encode_uint(msg.cumulative, 8)


def _dec_link_ack(reader: Reader) -> LinkAck:
    return LinkAck(reader.uint(8))


def _enc_link_heartbeat(msg: LinkHeartbeat) -> bytes:
    return encode_uint(msg.nonce, 8)


def _dec_link_heartbeat(reader: Reader) -> LinkHeartbeat:
    return LinkHeartbeat(reader.uint(8))


def _enc_catchup_request(msg: CatchupRequest) -> bytes:
    return encode_uint(msg.from_round, 8)


def _dec_catchup_request(reader: Reader) -> CatchupRequest:
    return CatchupRequest(reader.uint(8))


def _enc_catchup_vertices(msg: CatchupVertices) -> bytes:
    return (
        encode_uint(len(msg.vertices), 4)
        + b"".join(encode_bytes(vertex) for vertex in msg.vertices)
        + encode_bool(msg.done)
    )


def _dec_catchup_vertices(reader: Reader) -> CatchupVertices:
    count = reader.uint(4)
    vertices = tuple(reader.bytes_() for _ in range(count))
    return CatchupVertices(vertices, reader.bool_())


# --------------------------------------------------------------- registry

# The one frame table: (tag, type, encode, decode). Both lookups below are
# derived from it, so a frame cannot gain an encoder without a decoder.
# Each encoder takes the concrete type of its own row, so the common
# column type erases the parameter to Any.
_FRAMES: tuple[
    tuple[int, type[Message], Callable[[Any], bytes], Callable[[Reader], Message]], ...
] = (
    (1, BrachaMessage, _enc_bracha, _dec_bracha),
    (2, GossipSubscribe, _enc_subscribe, _dec_subscribe),
    (3, GossipMessage, _enc_gossip, _dec_gossip),
    (4, AvidMessage, _enc_avid, _dec_avid),
    (5, CoinShareMessage, _enc_coin_share, _dec_coin_share),
    (11, LinkAck, _enc_link_ack, _dec_link_ack),
    (12, LinkHeartbeat, _enc_link_heartbeat, _dec_link_heartbeat),
    (13, CatchupRequest, _enc_catchup_request, _dec_catchup_request),
    (14, CatchupVertices, _enc_catchup_vertices, _dec_catchup_vertices),
)
_REGISTRY: dict[type[Message], tuple[int, Callable[[Any], bytes]]] = {
    type_: (tag, encode) for tag, type_, encode, _ in _FRAMES
}
_DECODERS: dict[int, Callable[[Reader], Message]] = {
    tag: decode for tag, _, _, decode in _FRAMES
}


def encode_message(message: Message) -> bytes:
    """Encode any registered protocol message to its canonical frame."""
    entry = _REGISTRY.get(type(message))
    if entry is None:
        raise WireFormatError(f"unencodable message {type(message).__name__}")
    tag, encoder = entry
    return bytes([tag]) + encoder(message)


def decode_message(data: bytes) -> Message:
    """Decode a canonical frame; rejects trailing bytes."""
    reader = Reader(data)
    tag = reader.take(1)[0]
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise WireFormatError(f"unknown message tag {tag}")
    message = decoder(reader)
    reader.expect_end()
    return message
