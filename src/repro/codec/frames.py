"""Link-control frames for the TCP runtime's reliable links.

These are transport-plumbing messages — cumulative acknowledgements and
liveness heartbeats exchanged by :mod:`repro.runtime.reliable` — not part of
the DAG-Rider protocol. They live in the codec package (rather than
``repro.runtime``) so the type-tag registry can encode them without an
import cycle through the runtime package.

Their bits are accounted in :class:`repro.runtime.reliable.LinkStats`
(``control_bits``), never in :class:`repro.obs.wire.MetricsCollector`,
so the paper's §3 communication-complexity numbers are unaffected by the
reliability layer's overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.wire import BITS_PER_TAG, Message


@dataclass(frozen=True)
class LinkAck(Message):
    """Cumulative ack: every data frame with ``seq <= cumulative`` arrived."""

    cumulative: int

    def wire_size(self, n: int) -> int:
        return BITS_PER_TAG + 64


@dataclass(frozen=True)
class LinkHeartbeat(Message):
    """Keep-alive probe sent on idle links; the peer answers with an ack."""

    nonce: int

    def wire_size(self, n: int) -> int:
        return BITS_PER_TAG + 64


@dataclass(frozen=True)
class CatchupRequest(Message):
    """A restarted node asking a peer for its DAG from ``from_round`` up.

    Reliable-link redelivery only covers frames the peer still holds
    unacked; everything a node missed while dead must be re-fetched
    explicitly. The responder answers with one or more
    :class:`CatchupVertices` frames, the last one flagged ``done``.
    """

    from_round: int

    def wire_size(self, n: int) -> int:
        return BITS_PER_TAG + 64


@dataclass(frozen=True)
class CatchupVertices(Message):
    """One chunk of a catch-up response: canonical vertex encodings.

    Vertices arrive in (round, source) order so the requester's buffer can
    insert each one as soon as its parents land (the normal ``can_add``
    path also deduplicates anything the requester already has). Responses
    bypass reliable-broadcast integrity, so requesters only apply them
    while a catch-up they initiated is in flight.
    """

    vertices: tuple[bytes, ...]
    done: bool = False

    def wire_size(self, n: int) -> int:
        return (
            BITS_PER_TAG
            + 32
            + 8
            + sum(8 * (4 + len(vertex)) for vertex in self.vertices)
        )
