"""The DAG vertex struct (Algorithm 1) and its canonical binary codec.

Per paper §6.2, an edge needs only the target's ``(source, round)`` pair:
reliable broadcast integrity guarantees at most one vertex per slot, so the
pair is a unique reference. Strong edges always target the previous round,
hence they are encoded as bare source ids; weak edges carry both fields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from repro.broadcast.base import Payload
from repro.common.errors import WireFormatError
from repro.common.types import GENESIS_ROUND
from repro.mempool.blocks import Block


class Ref(NamedTuple):
    """A reference to a DAG vertex: its (source, round) slot."""

    source: int
    round: int


@dataclass(frozen=True)
class Vertex(Payload):
    """One reliably-broadcast DAG vertex.

    Attributes:
        round: The DAG round this vertex belongs to.
        source: The broadcasting process (authenticated by the broadcast
            layer; receivers verify the claimed value matches).
        block: The block of transactions being proposed.
        strong_parents: Sources of the referenced round ``round - 1``
            vertices (at least ``2f + 1`` of them for a valid vertex).
        weak_parents: Refs to vertices in rounds ``< round - 1`` that would
            otherwise be unreachable from this vertex (Validity, §5).
        coin_share: Optional piggybacked threshold-coin share (footnote 1 of
            the paper): a vertex in round ``round(w+1, 1)`` may carry its
            sender's share of coin instance ``w``.
    """

    round: int
    source: int
    block: Block
    strong_parents: frozenset[int]
    weak_parents: frozenset[Ref] = frozenset()
    coin_share: int | None = None

    @cached_property
    def ref(self) -> Ref:
        """This vertex's own (source, round) reference (built on first use)."""
        return Ref(self.source, self.round)

    def parent_refs(self) -> list[Ref]:
        """All referenced vertices: strong (previous round) then weak."""
        strong = [Ref(s, self.round - 1) for s in sorted(self.strong_parents)]
        return strong + sorted(self.weak_parents)

    def to_bytes(self) -> bytes:
        """Canonical encoding, built on first use: a live vertex is written
        to the WAL and again to every snapshot it survives."""
        encoded: bytes | None = self.__dict__.get("_encoded")
        if encoded is None:
            # Straight into __dict__, as cached_property does: the
            # dataclass is frozen, and the bytes are derived, not a field.
            encoded = self.__dict__["_encoded"] = self._encode()
        return encoded

    def _encode(self) -> bytes:
        parts = [
            struct.pack(
                ">QHHH",
                self.round,
                self.source,
                len(self.strong_parents),
                len(self.weak_parents),
            )
        ]
        for source in sorted(self.strong_parents):
            parts.append(struct.pack(">H", source))
        for ref in sorted(self.weak_parents):
            parts.append(struct.pack(">HQ", ref.source, ref.round))
        if self.coin_share is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01" + self.coin_share.to_bytes(16, "big"))
        parts.append(self.block.to_bytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Vertex":
        """Decode a vertex from its canonical encoding."""
        try:
            round_, source, n_strong, n_weak = struct.unpack_from(">QHHH", data, 0)
            offset = struct.calcsize(">QHHH")
            strong = []
            for _ in range(n_strong):
                (s,) = struct.unpack_from(">H", data, offset)
                strong.append(s)
                offset += 2
            weak = []
            for _ in range(n_weak):
                s, r = struct.unpack_from(">HQ", data, offset)
                weak.append(Ref(s, r))
                offset += struct.calcsize(">HQ")
            flag = data[offset]
            offset += 1
            share = None
            if flag == 1:
                share = int.from_bytes(data[offset : offset + 16], "big")
                offset += 16
            elif flag != 0:
                raise WireFormatError(f"bad coin-share flag {flag}")
            block, offset = Block.from_bytes(data, offset)
        except (struct.error, IndexError) as exc:
            raise WireFormatError(f"malformed vertex: {exc}") from exc
        if offset != len(data):
            raise WireFormatError(f"{len(data) - offset} trailing bytes after vertex")
        return cls(round_, source, block, frozenset(strong), frozenset(weak), share)


def genesis_vertices(genesis_size: int) -> list[Vertex]:
    """The hardcoded round-0 vertices of Algorithm 1 (one per process id)."""
    return [
        Vertex(GENESIS_ROUND, source, Block(source, 0), frozenset())
        for source in range(genesis_size)
    ]
