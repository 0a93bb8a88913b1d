"""Blocks of transactions and the per-process proposal queue."""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.broadcast.base import Payload
from repro.common.errors import WireFormatError
from repro.common.rng import derive_rng


@dataclass(frozen=True)
class Block(Payload):
    """A block of opaque transactions proposed by one process.

    Attributes:
        proposer: Process that created the block (chain-quality accounting).
        sequence: The proposer's block sequence number (the ``r`` of
            ``a_bcast(b, r)`` — distinguishes blocks from the same process).
        transactions: Opaque transaction payloads.
    """

    proposer: int
    sequence: int
    transactions: tuple[bytes, ...] = ()

    def to_bytes(self) -> bytes:
        parts = [struct.pack(">HQI", self.proposer, self.sequence, len(self.transactions))]
        for tx in self.transactions:
            parts.append(struct.pack(">I", len(tx)))
            parts.append(tx)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["Block", int]:
        """Decode a block; return it and the offset past it."""
        try:
            proposer, sequence, count = struct.unpack_from(">HQI", data, offset)
            offset += struct.calcsize(">HQI")
            transactions = []
            for _ in range(count):
                (length,) = struct.unpack_from(">I", data, offset)
                offset += 4
                tx = data[offset : offset + length]
                if len(tx) != length:
                    raise WireFormatError("truncated transaction")
                transactions.append(bytes(tx))
                offset += length
        except struct.error as exc:
            raise WireFormatError(f"malformed block: {exc}") from exc
        return cls(proposer, sequence, tuple(transactions)), offset

    def __len__(self) -> int:
        return len(self.transactions)


class TransactionGenerator:
    """Deterministic synthetic transactions of a fixed size."""

    def __init__(self, seed: int, proposer: int, tx_bytes: int = 64):
        if tx_bytes < 1:
            raise ValueError(f"tx_bytes must be positive, got {tx_bytes}")
        self._rng = derive_rng(seed, "txgen", proposer)
        self._proposer = proposer
        self._tx_bytes = tx_bytes
        self._counter = 0

    def next_transaction(self) -> bytes:
        """Return a fresh unique transaction payload."""
        self._counter += 1
        header = f"{self._proposer}:{self._counter}:".encode()
        filler = self._rng.randbytes(max(0, self._tx_bytes - len(header)))
        return (header + filler)[: max(self._tx_bytes, len(header))]


#: ``producer(sequence)`` — the transactions of the block that would take
#: ``sequence``, cut at the moment it is asked; empty when it has none.
BlockProducer = Callable[[int], tuple[bytes, ...]]


@dataclass
class BlockSource:
    """The ``blocksToPropose`` queue of Algorithm 1.

    Explicitly enqueued blocks (``a_bcast``) are served first; then the
    :attr:`producer` (the ingress gateway's pending client transactions,
    cut into a block only when a vertex is there to carry it); when both
    are empty and a generator is configured, a synthetic block of
    ``batch_size`` transactions is minted so the proposer never stalls —
    the paper's "each process atomically broadcasts infinitely many blocks".
    """

    proposer: int
    generator: TransactionGenerator | None = None
    batch_size: int = 1
    producer: BlockProducer | None = field(default=None, init=False, repr=False)
    # A deque, not a list: the runtime ingress path enqueues sustained
    # client batches, and list.pop(0) is O(n) per dequeue (quadratic over
    # a busy queue); popleft() keeps the proposal path O(1).
    _queue: deque[Block] = field(default_factory=deque)
    _sequence: int = 0

    def enqueue(self, block: Block) -> None:
        """Add an explicit block to the front-of-line queue."""
        self._queue.append(block)

    def enqueue_transactions(self, *transactions: bytes) -> Block:
        """Wrap raw transactions into a block and enqueue it."""
        self._sequence += 1
        block = Block(self.proposer, self._sequence, tuple(transactions))
        self.enqueue(block)
        return block

    @property
    def empty(self) -> bool:
        """True when nothing is queued and no generator can mint."""
        return not self._queue and self.generator is None

    @property
    def sequence(self) -> int:
        """Highest block sequence number handed out so far."""
        return self._sequence

    def restore_sequence(self, sequence: int) -> None:
        """Fast-forward past sequences used before a crash (never rewinds),
        so blocks minted after recovery get fresh ``(proposer, sequence)``
        identities instead of reusing pre-crash ones."""
        self._sequence = max(self._sequence, sequence)

    def dequeue(self) -> Block | None:
        """The next block to propose (Algorithm 2 Line 17), or None."""
        if self._queue:
            return self._queue.popleft()
        txs = self.producer(self._sequence + 1) if self.producer else ()
        if not txs:
            if self.generator is None:
                return None
            txs = tuple(
                self.generator.next_transaction() for _ in range(self.batch_size)
            )
        self._sequence += 1
        return Block(self.proposer, self._sequence, txs)
