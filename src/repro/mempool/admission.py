"""Runtime mempool: admission control, backpressure, and block batching.

The paper assumes every process atomically broadcasts an endless supply of
blocks; a deployed node instead takes transactions from *clients* and must
bound what it buffers. :class:`Mempool` is that bound, sans-io and
clock-injected so it unit-tests deterministically:

* **Admission** — :meth:`Mempool.submit` accepts a raw transaction into
  the pending buffer or rejects it with an explicit reason. The buffer is
  budgeted in *both* count and bytes (``max_pending_txs`` /
  ``max_pending_bytes``); past either budget the submission is refused
  with a ``busy-*`` reason the gateway surfaces to the client as an
  explicit busy response — backpressure, never silent growth.
* **Batching** — :meth:`Mempool.take_batch` cuts whatever is pending into
  one :class:`repro.mempool.blocks.Block`'s worth (at most ``batch_txs``
  transactions and ``batch_bytes`` payload bytes). The caller is the
  node's own round advance (Algorithm 2 Line 17), so the buffer drains at
  the rate the node proposes: a stalled node keeps its budget full and
  answers ``busy``.
* **Delivery tracking** — a flushed batch is remembered under its block's
  ``(proposer, sequence)`` identity until :meth:`Mempool.deliveries` sees
  that block atomically delivered, stamping each transaction's
  end-to-end latency (submit → ``a_deliver``) for the client ack.

Transaction ids are content-addressed (SHA-256 prefix), which makes
client retries idempotent: re-submitting bytes that are still pending or
in flight is accepted without enqueueing a second copy, so one delivery
ack answers both attempts.

The asyncio socket front-end lives in :mod:`repro.mempool.gateway`; this
module never touches a socket, a task, or the wall clock.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigurationError

#: Admission rejection reasons surfaced to clients. The ``busy-*`` pair is
#: backpressure (retry later); ``oversize`` is permanent for that payload.
REASON_BUSY_TXS = "busy-txs"
REASON_BUSY_BYTES = "busy-bytes"
REASON_OVERSIZE = "oversize"


@dataclass(frozen=True)
class AdmissionConfig:
    """Mempool budgets and block caps (peer-table ``ingress`` keys).

    Attributes:
        max_pending_txs: Pending-buffer budget in transactions.
        max_pending_bytes: Pending-buffer budget in payload bytes.
        max_tx_bytes: Largest single transaction accepted.
        batch_txs: Most transactions one block carries.
        batch_bytes: Most payload bytes one block carries (a single larger
            transaction still travels, alone).
    """

    max_pending_txs: int = 4096
    max_pending_bytes: int = 4 * 1024 * 1024
    max_tx_bytes: int = 64 * 1024
    batch_txs: int = 64
    batch_bytes: int = 128 * 1024

    def __post_init__(self) -> None:
        for name in (
            "max_pending_txs", "max_pending_bytes", "max_tx_bytes",
            "batch_txs", "batch_bytes",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigurationError(
                    f"ingress {name} must be a positive integer, got {value!r}"
                )
        if self.batch_txs > self.max_pending_txs:
            raise ConfigurationError(
                f"ingress batch_txs ({self.batch_txs}) exceeds "
                f"max_pending_txs ({self.max_pending_txs})"
            )


@dataclass(frozen=True, slots=True)
class PendingTx:
    """One admitted transaction awaiting batching or delivery."""

    txid: str
    data: bytes
    submitted_at: float


@dataclass(frozen=True, slots=True)
class Admission:
    """The outcome of one :meth:`Mempool.submit`.

    ``reason`` is ``None`` for a plain accept, ``"duplicate"`` for an
    idempotent re-submit of bytes already tracked, or one of the rejection
    reasons above when ``accepted`` is False.
    """

    accepted: bool
    txid: str
    reason: str | None = None

    @property
    def busy(self) -> bool:
        """True when the rejection is backpressure (client should retry)."""
        return self.reason in (REASON_BUSY_TXS, REASON_BUSY_BYTES)


@dataclass(frozen=True, slots=True)
class DeliveredTx:
    """One transaction whose containing block's wave committed."""

    txid: str
    latency: float


def txid_of(data: bytes) -> str:
    """Content-addressed transaction id (128-bit SHA-256 prefix, hex)."""
    return hashlib.sha256(data).hexdigest()[:32]


class Mempool:
    """Bounded pending-transaction buffer with explicit backpressure.

    Counts what it admits, refuses and delivers (:meth:`status`); the
    *events* are emitted by the gateway, which sees request boundaries.
    """

    def __init__(
        self,
        pid: int,
        config: AdmissionConfig | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.pid = pid
        self.config = config if config is not None else AdmissionConfig()
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._pending: deque[PendingTx] = deque()
        self._pending_bytes = 0
        #: txids pending or in flight — the idempotent-retry filter.
        self._tracked: set[str] = set()
        #: block sequence -> the batch it carried, until delivery.
        self._in_flight: dict[int, list[PendingTx]] = {}
        self._in_flight_txs = 0
        self.submitted_total = 0
        self.rejected_total = 0
        self.delivered_total = 0

    # ------------------------------------------------------------ admission

    @property
    def pending_txs(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    @property
    def in_flight_txs(self) -> int:
        """Transactions batched into blocks but not yet delivered."""
        return self._in_flight_txs

    def submit(self, data: bytes) -> Admission:
        """Admit one transaction, or reject it with an explicit reason."""
        txid = txid_of(data)
        if len(data) > self.config.max_tx_bytes:
            return self._reject(txid, REASON_OVERSIZE)
        if txid in self._tracked:
            # Idempotent retry: the earlier copy's delivery ack covers this
            # submission too, so there is nothing to enqueue.
            return Admission(True, txid, "duplicate")
        if len(self._pending) >= self.config.max_pending_txs:
            return self._reject(txid, REASON_BUSY_TXS)
        if self._pending_bytes + len(data) > self.config.max_pending_bytes:
            return self._reject(txid, REASON_BUSY_BYTES)
        self._pending.append(PendingTx(txid, data, self._clock()))
        self._pending_bytes += len(data)
        self._tracked.add(txid)
        self.submitted_total += 1
        return Admission(True, txid)

    def _reject(self, txid: str, reason: str) -> Admission:
        self.rejected_total += 1
        return Admission(False, txid, reason)

    # ------------------------------------------------------------- batching

    def take_batch(self) -> list[PendingTx]:
        """Cut whatever is pending into one block's worth, oldest first:
        at most ``batch_txs`` transactions and ``batch_bytes`` payload
        bytes, but never fewer than one transaction when any is pending."""
        config = self.config
        pending = self._pending
        batch: list[PendingTx] = []
        size = 0
        while pending and len(batch) < config.batch_txs:
            grown = size + len(pending[0].data)
            if batch and grown > config.batch_bytes:
                break
            batch.append(pending.popleft())
            size = grown
        self._pending_bytes -= size
        return batch

    def register_flush(self, sequence: int, batch: list[PendingTx]) -> None:
        """Remember a flushed batch under its block's sequence number;
        its txids stay tracked (duplicate-suppressed) until delivery."""
        if not batch:
            return
        self._in_flight[sequence] = batch
        self._in_flight_txs += len(batch)

    # ------------------------------------------------------------- delivery

    def deliveries(self, sequence: int) -> list[DeliveredTx]:
        """Resolve a delivered block's batch into per-tx latency stamps.

        Called when this node's block ``sequence`` is atomically delivered
        (its wave committed). Unknown sequences — synthetic blocks, or
        blocks flushed before a crash whose tracking died with the process
        — resolve to an empty list, which is what keeps a recovered node's
        ack stream free of duplicates: only batches flushed by *this*
        incarnation can ack.
        """
        batch = self._in_flight.pop(sequence, None)
        if batch is None:
            return []
        now = self._clock()
        self._in_flight_txs -= len(batch)
        delivered: list[DeliveredTx] = []
        for tx in batch:
            self._tracked.discard(tx.txid)
            delivered.append(DeliveredTx(tx.txid, max(0.0, now - tx.submitted_at)))
        self.delivered_total += len(delivered)
        return delivered

    def status(self) -> dict[str, int]:
        """Counters for the runner's ``status`` control response."""
        return {
            "pending": len(self._pending),
            "pending_bytes": self._pending_bytes,
            "in_flight": self._in_flight_txs,
            "submitted": self.submitted_total,
            "rejected": self.rejected_total,
            "delivered": self.delivered_total,
        }
