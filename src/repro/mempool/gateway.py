"""Asyncio client gateway: the ingress socket beside each runner's control.

``IngressGateway`` is a :class:`repro.runtime.linerpc.LineServer` on a
node's ``ingress_port`` (peer table, [docs/runtime.md] "Client ingress and
backpressure"; framing and error replies: "Line RPC"). Its verbs:

* ``{"cmd": "submit", "tx": "<hex>"}`` — admit one transaction through
  the :class:`repro.mempool.admission.Mempool`; the response carries the
  content-addressed ``txid`` and, on rejection, an explicit ``busy`` flag
  plus reason — never a silent drop.
* ``{"cmd": "submit_batch", "txs": ["<hex>", ...]}`` — the same, amortized:
  one response with per-transaction results.
* ``{"cmd": "ack"}`` — switch the connection into one-way streaming mode
  (the control socket's ``subscribe`` shape): every time a block this
  node proposed is atomically delivered, one ``{"ack": {...}}`` line per
  client transaction it carried, stamped with the end-to-end latency
  from submit to wave commit.

There is no flush task and no timer: the round is the batching clock. The
gateway installs itself as the node's ``BlockSource.producer``, so each
vertex the node creates (Algorithm 2 Line 17) takes whatever is pending at
that moment as its block, and a delivery listener on the node maps
committed blocks back to the waiting batches. The protocol hot path never
blocks on a slow ack reader: per-connection ack buffers are bounded rings,
oldest dropped and counted.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any

from repro.mempool.admission import Admission, Mempool
from repro.obs.stream import EventRing
from repro.runtime.linerpc import LineServer, Send, encode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import DagRiderNode, OrderedEntry
    from repro.obs.context import Observability

#: Acks buffered per ``ack`` connection before oldest-first eviction, and
#: the most a client may ask for instead (``"capacity"``).
DEFAULT_ACK_CAPACITY = 4096
MAX_ACK_CAPACITY = 65536


class IngressGateway(LineServer):
    """The client-facing transaction socket of one node."""

    def __init__(
        self,
        node: "DagRiderNode",
        mempool: Mempool,
        host: str,
        port: int,
        obs: Observability,
    ) -> None:
        super().__init__(
            host,
            port,
            verbs={"submit": self._submit, "submit_batch": self._submit_batch},
            streams={"ack": self._serve_acks},
        )
        self.node = node
        self.mempool = mempool
        self.obs = obs
        self.pid = mempool.pid
        #: Per ``ack`` connection: its bounded ring of encoded ack lines and
        #: the event that wakes its writer.
        self._ack_streams: dict[EventRing[str], asyncio.Event] = {}

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        await super().start()
        self.node.add_delivery_listener(self._on_delivered)
        self.node.block_source.producer = self._cut_block

    async def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        # Whatever is pending still reaches the proposal queue (delivery
        # acks for it will only flow if the node keeps running).
        while batch := self.mempool.take_batch():
            block = self.node.a_bcast(*(tx.data for tx in batch))
            self.mempool.register_flush(block.sequence, batch)
        for wakeup in self._ack_streams.values():
            wakeup.set()
        await super().close()

    # ------------------------------------------------------------- batching

    def _cut_block(self, sequence: int) -> tuple[bytes, ...]:
        """The node is creating a vertex: what is pending is its block."""
        batch = self.mempool.take_batch()
        self.mempool.register_flush(sequence, batch)
        return tuple(tx.data for tx in batch)

    # ------------------------------------------------------------- delivery

    def _on_delivered(self, entry: "OrderedEntry") -> None:
        """Map a committed block back to the clients waiting on its txs."""
        block = entry.block
        if block.proposer != self.pid:
            return
        delivered = self.mempool.deliveries(block.sequence)
        if not delivered:
            return
        self.obs.emit(
            self.pid,
            "tx_delivered",
            count=len(delivered),
            sequence=block.sequence,
            round=entry.round,
        )
        if not self._ack_streams:
            return
        lines = [
            encode(
                {
                    "ack": {
                        "txid": tx.txid,
                        "e2e": round(tx.latency, 6),
                        "sequence": block.sequence,
                        "round": entry.round,
                        "position": entry.position,
                    }
                }
            )
            for tx in delivered
        ]
        for ring, wakeup in self._ack_streams.items():
            for line in lines:
                ring.append(line)
            wakeup.set()

    # ------------------------------------------------------------- protocol

    @staticmethod
    def _parse_tx(raw_tx: object) -> bytes:
        if not isinstance(raw_tx, str):
            raise ValueError("tx must be a hex string")
        try:
            data = bytes.fromhex(raw_tx)
        except ValueError:
            raise ValueError("tx is not valid hex") from None
        if not data:
            raise ValueError("tx must not be empty")
        return data

    def _admit(self, txs: list[bytes]) -> list[Admission]:
        """Admit one request's (already parsed) transactions."""
        results = [self.mempool.submit(data) for data in txs]
        self._emit_request_events(results)
        # Line 17's wake: a node without a synthetic generator may be
        # waiting for exactly this block.
        self.node.builder.on_blocks_available()
        return results

    def _emit_request_events(self, results: list[Admission]) -> None:
        """One ``tx_submitted``/``tx_rejected`` event per request outcome."""
        accepted = sum(
            1 for result in results
            if result.accepted and result.reason is None
        )
        if accepted:
            self.obs.emit(
                self.pid,
                "tx_submitted",
                count=accepted,
                pending=self.mempool.pending_txs,
            )
        rejected: dict[str, int] = {}
        for result in results:
            if not result.accepted and result.reason is not None:
                rejected[result.reason] = rejected.get(result.reason, 0) + 1
        for reason in sorted(rejected):
            self.obs.emit(
                self.pid, "tx_rejected", count=rejected[reason], reason=reason
            )

    @staticmethod
    def _result_dict(admission: Admission) -> dict[str, object]:
        result: dict[str, object] = {
            "accepted": admission.accepted,
            "txid": admission.txid,
        }
        if admission.reason is not None:
            result["reason"] = admission.reason
        if not admission.accepted:
            result["busy"] = admission.busy
        return result

    def _submit(self, request: dict[str, Any]) -> dict[str, object]:
        (admission,) = self._admit([self._parse_tx(request.get("tx"))])
        return {"ok": True, "pid": self.pid, **self._result_dict(admission)}

    def _submit_batch(self, request: dict[str, Any]) -> dict[str, object]:
        raw_txs = request.get("txs")
        if not isinstance(raw_txs, list) or not raw_txs:
            raise ValueError("txs must be a non-empty list of hex strings")
        # Parse every element before admitting any: an error reply means
        # nothing of the request was admitted.
        results = self._admit([self._parse_tx(raw) for raw in raw_txs])
        return {
            "ok": True,
            "pid": self.pid,
            "accepted": sum(1 for r in results if r.accepted),
            "rejected": sum(1 for r in results if not r.accepted),
            "busy": any(r.busy for r in results),
            "results": [self._result_dict(r) for r in results],
        }

    async def _serve_acks(self, request: dict[str, Any], send: Send) -> None:
        """Stream delivery acks until the client hangs up or we stop.

        Only deliveries *after* subscription are streamed — clients that
        care about every ack open the ack connection before submitting.
        Each wakeup writes everything buffered as one burst; when the ring
        overflowed since the last burst, the burst ends with the
        cumulative ``{"dropped": N}`` marker.
        """
        # Clamped as a float: ``1e999`` parses to ``inf``, which ``int`` refuses.
        capacity = float(request.get("capacity", DEFAULT_ACK_CAPACITY))
        ring: EventRing[str] = EventRing(
            int(max(1.0, min(capacity, MAX_ACK_CAPACITY)))
        )
        wakeup = asyncio.Event()
        self._ack_streams[ring] = wakeup
        reported_drops = 0
        try:
            await send(encode({"ok": True, "pid": self.pid, "streaming": True}))
            while True:
                if not ring and not self._closing:
                    wakeup.clear()
                    await wakeup.wait()
                lines = ring.drain()
                if not lines:
                    break  # woken by close() with nothing left to flush
                if ring.dropped > reported_drops:
                    reported_drops = ring.dropped
                    lines.append(encode({"dropped": reported_drops}))
                await send(*lines)
        finally:
            del self._ack_streams[ring]
