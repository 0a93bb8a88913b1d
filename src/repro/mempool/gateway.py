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

A supervised background task flushes the mempool on the admission
config's size/deadline triggers, feeding batches into the node's own
``a_bcast`` path (``BlockSource`` → ``DagBuilder``), and a delivery
listener on the node maps committed blocks back to the waiting batches.
The protocol hot path never blocks on a slow ack reader: per-connection
ack buffers are bounded rings, oldest dropped and counted.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import TYPE_CHECKING, Any

from repro.mempool.admission import Admission, Mempool
from repro.obs.stream import EventRing
from repro.runtime.linerpc import LineServer, Send, encode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import DagRiderNode, OrderedEntry
    from repro.obs.context import Observability

#: Acks buffered per ``ack`` connection before oldest-first eviction.
DEFAULT_ACK_CAPACITY = 4096


class IngressGateway(LineServer):
    """The client-facing transaction socket of one node."""

    def __init__(
        self,
        node: "DagRiderNode",
        mempool: Mempool,
        host: str,
        port: int,
        obs: "Observability | None" = None,
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
        self._flush_task: asyncio.Task[None] | None = None
        #: Per ``ack`` connection: its bounded ring of encoded ack lines and
        #: the event that wakes its writer.
        self._ack_streams: dict[EventRing[str], asyncio.Event] = {}

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        await super().start()
        self.node.add_delivery_listener(self._on_delivered)
        # Supervised flusher: a crash is telemetry, not a silent stall.
        self._flush_task = asyncio.get_running_loop().create_task(
            self._flush_loop()
        )
        self._flush_task.add_done_callback(self._flush_done)

    async def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        # Last flush: whatever is pending still reaches the proposal queue
        # (delivery acks for it will only flow if the node keeps running).
        self._flush_once(force=True)
        if self._flush_task is not None:
            self._flush_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._flush_task
        for wakeup in self._ack_streams.values():
            wakeup.set()
        await super().close()

    # ------------------------------------------------------------- batching

    def _flush_once(self, force: bool = False) -> None:
        """Cut one due batch into a block on the node's proposal queue."""
        batch = self.mempool.take_batch(force=force)
        if not batch:
            return
        block = self.node.a_bcast(*(tx.data for tx in batch))
        self.mempool.register_flush(block.sequence, batch)

    async def _flush_loop(self) -> None:
        # Tick at half the deadline so a lone transaction waits at most
        # ~1.5 deadlines; size triggers fire on the next tick after filling.
        interval = self.mempool.config.batch_deadline / 2.0
        while True:
            await asyncio.sleep(interval)
            self._flush_once()

    def _flush_done(self, task: asyncio.Task[None]) -> None:
        if task.cancelled():
            return
        error = task.exception()
        if error is None:
            return
        if self.obs is not None:
            self.obs.registry.counter("ingress.task_errors").inc()
            self.obs.emit(
                self.pid,
                "ingress_task_error",
                error=f"{type(error).__name__}: {error}",
            )

    # ------------------------------------------------------------- delivery

    def _on_delivered(self, entry: "OrderedEntry") -> None:
        """Map a committed block back to the clients waiting on its txs."""
        block = entry.block
        if block.proposer != self.pid:
            return
        delivered = self.mempool.deliveries(block.sequence)
        if not delivered:
            return
        if self.obs is not None:
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

    def _admit(self, raw_tx: object) -> Admission:
        if not isinstance(raw_tx, str):
            raise ValueError("tx must be a hex string")
        try:
            data = bytes.fromhex(raw_tx)
        except ValueError:
            raise ValueError("tx is not valid hex") from None
        if not data:
            raise ValueError("tx must not be empty")
        return self.mempool.submit(data)

    def _emit_request_events(self, results: list[Admission]) -> None:
        """One ``tx_submitted``/``tx_rejected`` event per request outcome."""
        if self.obs is None:
            return
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
        admission = self._admit(request.get("tx"))
        self._emit_request_events([admission])
        return {"ok": True, "pid": self.pid, **self._result_dict(admission)}

    def _submit_batch(self, request: dict[str, Any]) -> dict[str, object]:
        raw_txs = request.get("txs")
        if not isinstance(raw_txs, list) or not raw_txs:
            raise ValueError("txs must be a non-empty list of hex strings")
        results = [self._admit(raw) for raw in raw_txs]
        self._emit_request_events(results)
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
        capacity = int(request.get("capacity", DEFAULT_ACK_CAPACITY))
        ring: EventRing[str] = EventRing(max(1, capacity))
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
