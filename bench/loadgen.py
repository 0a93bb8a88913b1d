"""The load generator: one asyncio thread, two connections to node 0.

One connection pipelines ``submit_batch`` requests (a reader task consumes
the verdicts), the other streams ``ack`` lines. Every transaction is timed
from when it was *due*: on the open loop that is its slot in the schedule,
so a generator that stalls charges the wait to the requests it delayed; on
the closed loop a transaction is due when the window frees its slot.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import deque
from time import monotonic_ns

#: StreamReader line limit: a verdict line carries one result object per tx.
LINE_LIMIT = 1 << 22

#: Measured transactions are grouped by due time into buckets this long; see
#: ``bench.rt.quietest_bucket``.
BUCKET_NS = 250_000_000


class OpenLoopSchedule:
    """Batches due every ``tick_ns`` from ``start_ns``, ``ticks`` of them."""

    def __init__(self, start_ns: int, tick_ns: int, ticks: int) -> None:
        self.start_ns = start_ns
        self.tick_ns = tick_ns
        self.ticks = ticks
        self._next = 0

    @property
    def done(self) -> bool:
        return self._next >= self.ticks

    @property
    def next_due_ns(self) -> int:
        return self.start_ns + self._next * self.tick_ns

    def take_due(self, now_ns: int) -> list[int]:
        """Due times of every unsent batch due by ``now_ns``, oldest first.

        After a stall several come back at once; each keeps its own due
        time, so the lateness lands on the requests that suffered it.
        """
        due: list[int] = []
        while not self.done and self.next_due_ns <= now_ns:
            due.append(self.next_due_ns)
            self._next += 1
        return due


class LoadStats:
    """What the generator saw, split at the start of the measured window."""

    def __init__(self) -> None:
        self.measure_from_ns = 0
        #: txid -> due time, for every tx submitted and not yet resolved.
        self.pending: dict[str, int] = {}
        self.submitted: set[str] = set()
        self.acked: set[str] = set()
        self.attempted = 0  # measured txs due
        #: measured txs due, per ``BUCKET_NS`` since ``measure_from_ns``.
        self.attempted_per_bucket: dict[int, int] = {}
        self.busy_verdicts = 0
        self.errors: list[str] = []
        self.ack_dropped = 0
        #: txid -> (due, ack received, DAG round) per measured acked tx; times
        #: on the client clock.
        self.acks: dict[str, tuple[int, int, int]] = {}
        self.lags_ns: list[int] = []
        self.first_ack_ns: int | None = None

    def latencies_ms(self) -> list[float]:
        return [(ack[1] - ack[0]) / 1e6 for ack in self.acks.values()]


class Client:
    """The two connections and the bookkeeping behind them."""

    def __init__(self, port: int, seed: int, tx_bytes: int) -> None:
        self.port = port
        self.stats = LoadStats()
        self.progress = asyncio.Event()
        self._rng = random.Random(seed)
        self._tx_bytes = tx_bytes
        self._counter = 0
        self._sent: deque[list[str]] = deque()  # txids per in-flight request
        self._writers: list[asyncio.StreamWriter] = []
        self._tasks: list[asyncio.Task[None]] = []
        self._submit: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=LINE_LIMIT
        )
        self._submit = writer
        ack_reader, ack_writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=LINE_LIMIT
        )
        self._writers = [writer, ack_writer]
        ack_writer.write(b'{"cmd": "ack", "capacity": 65536}\n')
        await ack_writer.drain()
        header = json.loads(await ack_reader.readline())
        if not header.get("streaming"):
            raise ConnectionError(f"ack stream refused: {header}")
        self._tasks = [
            asyncio.create_task(self._read_verdicts(reader)),
            asyncio.create_task(self._read_acks(ack_reader)),
        ]

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _next_tx(self) -> bytes:
        self._counter += 1
        head = self._counter.to_bytes(8, "big")
        return head + self._rng.randbytes(self._tx_bytes - len(head))

    async def send_batch(self, due_ns: int, count: int) -> None:
        """Submit ``count`` fresh transactions that were due at ``due_ns``."""
        from repro.mempool.admission import txid_of

        stats = self.stats
        txs = [self._next_tx() for _ in range(count)]
        txids = [txid_of(tx) for tx in txs]
        measured = due_ns >= stats.measure_from_ns > 0
        for txid in txids:
            stats.pending[txid] = due_ns
            stats.submitted.add(txid)
        if measured:
            stats.attempted += count
            bucket = (due_ns - stats.measure_from_ns) // BUCKET_NS
            stats.attempted_per_bucket[bucket] = (
                stats.attempted_per_bucket.get(bucket, 0) + count
            )
            stats.lags_ns.append(monotonic_ns() - due_ns)
        self._sent.append(txids)
        assert self._submit is not None
        request = {"cmd": "submit_batch", "txs": [tx.hex() for tx in txs]}
        self._submit.write(json.dumps(request).encode() + b"\n")
        await self._submit.drain()

    def _resolve(self, txid: str) -> int | None:
        self.progress.set()
        return self.stats.pending.pop(txid, None)

    async def _read_verdicts(self, reader: asyncio.StreamReader) -> None:
        stats = self.stats
        while True:
            line = await reader.readline()
            if not line:
                return
            response = json.loads(line)
            txids = self._sent.popleft()
            results = response.get("results")
            if not response.get("ok") or results is None or len(results) != len(txids):
                stats.errors.append(f"bad verdict line: {line[:200]!r}")
                results = [{"accepted": False}] * len(txids)
            for txid, result in zip(txids, results):
                if result.get("accepted"):
                    continue
                if result.get("busy"):
                    stats.busy_verdicts += 1
                self._resolve(txid)  # refused: it will never be acked

    async def _read_acks(self, reader: asyncio.StreamReader) -> None:
        stats = self.stats
        while True:
            line = await reader.readline()
            if not line:
                return
            received = monotonic_ns()
            message = json.loads(line)
            ack = message.get("ack")
            if ack is None:
                stats.ack_dropped = max(stats.ack_dropped, message.get("dropped", 0))
                continue
            txid = ack["txid"]
            if txid not in stats.submitted:
                stats.errors.append(f"ack for a tx never submitted: {txid}")
                continue
            if txid in stats.acked:
                stats.errors.append(f"tx acked twice: {txid}")
                continue
            stats.acked.add(txid)
            if stats.first_ack_ns is None:
                stats.first_ack_ns = received
            due = self._resolve(txid)
            if due is not None and due >= stats.measure_from_ns > 0:
                stats.acks[txid] = (due, received, ack["round"])


async def run_open_loop(
    client: Client, start_ns: int, tick_ns: int, ticks: int, per_tick: int
) -> None:
    """Send ``per_tick`` txs every ``tick_ns`` regardless of replies."""
    schedule = OpenLoopSchedule(start_ns, tick_ns, ticks)
    while not schedule.done:
        for due_ns in schedule.take_due(monotonic_ns()):
            await client.send_batch(due_ns, per_tick)
        if not schedule.done:
            await asyncio.sleep(max(0.0, (schedule.next_due_ns - monotonic_ns()) / 1e9))


async def run_closed_loop(
    client: Client, end_ns: int, window: int, batch: int
) -> None:
    """Keep ``window`` txs un-acked until ``end_ns``."""
    refill = min(batch, window) // 2
    while monotonic_ns() < end_ns:
        free = window - len(client.stats.pending)
        if free >= refill:
            await client.send_batch(monotonic_ns(), min(free, batch))
            continue
        client.progress.clear()
        try:
            await asyncio.wait_for(client.progress.wait(), timeout=0.05)
        except asyncio.TimeoutError:
            pass


async def drain(client: Client, seconds: float) -> None:
    """Wait for outstanding acks, at most ``seconds``."""
    deadline = monotonic_ns() + int(seconds * 1e9)
    while client.stats.pending and monotonic_ns() < deadline:
        await asyncio.sleep(0.01)
