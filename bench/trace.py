"""Spans recorded from outside the program: timing wrappers at layer seams.

``install(tracer)`` rebinds the public functions it lists to
wrappers that keep a span stack. A span's *self time* is its duration minus
the time its child spans cover, so the self times of all spans inside one
root add up to the root's duration and each bucket's ``*_busy_ms`` can be
read as a share of the traced wall. Unwrapped code (private helpers, per-bit
``DagStore`` accessors, ``DagRiderNode.on_message`` dispatch) is charged to
the innermost wrapped caller, and so is the cost of entering and leaving a
child wrapper — ``trace.overhead_frac`` says how large that is in total.

Nothing here is imported by the untraced run's measured region; end-to-end
metrics never see a wrapper.
"""

from __future__ import annotations

import sys
from time import monotonic_ns
from typing import Any, Callable

#: Full span records are kept for this many distinct identifiers of each
#: kind (vertices, transactions), up to ``SPAN_LIMIT`` spans in all (one n=25
#: Bracha vertex alone is ~1500 spans); everything else only feeds
#: accumulators.
SAMPLE_LIMIT = 200
SPAN_LIMIT = 50_000

Extract = Callable[..., object]
Post = Callable[["Tracer", tuple, object, int, int], None]


def self_times(spans: list[tuple[int, int, int, int]]) -> dict[int, int]:
    """Self time per span id from ``(id, parent_id, start, end)`` records.

    The reference arithmetic the wrappers implement incrementally: a span's
    self time is its duration minus the summed durations of its direct
    children (children never overlap: the program under trace is one thread
    of synchronous calls).
    """
    result = {span_id: end - start for span_id, _parent, start, end in spans}
    for _span_id, parent, start, end in spans:
        if parent in result:
            result[parent] -= end - start
    return result


class Tracer:
    """Accumulators, span stack and the install/restore bookkeeping."""

    def __init__(self) -> None:
        self.names: list[str] = []  # slot -> "bucket/function"
        self._slots: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        #: (span id, parent span id or -1, slot, identifier, start, end)
        self.spans: list[tuple[int, int, int, object, int, int]] = []
        self._stack: list[list] = []  # frames: [child_ns, identifier, span id, slot]
        self._sampled: dict[str, set] = {"vertex": set(), "tx": set()}
        self._next_span = 0
        self._patched: list[tuple[object, str, object]] = []
        # Joins the mempool hooks keep between calls (rt-* only).
        self.submitted_ns: dict[str, int] = {}
        self.flushed_ns: dict[tuple[int, int], int] = {}
        self.delivered_ns: dict[str, int] = {}

    # --------------------------------------------------------------- spans

    def _sample(self, identifier: object) -> bool:
        kind = "tx" if isinstance(identifier, str) else "vertex"
        seen = self._sampled[kind]
        if identifier in seen:
            return True
        if len(seen) < SAMPLE_LIMIT and len(self.spans) < SPAN_LIMIT:
            seen.add(identifier)
            return True
        return False

    def wrap(
        self,
        name: str,
        fn: Callable,
        extract: Extract | None = None,
        post: Post | None = None,
    ) -> Callable:
        """Timing wrapper around ``fn`` accumulating under ``name``."""
        slot = self._slots.get(name)
        if slot is None:
            slot = self._slots[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        spans = self.spans
        sample = self._sample
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if extract is not None:
                identifier = extract(*args)
            elif stack:
                identifier = stack[-1][1]
            else:
                identifier = None
            span_id = -1
            if identifier is not None and sample(identifier):
                span_id = tracer._next_span
                tracer._next_span = span_id + 1
            frame = [0, identifier, span_id, slot]
            stack.append(frame)
            start = monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = monotonic_ns()
                stack.pop()
                duration = end - start
                self_ns[slot] += duration - frame[0]
                calls[slot] += 1
                if stack:
                    stack[-1][0] += duration
                if span_id >= 0:
                    parent = stack[-1][2] if stack else -1
                    spans.append((span_id, parent, slot, identifier, start, end))
            if post is not None:
                post(tracer, args, result, start, end)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def add_span(self, name: str, identifier: object, start: int, end: int) -> None:
        """Record a span for ``identifier`` after the fact (batch hooks)."""
        if self._sample(identifier):
            span_id = self._next_span
            self._next_span = span_id + 1
            parent = self._stack[-1][2] if self._stack else -1
            self.spans.append(
                (span_id, parent, self._slots[name], identifier, start, end)
            )

    def enclosing(self) -> str | None:
        """Name of the innermost span still open (a post hook's parent)."""
        return self.names[self._stack[-1][3]] if self._stack else None

    # ------------------------------------------------------------- patching

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(
        self,
        bucket: str,
        cls: type,
        attr: str,
        extract: Extract | None = None,
        post: Post | None = None,
    ) -> None:
        fn = cls.__dict__[attr]
        label = attr.strip("_") or attr
        self._patch(
            cls, attr, self.wrap(f"{bucket}/{cls.__name__}.{label}", fn, extract, post)
        )

    def patch_function(
        self,
        bucket: str,
        fn: Callable,
        extract: Extract | None = None,
        post: Post | None = None,
    ) -> None:
        """Rebind ``fn`` in every ``repro`` module that imported it by name."""
        wrapper = self.wrap(f"{bucket}/{fn.__name__}", fn, extract, post)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            if module.__dict__.get(fn.__name__) is fn:
                self._patch(module, fn.__name__, wrapper)

    def restore(self) -> None:
        """Put every rebound attribute back; safe to call twice."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Zero the accumulators (the host calls this when load starts)."""
        for slot in range(len(self.names)):
            self.calls[slot] = 0
            self.self_ns[slot] = 0
        self.counters.clear()
        self.samples.clear()
        self.spans.clear()
        for seen in self._sampled.values():
            seen.clear()
        self.delivered_ns.clear()

    # -------------------------------------------------------------- results

    def bucket_ns(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for name, value in zip(self.names, self.self_ns):
            bucket = name.split("/", 1)[0]
            totals[bucket] = totals.get(bucket, 0) + value
        return totals

    def dump(self) -> dict[str, object]:
        """JSON-ready accumulators, samples and sampled span chains."""
        return {
            "functions": {
                name: {"calls": self.calls[slot], "self_ns": self.self_ns[slot]}
                for slot, name in enumerate(self.names)
            },
            "buckets_ns": self.bucket_ns(),
            "counters": dict(self.counters),
            "samples": {key: list(values) for key, values in self.samples.items()},
            "delivered_ns": dict(self.delivered_ns),
            "span_names": list(self.names),
            "span_fields": ["id", "parent", "name", "ident", "start_ns", "end_ns"],
            "spans": [list(span) for span in self.spans],
        }


# ---------------------------------------------------------------- the seams


def _vertex_of_message(_self: object, _src: int, message: object) -> object:
    round_ = getattr(message, "round", None)
    return None if round_ is None else (round_, message.source)  # type: ignore[attr-defined]


def _vertex_of_bcast(self: Any, _payload: object, round_: int) -> object:
    return (round_, self.pid)


def _vertex_of_deliver(_self: object, _payload: object, round_: int, source: int) -> object:
    return (round_, source)


def _vertex_of_arg(_self: object, vertex: Any, *_rest: object) -> object:
    return (vertex.round, vertex.source)


def install(tracer: Tracer) -> None:
    """Rebind the layer seams of ``repro`` to timing wrappers.

    Call before the deployment or cluster is constructed: constructors
    capture bound methods (``send=self.send``, ``deliver=builder.on_r_deliver``),
    which must already resolve to the wrappers. Per-bit ``DagStore`` helpers
    (``bit_of``, ``reach_mask``, ``closed_mask``) stay unwrapped on purpose:
    millions of calls whose time belongs to the caller's self time.
    """
    # Imported here so that importing this module rebinds and loads nothing.
    import repro.core.harness  # noqa: F401  (loads every sim-side consumer)
    import repro.runtime.cluster  # noqa: F401  (loads every runtime consumer)
    from repro.broadcast.avid import AvidBroadcast, SharedReconstructionCache
    from repro.broadcast.bracha import BrachaBroadcast
    from repro.codec.registry import decode_message, encode_message
    from repro.codes.merkle import MerkleTree, verify_proof
    from repro.codes.reed_solomon import rs_decode, rs_encode
    from repro.coin.base import CoinProtocol
    from repro.coin.threshold import ThresholdCoin
    from repro.core.ordering import DagRiderOrdering
    from repro.crypto.shamir import reconstruct_secret
    from repro.dag.builder import DagBuilder
    from repro.dag.store import DagStore
    from repro.mempool.admission import Mempool, txid_of
    from repro.obs.bus import EventBus
    from repro.obs.spans import SpanTracker
    from repro.runtime.reliable import ReliableLink, frame_bytes
    from repro.runtime.transport import TcpNetwork
    from repro.sim.network import Network
    from repro.sim.scheduler import Scheduler
    from repro.storage.journal import NodeJournal, recover_node
    from repro.storage.wal import WriteAheadLog

    method, function = tracer.patch_method, tracer.patch_function

    method("sim", Scheduler, "run")
    for attr in ("send", "broadcast"):
        method("sim", Network, attr)

    for cls in (BrachaBroadcast, AvidBroadcast):
        method("broadcast", cls, "handle", extract=_vertex_of_message)
        method("broadcast", cls, "r_bcast", extract=_vertex_of_bcast)

    def encoded(t: Tracer, args: tuple, _result: object, _s: int, _e: int) -> None:
        t.count("codes.bytes_encoded", len(args[0]))

    def cache_get(t: Tracer, _args: tuple, result: object, _s: int, _e: int) -> None:
        t.count("codes.cache_gets")
        if result is not None:
            t.count("codes.cache_hits")

    function("codes", rs_encode, post=encoded)
    function("codes", rs_decode)
    function("codes", verify_proof)
    method("codes", MerkleTree, "__init__")
    method("codes", SharedReconstructionCache, "get", post=cache_get)
    method("codes", SharedReconstructionCache, "get_payload")

    def before_compact(self: Any, *_args: object) -> None:
        tracer.peak("dag.peak_vertices", self.vertex_count)

    method("dag.add", DagStore, "add", extract=_vertex_of_arg)
    method("dag.add", DagStore, "can_add", extract=_vertex_of_arg)
    method("dag.compact", DagStore, "compact", extract=before_compact)
    method("dag.builder", DagBuilder, "on_r_deliver", extract=_vertex_of_deliver)
    method("dag.builder", DagBuilder, "start")
    method("dag.builder", DagBuilder, "on_blocks_available")

    method("core", DagRiderOrdering, "wave_ready")
    # The coin-resolution callback is ordering work that runs inside the
    # coin's span; wrap it where it is handed over, through the public
    # ``subscribe``, so commit walks triggered by a late share count as core.
    subscribe = CoinProtocol.__dict__["subscribe"]

    def traced_subscribe(self: Any, callback: Callable) -> None:
        subscribe(self, tracer.wrap("core/coin_resolved", callback))

    tracer._patch(CoinProtocol, "subscribe", traced_subscribe)

    for attr in ("invoke", "on_message", "deliver_share"):
        method("coin", ThresholdCoin, attr)
    function("coin", reconstruct_secret)

    def submitted(t: Tracer, _args: tuple, result: Any, _s: int, end: int) -> None:
        if result.accepted and result.reason is None:
            t.submitted_ns[result.txid] = end

    def batch_taken(t: Tracer, _args: tuple, result: Any, start: int, end: int) -> None:
        waits = t.samples.setdefault("mempool.queue_wait_ns", [])
        for tx in result:
            since = t.submitted_ns.pop(tx.txid, None)
            if since is not None:
                waits.append(end - since)
            t.add_span("mempool/Mempool.take_batch", tx.txid, start, end)

    def flushed(t: Tracer, args: tuple, _result: object, start: int, end: int) -> None:
        mempool, sequence, batch = args[0], args[1], args[2]
        if batch:
            t.flushed_ns[(mempool.pid, sequence)] = end
            t.count("mempool.batches")
            t.count("mempool.batched_txs", len(batch))
            for tx in batch:
                t.add_span("mempool/Mempool.register_flush", tx.txid, start, end)

    def delivered(t: Tracer, args: tuple, result: Any, start: int, end: int) -> None:
        since = t.flushed_ns.pop((args[0].pid, args[1]), None)
        if since is not None:
            t.samples.setdefault("mempool.commit_wait_ns", []).append(end - since)
        for tx in result:
            t.delivered_ns[tx.txid] = end
            t.add_span("mempool/Mempool.deliveries", tx.txid, start, end)

    method(
        "mempool", Mempool, "submit",
        extract=lambda _self, data: txid_of(data), post=submitted,
    )
    method("mempool", Mempool, "take_batch", post=batch_taken)
    method("mempool", Mempool, "register_flush", post=flushed)
    method("mempool", Mempool, "deliveries", post=delivered)

    def message_encoded(t: Tracer, _args: tuple, result: Any, _s: int, _e: int) -> None:
        t.count("codec.bytes_encoded", len(result))
        if t.enclosing() == "runtime/TcpNetwork.broadcast":
            t.count("codec.encodes_in_broadcast")

    function("codec.encode", encode_message, post=message_encoded)
    function("codec.decode", decode_message)

    frame_overhead = len(frame_bytes(0, b""))

    def enqueued(t: Tracer, args: tuple, _result: object, _s: int, _e: int) -> None:
        t.count("runtime.bytes_enqueued", len(args[1]) + frame_overhead)

    for attr in ("send", "broadcast"):
        method("runtime", TcpNetwork, attr)
    method("runtime", ReliableLink, "enqueue")
    method("runtime", ReliableLink, "enqueue_encoded", post=enqueued)

    def appended(t: Tracer, args: tuple, _result: object, _s: int, _e: int) -> None:
        t.count("storage.bytes_appended", len(args[2]))

    method("storage.append", WriteAheadLog, "append", post=appended)
    method("storage.sync", WriteAheadLog, "sync")
    for attr in ("record_vertex", "record_created", "record_commit"):
        method("storage.append", NodeJournal, attr)
    method("storage.snapshot", NodeJournal, "write_snapshot")
    function("storage.replay", recover_node)

    method("obs", EventBus, "emit")
    method("obs", SpanTracker, "begin")
    method("obs", SpanTracker, "end")
