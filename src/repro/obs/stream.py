"""Live telemetry: bounded event streaming, metric deltas, flight recording.

Everything in :mod:`repro.obs` so far is *post-hoc*: the bus accumulates,
the trace is written on shutdown, analysis happens after the run. This
module is the live counterpart, built from four deterministic pieces that
contain no I/O and no clock reads of their own (times are always passed
in, so the stall detector and delta encoder are unit-testable with
synthetic clocks and stay clean under the determinism lint):

* :class:`EventRing` — a bounded ring (of events here, of ack lines in
  the ingress gateway) that drops the *oldest* entry on overflow and
  counts every drop. Backpressure never blocks an emitter and never
  grows memory: a slow subscriber loses history, not liveness.
* :class:`StreamSubscriber` — an :class:`EventRing` attached to an
  :class:`repro.obs.bus.EventBus` with kind / ``min_round`` filters.
  Draining it yields the events buffered since the last drain plus the
  cumulative drop count — the unit a control-socket ``subscribe`` stream
  sends per tick.
* :class:`MetricsDelta` — periodic registry snapshots encoded as *deltas*
  (counter increments since the previous tick, current gauge values), so
  a long-running stream costs bandwidth proportional to activity, not to
  registry size history.
* :class:`FlightRecorder` — a always-on last-K ring (black box). It costs
  one append per event while everything is healthy and is dumped only on
  demand: a stall diagnostic, a :class:`repro.common.errors.ConsistencyError`,
  a failed scenario post-check.

The wire form is newline-JSON, schema-versioned alongside
``repro.obs.trace``: a ``subscribe`` stream opens with a header line
(``{"schema": "repro.obs.stream", "version": 1, ...}``) followed by
``event`` and ``delta`` records (:func:`encode_stream_line` /
:func:`decode_stream_line` round-trip them). See docs/observability.md
"Live streaming and causal analysis".

:class:`StallDetector` is the driver-side liveness monitor: it watches
per-node commit frontiers and reports a stall when the *quorum frontier*
(the highest wave at least ``n - f`` nodes have decided) fails to advance
for a configured window — a single slow node does not trip it, a frozen
quorum does.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Generic, Iterable, Mapping, TypeVar

from repro.obs.bus import EventBus
from repro.obs.events import Event
from repro.obs.export import event_record, record_event
from repro.obs.metrics import MetricsRegistry

#: Stream schema identifier; bump :data:`STREAM_VERSION` on layout changes.
STREAM_SCHEMA = "repro.obs.stream"
STREAM_VERSION = 1

#: Default bounded-ring capacity for a ``subscribe`` stream buffer.
DEFAULT_STREAM_CAPACITY = 4096

#: Default flight-recorder depth (events kept in the black box).
DEFAULT_FLIGHT_CAPACITY = 256


T = TypeVar("T")


class StreamFormatError(ValueError):
    """A stream line that does not follow the schema above."""


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- event ring


class EventRing(Generic[T]):
    """Bounded FIFO: overflow drops the oldest item and is counted.

    Holds bus events for a ``subscribe`` stream and the flight recorder,
    and encoded ack lines for the ingress gateway's ``ack`` streams.
    """

    __slots__ = ("capacity", "dropped", "_items")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._items: deque[T] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._items)

    def append(self, item: T) -> None:
        """Add one item, evicting (and counting) the oldest when full."""
        if len(self._items) == self.capacity:
            self.dropped += 1
        self._items.append(item)

    def drain(self) -> list[T]:
        """Remove and return everything buffered, oldest first."""
        items = list(self._items)
        self._items.clear()
        return items

    def peek(self) -> list[T]:
        """The buffered items, oldest first, without consuming them."""
        return list(self._items)


# ---------------------------------------------------------- live subscriber


class StreamSubscriber:
    """A filtered, bounded live tap on an :class:`EventBus`.

    Construction subscribes to the bus; :meth:`close` detaches. Filters:

    * ``kinds`` — keep only these event kinds (None = all);
    * ``min_round`` — drop events whose integer ``round`` field is below
      this bound (events *without* a round field always pass: commit /
      wave / link events are not round-scoped).
    """

    def __init__(
        self,
        bus: EventBus,
        capacity: int = DEFAULT_STREAM_CAPACITY,
        kinds: Iterable[str] | None = None,
        min_round: int | None = None,
    ) -> None:
        self._bus = bus
        self.ring: EventRing[Event] = EventRing(capacity)
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.min_round = min_round
        self.total_matched = 0
        self._closed = False
        bus.subscribe(self._on_event)

    def matches(self, event: Event) -> bool:
        """Filter predicate applied to every emitted event."""
        if self.kinds is not None and event.kind not in self.kinds:
            return False
        if self.min_round is not None:
            round_ = event.get("round")
            if isinstance(round_, int) and round_ < self.min_round:
                return False
        return True

    def _on_event(self, event: Event) -> None:
        if self.matches(event):
            self.total_matched += 1
            self.ring.append(event)

    @property
    def dropped(self) -> int:
        """Cumulative events lost to ring overflow."""
        return self.ring.dropped

    def drain(self) -> list[Event]:
        """Events buffered since the last drain, oldest first."""
        return self.ring.drain()

    def close(self) -> None:
        """Detach from the bus; further emits are no longer buffered."""
        if not self._closed:
            self._closed = True
            self._bus.unsubscribe(self._on_event)

    def filters_dict(self) -> dict[str, object]:
        """The active filters as a JSON-ready mapping (for headers)."""
        filters: dict[str, object] = {}
        if self.kinds is not None:
            filters["kinds"] = sorted(self.kinds)
        if self.min_round is not None:
            filters["min_round"] = self.min_round
        return filters


# ------------------------------------------------------------ metric deltas


class MetricsDelta:
    """Incremental registry snapshots: what moved since the last tick.

    Counters and histogram counts/sums are reported as increments,
    gauges as current values. A tick with no movement encodes to an
    empty delta (callers may skip sending it). The decoded form of a
    full stream of deltas sums back to the registry's absolute state —
    the round-trip the stream tests assert.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._last_counters: dict[str, int] = {}
        self._last_hist: dict[str, tuple[int, float]] = {}

    def collect(self) -> dict[str, object]:
        """The movement since the previous :meth:`collect` call."""
        snapshot = self._registry.as_dict()
        counters: dict[str, int] = {}
        raw_counters = snapshot.get("counters", {})
        assert isinstance(raw_counters, dict)
        for name in sorted(raw_counters):
            value = raw_counters[name]
            assert isinstance(value, int)
            moved = value - self._last_counters.get(name, 0)
            if moved:
                counters[name] = moved
            self._last_counters[name] = value
        gauges: dict[str, float] = {}
        raw_gauges = snapshot.get("gauges", {})
        assert isinstance(raw_gauges, dict)
        for name in sorted(raw_gauges):
            entry = raw_gauges[name]
            if isinstance(entry, dict):
                gauges[name] = float(entry["value"])
        histograms: dict[str, dict[str, float]] = {}
        raw_hist = snapshot.get("histograms", {})
        assert isinstance(raw_hist, dict)
        for name in sorted(raw_hist):
            entry = raw_hist[name]
            if not isinstance(entry, dict):
                continue
            count = int(entry.get("count", 0))
            total = float(entry.get("sum", 0.0))
            last_count, last_total = self._last_hist.get(name, (0, 0.0))
            if count != last_count:
                histograms[name] = {
                    "count": count - last_count,
                    "sum": total - last_total,
                }
            self._last_hist[name] = (count, total)
        delta: dict[str, object] = {}
        if counters:
            delta["counters"] = counters
        if gauges:
            delta["gauges"] = gauges
        if histograms:
            delta["histograms"] = histograms
        return delta


def apply_delta(state: dict[str, object], delta: Mapping[str, object]) -> None:
    """Fold one decoded delta into an accumulating absolute ``state``.

    ``state`` uses the same shape as the encoded deltas: ``counters`` sum,
    ``gauges`` take the latest value, ``histograms`` sum count/sum pairs.
    """
    counters = state.setdefault("counters", {})
    assert isinstance(counters, dict)
    raw = delta.get("counters")
    if isinstance(raw, Mapping):
        for name, moved in raw.items():
            counters[name] = counters.get(name, 0) + moved
    gauges = state.setdefault("gauges", {})
    assert isinstance(gauges, dict)
    raw = delta.get("gauges")
    if isinstance(raw, Mapping):
        gauges.update(raw)
    histograms = state.setdefault("histograms", {})
    assert isinstance(histograms, dict)
    raw = delta.get("histograms")
    if isinstance(raw, Mapping):
        for name, moved in raw.items():
            if not isinstance(moved, Mapping):
                continue
            entry = histograms.setdefault(name, {"count": 0, "sum": 0.0})
            entry["count"] += moved.get("count", 0)
            entry["sum"] += moved.get("sum", 0.0)


def registry_totals(registry: MetricsRegistry) -> dict[str, object]:
    """The registry's absolute state in delta-accumulator shape."""
    state: dict[str, object] = {}
    snapshot = registry.as_dict()
    counters = {
        name: value
        for name, value in snapshot.get("counters", {}).items()
        if isinstance(value, int) and value
    }
    if counters:
        state["counters"] = counters
    gauges = {
        name: float(entry["value"])
        for name, entry in snapshot.get("gauges", {}).items()
        if isinstance(entry, dict)
    }
    if gauges:
        state["gauges"] = gauges
    histograms = {
        name: {"count": int(entry["count"]), "sum": float(entry["sum"])}
        for name, entry in snapshot.get("histograms", {}).items()
        if isinstance(entry, dict) and entry.get("count")
    }
    if histograms:
        state["histograms"] = histograms
    return state


# ------------------------------------------------------------- wire format


def stream_header(
    pid: int,
    filters: Mapping[str, object] | None = None,
    interval: float | None = None,
) -> dict[str, object]:
    """The first line of a ``subscribe`` stream."""
    header: dict[str, object] = {
        "schema": STREAM_SCHEMA,
        "version": STREAM_VERSION,
        "pid": pid,
    }
    if filters:
        header["filters"] = dict(filters)
    if interval is not None:
        header["interval"] = interval
    return header


def event_line(event: Event) -> dict[str, object]:
    """One streamed event as its JSON-ready line dict."""
    return {"event": event_record(event)}


def delta_line(
    seq: int,
    time: float,
    status: Mapping[str, object] | None = None,
    metrics: Mapping[str, object] | None = None,
    dropped: int = 0,
) -> dict[str, object]:
    """One periodic snapshot line: status + metric movement since last."""
    line: dict[str, object] = {"delta": {"seq": seq, "t": time}}
    body = line["delta"]
    assert isinstance(body, dict)
    if status:
        body["status"] = dict(status)
    if metrics:
        body["metrics"] = dict(metrics)
    if dropped:
        body["dropped"] = dropped
    return line


def encode_stream_line(line: Mapping[str, object]) -> str:
    """Serialize one stream line (no trailing newline)."""
    return _dumps(dict(line))


def decode_stream_line(text: str) -> dict[str, object]:
    """Parse and validate one stream line.

    Returns the line dict with a ``"type"`` key added: ``header``,
    ``event`` (with the event decoded under ``"decoded"``), or ``delta``.
    """
    try:
        line = json.loads(text)
    except ValueError as exc:
        raise StreamFormatError(f"stream line is not JSON: {exc}") from None
    if not isinstance(line, dict):
        raise StreamFormatError(f"stream line is not an object: {line!r}")
    if line.get("schema") == STREAM_SCHEMA:
        if line.get("version") != STREAM_VERSION:
            raise StreamFormatError(
                f"unsupported stream version {line.get('version')!r} "
                f"(this build reads {STREAM_VERSION})"
            )
        line["type"] = "header"
        return line
    if "event" in line:
        record = line["event"]
        if not isinstance(record, dict):
            raise StreamFormatError(f"event line body is not an object: {record!r}")
        line["decoded"] = record_event(record)
        line["type"] = "event"
        return line
    if "delta" in line:
        if not isinstance(line["delta"], dict):
            raise StreamFormatError(f"delta line body is not an object: {line!r}")
        line["type"] = "delta"
        return line
    raise StreamFormatError(f"unrecognized stream line: {text.strip()!r}")


# ---------------------------------------------------------- flight recorder


class FlightRecorder:
    """Always-on last-K event ring — the black box dumped on trouble.

    Attaches to a bus at construction and keeps the most recent
    ``capacity`` events (every kind; drops are counted but expected —
    overwriting history is the *point* of a flight recorder). A dump is a
    JSON-ready dict carrying the surviving events plus how many were
    overwritten, stamped with a caller-supplied reason.
    """

    def __init__(self, bus: EventBus, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        self._bus = bus
        self.ring: EventRing[Event] = EventRing(capacity)
        self.dumps_taken = 0
        bus.subscribe(self.ring.append)

    def dump(self, reason: str, time: float) -> dict[str, object]:
        """Snapshot the ring (non-destructively) as a JSON-ready dict."""
        events = self.ring.peek()
        self.dumps_taken += 1
        return {
            "schema": STREAM_SCHEMA,
            "version": STREAM_VERSION,
            "reason": reason,
            "t": time,
            "count": len(events),
            "overwritten": self.ring.dropped,
            "events": [event_record(event) for event in events],
        }

    def close(self) -> None:
        """Detach from the bus."""
        self._bus.unsubscribe(self.ring.append)


# ------------------------------------------------------------ stall detector


class StallDetector:
    """Quorum-frontier liveness monitor for a driver watching n nodes.

    Feed it ``observe(pid, decided_wave, now)`` samples (from ``subscribe``
    deltas or ``status`` polls) and ask :meth:`stalled_for` how long the
    quorum frontier — the highest wave at least ``quorum`` nodes have
    decided — has failed to advance. A single frozen or lagging node
    never trips the detector (the quorum frontier tracks the healthy
    majority); a frozen *quorum* does, which is exactly the condition
    under which an asynchronous BFT run can sit silent forever.

    All times are caller-provided, so the detector is deterministic and
    simulator-friendly.
    """

    def __init__(self, n: int, quorum: int | None = None, window: float = 30.0) -> None:
        if n < 1:
            raise ValueError(f"detector needs n >= 1, got {n}")
        self.n = n
        # Default quorum: n - f with f = (n - 1) // 3, the BFT availability
        # bound — progress is only *expected* of n - f nodes.
        self.quorum = quorum if quorum is not None else n - (n - 1) // 3
        if not 1 <= self.quorum <= n:
            raise ValueError(f"quorum {self.quorum} out of range for n={n}")
        self.window = window
        self._frontier: dict[int, int] = {}
        self._quorum_wave = -1
        self._advanced_at: float | None = None
        self.stalls_reported = 0

    def observe(self, pid: int, decided_wave: int, now: float) -> None:
        """Record one node's commit frontier at time ``now``."""
        if self._advanced_at is None:
            self._advanced_at = now  # start the clock at the first sample
        previous = self._frontier.get(pid, -1)
        if decided_wave > previous:
            self._frontier[pid] = decided_wave
        quorum_wave = self.quorum_frontier()
        if quorum_wave > self._quorum_wave:
            self._quorum_wave = quorum_wave
            self._advanced_at = now

    def quorum_frontier(self) -> int:
        """Highest wave at least ``quorum`` observed nodes have decided."""
        if len(self._frontier) < self.quorum:
            return -1
        waves = sorted(self._frontier.values(), reverse=True)
        return waves[self.quorum - 1]

    def stalled_for(self, now: float) -> float:
        """Seconds since the quorum frontier last advanced (0 before data)."""
        if self._advanced_at is None:
            return 0.0
        return max(0.0, now - self._advanced_at)

    def check(self, now: float) -> bool:
        """True when the frontier has been flat for at least ``window``.

        Repeated checks during one continuous stall return True only once
        per window: reporting re-arms the detector so a long stall
        produces periodic (not per-poll) diagnostics.
        """
        if self._advanced_at is None:
            return False
        if now - self._advanced_at >= self.window:
            self.stalls_reported += 1
            self._advanced_at = now  # re-arm
            return True
        return False


__all__ = [
    "DEFAULT_FLIGHT_CAPACITY",
    "DEFAULT_STREAM_CAPACITY",
    "EventRing",
    "FlightRecorder",
    "MetricsDelta",
    "STREAM_SCHEMA",
    "STREAM_VERSION",
    "StallDetector",
    "StreamFormatError",
    "StreamSubscriber",
    "apply_delta",
    "decode_stream_line",
    "delta_line",
    "encode_stream_line",
    "event_line",
    "registry_totals",
    "stream_header",
]
