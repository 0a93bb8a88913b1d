"""Live telemetry's two deterministic pieces: a bounded ring, a stall detector.

Neither does I/O or reads a clock (times are passed in), so both are
unit-testable with synthetic clocks and clean under the determinism lint:

* :class:`EventRing` — a bounded ring (of bus events for a control-socket
  ``subscribe`` stream, of ack lines in the ingress gateway) that drops
  the *oldest* entry on overflow and counts every drop. Backpressure never
  blocks an emitter and never grows memory: a slow subscriber loses
  history, not liveness.
* :class:`StallDetector` — the driver-side liveness monitor: it watches
  per-node commit frontiers and reports a stall when the *quorum frontier*
  (the highest wave at least ``n - f`` nodes have decided) fails to advance
  for a configured window — a single slow node does not trip it, a frozen
  quorum does.

What a ``subscribe`` stream puts on the wire is a ``repro.obs.trace``
document written live (:mod:`repro.obs.export`); see docs/observability.md
"Live streaming and causal analysis".
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

#: Ring capacity of a ``subscribe`` stream's event buffer.
DEFAULT_STREAM_CAPACITY = 4096

T = TypeVar("T")


# ---------------------------------------------------------------- event ring


class EventRing(Generic[T]):
    """Bounded FIFO: overflow drops the oldest item and is counted.

    Holds bus events for a ``subscribe`` stream and encoded ack lines for
    the ingress gateway's ``ack`` streams.
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


# ------------------------------------------------------------ stall detector


class StallDetector:
    """Quorum-frontier liveness monitor for a driver watching n nodes.

    Feed it ``observe(pid, decided_wave, now)`` samples (from ``subscribe``
    ticks or ``status`` polls) and ask :meth:`stalled_for` how long the
    quorum frontier — the highest wave at least ``quorum`` nodes have
    decided — has failed to advance. A single frozen or lagging node
    never trips the detector (the quorum frontier tracks the healthy
    majority); a frozen *quorum* does, which is exactly the condition
    under which an asynchronous BFT run can sit silent forever.

    All times are caller-provided, so the detector is deterministic and
    simulator-friendly.
    """

    def __init__(self, n: int, window: float = 30.0) -> None:
        if n < 1:
            raise ValueError(f"detector needs n >= 1, got {n}")
        self.n = n
        # n - f with f = (n - 1) // 3, the BFT availability bound: progress
        # is only *expected* of n - f nodes.
        self.quorum = n - (n - 1) // 3
        self.window = window
        self._frontier: dict[int, int] = {}
        self._quorum_wave = -1
        self._advanced_at: float | None = None

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
            self._advanced_at = now  # re-arm
            return True
        return False
