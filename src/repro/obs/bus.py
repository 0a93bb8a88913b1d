"""Deterministic event bus: append-only log plus synchronous subscribers.

One :class:`EventBus` is shared by every process of a deployment (the
simulator's, or a whole TCP cluster's), so the log interleaves events
exactly as they happened under the owning clock. Emission is synchronous
and allocation-light; with no subscribers it is an append.

The log is unbounded unless :meth:`EventBus.retain_last` caps it. The
simulator keeps every event (its traces are exact-compared and causally
stitched whole); the TCP runtime keeps a window, because a process that
runs for hours must not hold every event it ever emitted. Subscribers see
every event either way — long captures belong to a subscriber that writes
them out, not to process memory.

The clock is *injected*: the simulator binds ``Scheduler.now``, the TCP
runtime binds its monotonic :class:`repro.runtime.transport.AsyncScheduler`.
The bus itself never reads time on its own — the default clock is the
constant 0.0, which keeps a bare bus usable in unit tests and keeps this
module clean under the determinism lint's wall-clock rule.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

from repro.obs.events import Event, Scalar, make_fields

#: ``subscriber(event)`` — called synchronously for every emitted event.
Subscriber = Callable[[Event], None]


def _zero_clock() -> float:
    return 0.0


class EventBus:
    """Append-only, clock-stamped event log."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.events: list[Event] | deque[Event] = []
        self._clock = clock if clock is not None else _zero_clock
        self._subscribers: list[Subscriber] = []
        self._emitted = 0  # counted only once the log is a window

    # --------------------------------------------------------------- window

    def retain_last(self, capacity: int) -> None:
        """Keep only the newest ``capacity`` events from here on.

        ``events`` becomes a ``deque(maxlen=capacity)``, so emitting stays
        a bare append; what falls off the far end is counted by a
        subscriber, so an unbounded bus pays nothing for the feature.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if self._count_emit not in self._subscribers:
            self._emitted = len(self.events)
            self._subscribers.append(self._count_emit)
        self.events = deque(self.events, maxlen=capacity)

    def _count_emit(self, event: Event) -> None:
        self._emitted += 1

    @property
    def dropped(self) -> int:
        """Events that have fallen off a bounded log (0 when unbounded)."""
        return max(0, self._emitted - len(self.events))

    # ---------------------------------------------------------------- clock

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Bind the time source future emits are stamped with."""
        self._clock = clock

    @property
    def now(self) -> float:
        """The bound clock's current time."""
        return self._clock()

    # ----------------------------------------------------------------- emit

    def emit(self, pid: int, kind: str, **fields: Scalar) -> Event:
        """Append one event stamped with the bound clock's current time."""
        # Inlined emit_at: this runs per protocol event, and delegating
        # would repack ``fields`` into kwargs a second time.
        event = Event(self._clock(), pid, kind, make_fields(fields))
        self.events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def emit_at(self, time: float, pid: int, kind: str, **fields: Scalar) -> Event:
        """Append one event with an explicit time stamp."""
        event = Event(time, pid, kind, make_fields(fields))
        self.events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def subscribe(self, subscriber: Subscriber) -> None:
        """Call ``subscriber`` synchronously for every future emit."""
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach a subscriber added with :meth:`subscribe`; idempotent.

        Live taps (a control-socket ``subscribe`` stream's ring) come and
        go with connections, so detaching must not error when the
        subscriber is already gone.
        """
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    # ---------------------------------------------------------------- views

    def of_kind(self, kind: str, pid: int | None = None) -> list[Event]:
        """Events of one kind, optionally restricted to one process."""
        return [
            event
            for event in self.events
            if event.kind == kind and (pid is None or event.pid == pid)
        ]

    def kinds(self) -> set[str]:
        """All event kinds seen so far."""
        return {event.kind for event in self.events}

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
