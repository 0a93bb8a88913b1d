"""Deterministic discrete-event scheduler.

Events are ordered by ``(time, sequence_number)``; the sequence number makes
simultaneous events fire in submission order, which keeps runs bit-for-bit
reproducible for a fixed seed. Asynchrony in the paper's sense comes from the
adversary choosing arbitrary (finite) message delays, not from real-time
nondeterminism.

Hot-path design notes: this loop executes every simulated message delivery,
so the run loop pops each heap entry exactly once (no separate peek/pop
passes), callbacks carry positional ``*args`` in the heap entry itself (so
callers need not allocate a closure per event), and cancellation is O(1) by
nulling the entry's callback through a handle->entry map — which also makes
:meth:`cancel` idempotent against handles that already fired and keeps
:attr:`pending` exact.

Batched fan-outs: a caller that knows a whole schedule of future events up
front (e.g. the network broadcasting one message to ``n`` destinations) can
:meth:`reserve_handles` for all of them and keep only *one* heap entry live
at a time, re-arming it with :meth:`call_at_reserved` as each step fires.
Because entries are ordered by ``(time, handle)`` and reserved handles are
allocated exactly where per-event scheduling would have allocated them, the
execution order is bit-identical to scheduling every event individually —
while the heap holds one entry per fan-out instead of one per message.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator


class Scheduler:
    """A minimal, deterministic event loop.

    Example:
        >>> sched = Scheduler()
        >>> fired = []
        >>> _ = sched.call_at(2.0, lambda: fired.append("late"))
        >>> _ = sched.call_at(1.0, lambda: fired.append("early"))
        >>> sched.run()
        >>> fired
        ['early', 'late']
    """

    def __init__(self) -> None:
        # Heap entries are mutable: [when, handle, callback, args]. A
        # cancelled entry has callback = None and stays queued until popped;
        # `_entries` maps live handles to their entries (insertion-ordered,
        # which is handle order).
        self._queue: list[list] = []
        self._entries: dict[int, list] = {}
        self._next_handle = 0
        self._now = 0.0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (cancelled ones excluded)."""
        return len(self._entries)

    def call_at(self, when: float, callback: Callable, *args: object) -> int:
        """Schedule ``callback(*args)`` at absolute time ``when``; return a handle."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        handle = self._next_handle
        self._next_handle = handle + 1
        entry = [when, handle, callback, args]
        self._entries[handle] = entry
        heapq.heappush(self._queue, entry)
        return handle

    def call_later(self, delay: float, callback: Callable, *args: object) -> int:
        """Schedule ``callback(*args)`` ``delay`` time units from now; return a handle."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback, *args)

    def reserve_handles(self, count: int) -> int:
        """Allocate ``count`` consecutive handles without queueing anything.

        Returns the first handle of the block. Pair with
        :meth:`call_at_reserved`: a fan-out reserves one handle per future
        delivery at send time (fixing each delivery's position in the
        ``(time, handle)`` total order) but arms only the earliest one.
        """
        if count < 0:
            raise ValueError(f"negative handle count: {count}")
        handle = self._next_handle
        self._next_handle = handle + count
        return handle

    def call_at_reserved(
        self, when: float, handle: int, callback: Callable, *args: object
    ) -> None:
        """Schedule ``callback(*args)`` at ``when`` under a reserved ``handle``.

        The handle must come from :meth:`reserve_handles` and must not be
        live; ``when`` may not be in the past. Ties at the same time fire
        in handle order, exactly as if the event had been scheduled with
        :meth:`call_at` at reservation time.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        if handle >= self._next_handle or handle in self._entries:
            raise ValueError(f"handle {handle} is not a free reserved handle")
        entry = [when, handle, callback, args]
        self._entries[handle] = entry
        heapq.heappush(self._queue, entry)

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled event; idempotent, no-op once it has fired."""
        entry = self._entries.pop(handle, None)
        if entry is not None:
            entry[2] = None
            entry[3] = ()  # drop arg references immediately

    def pending_calls(self, callback: Callable) -> Iterator[tuple[int, tuple]]:
        """Yield ``(handle, args)`` of pending events bound to ``callback``.

        Lets callers that carry state in event args (e.g. the network's
        in-flight messages) inspect it without shadow bookkeeping. Snapshot
        semantics: safe to :meth:`cancel` yielded handles while iterating.
        Yields in insertion order; re-armed reserved handles may appear out
        of handle order, so order-sensitive callers must sort by handle.
        """
        snapshot = [
            (handle, entry[3])
            for handle, entry in self._entries.items()
            if entry[2] == callback
        ]
        return iter(snapshot)

    def step(self) -> bool:
        """Run the earliest pending event. Return False when none remain."""
        queue = self._queue
        while queue:
            when, handle, callback, args = heapq.heappop(queue)
            if callback is None:
                continue
            del self._entries[handle]
            self._now = when
            self._events_processed += 1
            callback(*args)
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Run events until the queue drains or a bound is hit.

        Args:
            until: Stop before executing any event later than this time;
                the clock always lands exactly on ``until`` — also when
                the queue drains (or holds only cancelled entries) before
                reaching it, so ``run(until=T); run(until=2*T)`` paces a
                quiet simulation correctly instead of leaving ``now``
                stuck at the last executed event.
            max_events: Stop after executing this many further events.
            stop_when: Checked after every event; True stops the run.
        """
        queue = self._queue
        entries = self._entries
        remaining = max_events
        while queue:
            if remaining is not None:
                if remaining <= 0:
                    return
                remaining -= 1
            entry = queue[0]
            if entry[2] is None:  # cancelled: discard without executing
                heapq.heappop(queue)
                if remaining is not None:
                    remaining += 1
                continue
            when = entry[0]
            if until is not None and when > until:
                self._now = until
                return
            heapq.heappop(queue)
            del entries[entry[1]]
            self._now = when
            self._events_processed += 1
            entry[2](*entry[3])
            if stop_when is not None and stop_when():
                return
        if until is not None and until > self._now:
            self._now = until
