"""Deterministic discrete-event scheduler.

Events fire in ``(time, handle)`` order, and a handle is taken when the event
is scheduled, so simultaneous events fire in submission order; that keeps
runs bit-for-bit reproducible for a fixed seed. Asynchrony in the paper's
sense comes from the adversary choosing arbitrary (finite) message delays,
not from real-time nondeterminism.

Hot-path design notes: the run loop executes every simulated message
delivery, so the queue is a calendar queue (Brown, CACM 1988) rather than a
binary heap. An event is an immutable ``(when, handle, callback, args)``
tuple, filed once in the bucket ``int(when * BUCKETS_PER_UNIT)``; a small
heap of bucket indices says which bucket comes next. Opening a bucket sorts
it once (``list.sort`` on float-led tuples is far cheaper than sifting each
event through a heap) and the loop walks it with a cursor. An event filed
into the open bucket, in practice a zero-delay self-delivery, is
``insort``-ed after the cursor. One filed *before* the open bucket, possible
only after ``run(until=...)`` opened a later bucket to peek at its head,
closes that bucket again. Multiplying by a power of two is exact, so a later
time never gets a lower bucket. Callbacks carry positional ``*args`` in the
entry itself, so callers need not allocate a closure per event. Cancelling
scans the pending entries and removes one from its bucket: only the
network's adaptive corruption and tests cancel, so the per-event path pays
nothing for it, and :attr:`pending` stays exact.
"""

from __future__ import annotations

import math
import sys
from bisect import insort
from heapq import heappop, heappush
from typing import Callable, Iterator

#: Buckets per unit of simulated time: the default ``UniformDelay`` draws
#: delays from [0.1, 1.0], so no delivery over the wire lands in the open
#: bucket.
BUCKETS_PER_UNIT = 32

#: The latest schedulable time: any later one has no finite bucket index.
_LATEST = sys.float_info.max / BUCKETS_PER_UNIT

#: An event: ``(when, handle, callback, args)``.
_Entry = tuple[float, int, Callable[..., object], tuple[object, ...]]


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
        # Closed buckets by index, unsorted, and a heap of their indices.
        self._buckets: dict[int, list[_Entry]] = {}
        self._keys: list[int] = []
        # The open bucket, sorted; entries before the cursor have fired.
        # No bucket is open while the key is -inf.
        self._open: list[_Entry] = []
        self._open_key: float = -math.inf
        self._cursor = 0
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
        return len(self._open) - self._cursor + sum(map(len, self._buckets.values()))

    def call_at(self, when: float, callback: Callable, *args: object) -> int:
        """Schedule ``callback(*args)`` at absolute time ``when``; return a handle."""
        if not self._now <= when <= _LATEST:
            if when < self._now:
                raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
            raise ValueError(f"cannot schedule at {when}: not a finite time <= {_LATEST:.3g}")
        handle = self._next_handle
        self._next_handle = handle + 1
        entry = (when, handle, callback, args)
        key = int(when * BUCKETS_PER_UNIT)
        if key <= self._open_key:
            if key == self._open_key:
                insort(self._open, entry, self._cursor)
                return handle
            self._close_open_bucket()
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
            heappush(self._keys, key)
        else:
            bucket.append(entry)
        return handle

    def call_later(self, delay: float, callback: Callable, *args: object) -> int:
        """Schedule ``callback(*args)`` ``delay`` time units from now; return a handle."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback, *args)

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled event; idempotent, no-op once it has fired."""
        for bucket, start in self._live_buckets():
            for index in range(start, len(bucket)):
                if bucket[index][1] == handle:
                    del bucket[index]
                    return

    def pending_calls(self, callback: Callable) -> Iterator[tuple[int, tuple]]:
        """Yield ``(handle, args)`` of pending events bound to ``callback``.

        Lets callers that carry state in event args (e.g. the network's
        in-flight messages) inspect it without shadow bookkeeping. Yields in
        handle order, the order the events were scheduled. Snapshot
        semantics: safe to :meth:`cancel` yielded handles while iterating.
        """
        snapshot = [
            (entry[1], entry[3])
            for bucket, start in self._live_buckets()
            for entry in bucket[start:]
            if entry[2] == callback
        ]
        snapshot.sort(key=lambda item: item[0])
        return iter(snapshot)

    def _live_buckets(self) -> Iterator[tuple[list[_Entry], int]]:
        """Each bucket with the index of its first pending entry."""
        yield self._open, self._cursor
        for bucket in self._buckets.values():
            yield bucket, 0

    def _close_open_bucket(self) -> None:
        """File the open bucket's pending entries back as a closed bucket."""
        rest = self._open[self._cursor :]
        if rest:
            key = int(self._open_key)
            self._buckets[key] = rest
            heappush(self._keys, key)
        self._open = []
        self._open_key = -math.inf
        self._cursor = 0

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
        keys = self._keys
        buckets = self._buckets
        limit = math.inf if until is None else until
        remaining = -1 if max_events is None else max(max_events, 0)
        while True:
            bucket = self._open
            cursor = self._cursor
            if cursor == len(bucket):
                if not keys:
                    break
                key = heappop(keys)
                bucket = buckets.pop(key)
                bucket.sort()
                self._open = bucket
                self._open_key = key
                self._cursor = 0
                continue
            if remaining == 0:
                return
            when, _, callback, args = bucket[cursor]
            if when > limit:
                self._now = limit
                return
            self._cursor = cursor + 1
            self._now = when
            self._events_processed += 1
            remaining -= 1
            callback(*args)
            if stop_when is not None and stop_when():
                return
        if until is not None and until > self._now:
            self._now = until
