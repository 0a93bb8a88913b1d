"""Deterministic event-loop behaviour."""

import heapq
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.scheduler import Scheduler


class TestScheduler:
    def test_time_ordering(self):
        sched = Scheduler()
        fired = []
        sched.call_at(3.0, lambda: fired.append(3))
        sched.call_at(1.0, lambda: fired.append(1))
        sched.call_at(2.0, lambda: fired.append(2))
        sched.run()
        assert fired == [1, 2, 3]

    def test_fifo_tie_break(self):
        sched = Scheduler()
        fired = []
        for i in range(10):
            sched.call_at(1.0, lambda i=i: fired.append(i))
        sched.run()
        assert fired == list(range(10))

    def test_now_advances(self):
        sched = Scheduler()
        seen = []
        sched.call_at(5.0, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [5.0]
        assert sched.now == 5.0

    def test_call_later_relative(self):
        sched = Scheduler()
        seen = []
        sched.call_at(2.0, lambda: sched.call_later(3.0, lambda: seen.append(sched.now)))
        sched.run()
        assert seen == [5.0]

    def test_cannot_schedule_in_past(self):
        sched = Scheduler()
        sched.call_at(2.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.call_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Scheduler().call_later(-1.0, lambda: None)

    def test_non_finite_time_rejected(self):
        # Regression: a NaN time used to fire ahead of earlier events and an
        # infinite delay moved the clock to inf.
        sched = Scheduler()
        fired = []
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                sched.call_at(bad, fired.append, "at")
            with pytest.raises(ValueError):
                sched.call_later(bad, fired.append, "later")
        sched.call_at(1.0, fired.append, "one")
        sched.run()
        assert fired == ["one"]
        assert sched.now == 1.0
        assert sched.pending == 0

    def test_cancel(self):
        sched = Scheduler()
        fired = []
        handle = sched.call_at(1.0, lambda: fired.append("cancelled"))
        sched.call_at(2.0, lambda: fired.append("kept"))
        sched.cancel(handle)
        sched.run()
        assert fired == ["kept"]

    def test_run_until(self):
        sched = Scheduler()
        fired = []
        sched.call_at(1.0, lambda: fired.append(1))
        sched.call_at(10.0, lambda: fired.append(10))
        sched.run(until=5.0)
        assert fired == [1]
        assert sched.now == 5.0
        sched.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_past_drained_queue(self):
        # Regression: when the queue drained before `until`, `run` used to
        # leave `now` at the last event time instead of `until`, so a
        # subsequent `call_later` was scheduled relative to stale time.
        sched = Scheduler()
        sched.call_at(1.0, lambda: None)
        sched.run(until=5.0)
        assert sched.now == 5.0
        seen = []
        sched.call_later(1.0, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [6.0]

    def test_run_until_advances_clock_on_empty_queue(self):
        sched = Scheduler()
        sched.run(until=3.0)
        assert sched.now == 3.0

    def test_run_until_advances_clock_when_all_events_cancelled(self):
        sched = Scheduler()
        handle = sched.call_at(1.0, lambda: None)
        sched.cancel(handle)
        sched.run(until=4.0)
        assert sched.now == 4.0
        assert sched.events_processed == 0

    def test_run_until_does_not_move_clock_backwards(self):
        sched = Scheduler()
        sched.call_at(7.0, lambda: None)
        sched.run()
        assert sched.now == 7.0
        sched.run(until=5.0)  # already past; must not rewind
        assert sched.now == 7.0

    def test_max_events(self):
        sched = Scheduler()
        fired = []
        for i in range(5):
            sched.call_at(float(i), lambda i=i: fired.append(i))
        sched.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_when(self):
        sched = Scheduler()
        fired = []
        for i in range(5):
            sched.call_at(float(i), lambda i=i: fired.append(i))
        sched.run(stop_when=lambda: len(fired) >= 2)
        assert fired == [0, 1]

    def test_events_created_during_run(self):
        sched = Scheduler()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sched.call_later(1.0, lambda: chain(depth + 1))

        sched.call_at(0.0, lambda: chain(0))
        sched.run()
        assert fired == [0, 1, 2, 3]

    def test_pending_count(self):
        sched = Scheduler()
        h1 = sched.call_at(1.0, lambda: None)
        sched.call_at(2.0, lambda: None)
        assert sched.pending == 2
        sched.cancel(h1)
        assert sched.pending == 1

    def test_cancel_after_fire_is_idempotent(self):
        # Cancelling a handle whose event already fired must not leak state
        # or disturb the pending count (the old `_cancelled` set kept such
        # handles forever).
        sched = Scheduler()
        fired = []
        handle = sched.call_at(1.0, lambda: fired.append("fired"))
        sched.run()
        assert fired == ["fired"]
        sched.cancel(handle)  # no-op: already fired
        sched.cancel(handle)  # idempotent
        assert sched.pending == 0
        later = sched.call_at(2.0, lambda: fired.append("later"))
        assert sched.pending == 1
        sched.run()
        assert fired == ["fired", "later"]
        sched.cancel(later)
        assert sched.pending == 0

    def test_double_cancel_keeps_pending_accurate(self):
        sched = Scheduler()
        handles = [sched.call_at(float(i), lambda: None) for i in range(4)]
        sched.cancel(handles[1])
        sched.cancel(handles[1])  # double-cancel must not double-count
        assert sched.pending == 3
        sched.run()
        assert sched.pending == 0
        assert sched.events_processed == 3

    def test_callback_args_carried_in_event(self):
        sched = Scheduler()
        seen = []
        sched.call_at(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sched.call_later(2.0, seen.append, "plain")
        sched.run()
        assert seen == [(1, "x"), "plain"]

    def test_pending_calls_exposes_args_and_supports_cancel(self):
        sched = Scheduler()
        seen = []

        def deliver(tag):
            seen.append(tag)

        sched.call_at(1.0, deliver, "a")
        keep = sched.call_at(2.0, deliver, "b")
        sched.call_at(3.0, lambda: seen.append("other"))
        pending = dict(sched.pending_calls(deliver))
        assert sorted(args for args in pending.values()) == [("a",), ("b",)]
        for handle, args in pending.items():
            if args == ("a",):
                sched.cancel(handle)
        assert keep in dict(sched.pending_calls(deliver))
        sched.run()
        assert seen == ["b", "other"]

    def test_empty_run_is_noop(self):
        sched = Scheduler()
        sched.run()
        assert sched.events_processed == 0


class HeapScheduler:
    """The reference: one binary heap of ``(time, handle)``-ordered events."""

    def __init__(self):
        self.queue = []
        self.now = 0.0
        self.events_processed = 0
        self.next_handle = 0

    @property
    def pending(self):
        return len(self.queue)

    def call_at(self, when, callback, *args):
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        handle = self.next_handle
        self.next_handle += 1
        heapq.heappush(self.queue, (when, handle, callback, args))
        return handle

    def call_later(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, callback, *args)

    def cancel(self, handle):
        self.queue = [entry for entry in self.queue if entry[1] != handle]
        heapq.heapify(self.queue)

    def run(self, until=None, max_events=None):
        fired = 0
        while self.queue:
            if max_events is not None and fired >= max_events:
                return
            when, _, callback, args = self.queue[0]
            if until is not None and when > until:
                self.now = until
                return
            heapq.heappop(self.queue)
            self.now = when
            self.events_processed += 1
            fired += 1
            callback(*args)
        if until is not None and until > self.now:
            self.now = until


# Absolute times: equal ones, several inside one 1/32-wide bucket, and far.
TIMES = st.sampled_from([0.0, 0.25, 1.0, 1.01, 1.02, 3.0, 1e6]) | st.floats(0.0, 1e6)
DELAYS = st.sampled_from([0.0, 0.0, 0.005, 0.5, 2.0]) | st.floats(0.0, 1e6)
# Delays of the events a callback schedules when it fires: mostly zero,
# the simulator's self-deliveries.
CHILDREN = st.lists(st.sampled_from([0.0, 0.0, 0.01, 0.5]), max_size=3).map(tuple)
OPS = st.one_of(
    st.tuples(st.just("at"), TIMES, CHILDREN),
    st.tuples(st.just("later"), DELAYS, CHILDREN),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    # run(until=now + span), then an event at now + offset: often earlier
    # than the bucket the run opened to peek at its head.
    st.tuples(
        st.just("until"),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 3.0),
        st.sampled_from([0.0, 0.001, 0.02, 0.3]),
        CHILDREN,
    ),
    st.tuples(st.just("max"), st.integers(0, 6)),
)


def drive(sched, program):
    """Run ``program`` on ``sched``; return what it observed after each step."""
    fired = []
    issued = []
    handle_of = {}
    tags = itertools.count()

    def schedule(method, time, children):
        tag = next(tags)
        try:
            handle = method(time, fire, tag, children)
        except ValueError:
            return "ValueError"
        handle_of[tag] = handle
        issued.append(handle)
        return handle

    def fire(tag, children):
        fired.append((sched.now, handle_of[tag], tag, children))
        for delay in children:
            schedule(sched.call_later, delay, ())

    steps = []
    for op in program:
        kind = op[0]
        if kind == "at":
            outcome = schedule(sched.call_at, op[1], op[2])
        elif kind == "later":
            outcome = schedule(sched.call_later, op[1], op[2])
        elif kind == "cancel":
            # A live, a fired or an already cancelled handle alike.
            outcome = issued[op[1] % len(issued)] if issued else None
            if outcome is not None:
                sched.cancel(outcome)
        elif kind == "until":
            sched.run(until=sched.now + op[1])
            outcome = schedule(sched.call_at, sched.now + op[2], op[3])
        else:
            outcome = sched.run(max_events=op[1])
        steps.append((kind, outcome, sched.now, sched.pending, sched.events_processed))
    sched.run()
    steps.append(("drain", None, sched.now, sched.pending, sched.events_processed))
    return steps, fired


class TestAgainstHeapReference:
    """The calendar queue fires what a binary heap would, in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(OPS, max_size=40))
    def test_same_fire_order_and_counters(self, program):
        assert drive(Scheduler(), program) == drive(HeapScheduler(), program)
