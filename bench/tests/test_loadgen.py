"""Open-loop lateness accounting against a fake clock."""

from bench.loadgen import OpenLoopSchedule

MS = 1_000_000


def test_on_time_sender_takes_one_batch_per_tick() -> None:
    schedule = OpenLoopSchedule(start_ns=100 * MS, tick_ns=10 * MS, ticks=3)
    assert schedule.take_due(99 * MS) == []
    assert schedule.take_due(100 * MS) == [100 * MS]
    assert schedule.take_due(105 * MS) == []
    assert schedule.take_due(110 * MS) == [110 * MS]
    assert schedule.take_due(121 * MS) == [120 * MS]
    assert schedule.done


def test_a_stall_charges_the_wait_to_the_requests_it_delayed() -> None:
    schedule = OpenLoopSchedule(start_ns=0, tick_ns=10 * MS, ticks=10)
    assert schedule.take_due(0) == [0]
    # The sender stalls for 45 ms: four batches come due while it sleeps.
    now = 45 * MS
    due = schedule.take_due(now)
    assert due == [10 * MS, 20 * MS, 30 * MS, 40 * MS]
    # Each keeps its own due time, so measured from "due" they are late by
    # 35, 25, 15 and 5 ms — the wait is not forgiven by rebasing the clock.
    assert [(now - d) // MS for d in due] == [35, 25, 15, 5]
    assert schedule.next_due_ns == 50 * MS  # and the schedule does not drift
