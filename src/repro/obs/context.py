"""The bundle a deployment hands to every layer: its one event bus.

One :class:`Observability` instance per deployment (simulated or TCP): the
network wires its clock in at construction, and every process, broadcast
endpoint, ordering state machine, and reliable link that sees it emits
into the shared bus. It is optional in the simulator (layers
handed ``None`` skip emission at the cost of a ``None`` check) and always
on in the TCP runtime, whose bus keeps a bounded window of events.
"""

from __future__ import annotations

from typing import Protocol

from repro.obs.bus import EventBus
from repro.obs.events import Scalar


class ClockLike(Protocol):
    """Anything exposing a monotonic ``now`` (both schedulers qualify)."""

    @property
    def now(self) -> float: ...  # pragma: no cover - protocol


class Observability:
    """The shared event bus and the rule that binds its clock."""

    def __init__(self) -> None:
        self.bus = EventBus()
        self._clock_bound = False

    def attach_clock(self, scheduler: ClockLike, retain: int | None = None) -> None:
        """Bind the bus clock to ``scheduler.now`` — first binding wins.

        The first-wins rule lets a cluster of TCP networks share one bus:
        every network offers its scheduler, the first one becomes the
        cluster clock, and all events land on a single time axis. The
        binder also says how much of the log to keep: ``retain`` caps the
        bus at its newest events (the TCP runtime), None keeps them all
        (the simulator).
        """
        if self._clock_bound:
            return
        self._clock_bound = True
        self.bus.set_clock(lambda: scheduler.now)
        if retain is not None:
            self.bus.retain_last(retain)

    def emit(self, pid: int, kind: str, **fields: Scalar) -> None:
        """Shorthand for ``self.bus.emit``."""
        self.bus.emit(pid, kind, **fields)
