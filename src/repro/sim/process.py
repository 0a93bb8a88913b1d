"""Message-driven process harness.

Protocol implementations subclass :class:`Process` and react to
:meth:`on_message`; there is no shared memory and no clock access beyond the
simulated ``now`` — exactly the asynchronous message-passing model of §2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.common.config import SystemConfig
from repro.obs.context import Observability
from repro.obs.events import Scalar
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.wire import Message


class Process:
    """One simulated process, identified by ``pid`` in ``0..n-1``."""

    def __init__(self, pid: int, network: Network) -> None:
        self.pid = pid
        self.network = network
        network.register(self)

    @property
    def config(self) -> SystemConfig:
        """The deployment configuration."""
        return self.network.config

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.network.scheduler.now

    @property
    def obs(self) -> Observability | None:
        """The deployment's observability bundle (None when disabled)."""
        return self.network.obs

    def emit(self, kind: str, **fields: Scalar) -> None:
        """Emit an event for this process; no-op when observability is off."""
        obs = self.network.obs
        if obs is not None:
            obs.bus.emit(self.pid, kind, **fields)

    def start(self) -> None:
        """Called once at simulation start; override to kick off the protocol."""

    def on_message(self, src: int, message: "Message") -> None:
        """Handle a message delivered from authenticated sender ``src``."""
        raise NotImplementedError

    def send(self, dst: int, message: "Message") -> None:
        """Send a point-to-point message."""
        self.network.send(self.pid, dst, message)

    def broadcast(self, message: "Message") -> None:
        """Send ``message`` to all processes (including self)."""
        self.network.broadcast(self.pid, message)

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule a local callback (used for retries/timeouts in baselines)."""
        self.network.scheduler.call_later(delay, callback)
