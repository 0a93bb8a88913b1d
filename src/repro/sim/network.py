"""Simulated asynchronous network with reliable authenticated links.

Matches the model of paper §2:

* the link between every two *correct* processes is reliable — the network
  refuses to drop such messages even if the adversary asks;
* the recipient learns the authentic sender identity (``src`` is attached by
  the network, not by the message payload);
* the adversary controls all delivery times;
* once a process is corrupted, the adversary may drop its still-undelivered
  messages (:meth:`Network.corrupt` re-checks queued traffic).

Self-addressed messages are delivered immediately and cost zero bits — they
never cross the wire.

Hot-path design notes: :meth:`send` runs once per simulated message, so it
allocates nothing beyond the scheduler's entry: the in-flight
``(src, dst, message)`` rides in that entry as callback args instead of a
per-send closure plus side-table record. :meth:`broadcast` draws drop
decisions and delays per destination in pid order and files each delivery
with ``Scheduler.call_at`` as it goes, so its RNG stream, handles and
``(time, handle)`` fire order are those of ``n`` individual sends (the tests
keep that loop as their oracle: ``tests/unit/test_network.py``), while the
wire-bit and delay accounting is batched per broadcast. The rare
adaptive-corruption path finds in-flight traffic through
``Scheduler.pending_calls``. Wire sizes go through
:meth:`repro.sim.wire.Message.wire_size_cached`, so a broadcast to ``n``
peers prices the message once, not ``n`` times.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.common.config import SystemConfig
from repro.common.errors import ProtocolError
from repro.obs.context import Observability
from repro.obs.wire import MetricsCollector
from repro.sim.adversary import Adversary
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import Process
    from repro.sim.wire import Message


class Network:
    """Routes messages between registered processes under adversary control."""

    def __init__(
        self,
        scheduler: Scheduler,
        config: SystemConfig,
        adversary: Adversary,
        metrics: MetricsCollector | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.adversary = adversary
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.obs = obs
        if obs is not None:
            # The simulator's clock is the one deterministic time axis; every
            # event any layer emits through this deployment rides on it.
            obs.attach_clock(scheduler)
        self._processes: dict[int, "Process"] = {}
        self._n = config.n
        self._dsts = config.processes  # immutable range, hoisted off hot path
        self._corrupted: set[int] = set(config.byzantine)
        # Stable bound-method reference: scheduler entries carry it as
        # their callback, and `corrupt` finds in-flight traffic by matching
        # it; binding once avoids a method object per send.
        self._deliver_cb = self._deliver
        self._record_send = self.metrics.record_send
        # The base Adversary.should_drop is a constant False and draws no
        # randomness, so the per-destination hook call can be skipped
        # entirely unless the adversary (sub)class or instance overrides it.
        hook = adversary.should_drop
        self._drop_hook = (
            None if getattr(hook, "__func__", None) is Adversary.should_drop else hook
        )

    def register(self, process: "Process") -> None:
        """Attach a process; its pid must be unique and in range."""
        pid = process.pid
        if not 0 <= pid < self.config.n:
            raise ProtocolError(f"pid {pid} out of range for n={self.config.n}")
        if pid in self._processes:
            raise ProtocolError(f"pid {pid} registered twice")
        self._processes[pid] = process

    @property
    def corrupted(self) -> frozenset[int]:
        """Processes currently controlled by the adversary."""
        return frozenset(self._corrupted)

    def corrupt(self, pid: int) -> None:
        """Adaptively corrupt ``pid`` and drop its queued messages on request.

        Models the §2 adaptive adversary: corruption happens mid-run, after
        which the adversary may drop this sender's undelivered traffic. The
        in-flight messages are the scheduler's pending deliveries; this rare
        path queries the adversary in handle order (the original send
        order) rather than taxing every send with bookkeeping.
        """
        if len(self._corrupted | {pid}) > self.config.f:
            raise ProtocolError(
                f"corrupting {pid} would exceed f={self.config.f} faults"
            )
        self._corrupted.add(pid)
        now = self.scheduler.now
        dropped = 0
        for handle, (src, dst, message) in self.scheduler.pending_calls(
            self._deliver_cb
        ):
            if src != pid or src == dst:
                continue  # self-deliveries never cross the wire
            if self.adversary.should_drop(pid, dst, message, now):
                dropped += 1
                self.scheduler.cancel(handle)
        if self.obs is not None:
            self.obs.emit(pid, "corrupt", in_flight_dropped=dropped)

    def is_correct(self, pid: int) -> bool:
        """True when ``pid`` has not been corrupted."""
        return pid not in self._corrupted

    def send(self, src: int, dst: int, message: "Message") -> None:
        """Send ``message`` from ``src`` to ``dst`` (delivery is asynchronous)."""
        if dst not in self._processes:
            raise ProtocolError(f"unknown destination {dst}")
        if src == dst:
            # Local hand-off: no wire cost, immediate delivery, but still via
            # the scheduler so handlers never reenter each other.
            self.scheduler.call_later(0.0, self._deliver_cb, src, dst, message)
            return

        bits = message.wire_size_cached(self.config.n)
        self._record_send(src, bits, message.tag(), src not in self._corrupted)

        now = self.scheduler.now
        if self._drop_hook is not None and self._drop_hook(src, dst, message, now):
            if self.is_correct(src):
                raise ProtocolError(
                    "adversary attempted to drop a correct process's message"
                )
            return

        delay = self.adversary.delay(src, dst, message, now)
        if not (delay >= 0 and math.isfinite(delay)):
            raise ProtocolError(f"adversary returned invalid delay {delay}")
        self.metrics.record_delay(delay, self.is_correct(src) and self.is_correct(dst))

        self.scheduler.call_later(delay, self._deliver_cb, src, dst, message)

    def broadcast(self, src: int, message: "Message") -> None:
        """Send ``message`` from ``src`` to every process, including itself.

        Draws drop decisions and delays per destination in pid order and
        files each delivery as it goes: the RNG consumption, handles and
        fire order of ``n`` individual sends. Metrics accounting (wire bits,
        delay records) happens here at send time, before any delivery
        fires, just as with per-destination sends.
        """
        if len(self._processes) < self._n:
            # Partially-registered deployment: per-destination sends, which
            # raise ProtocolError at the first unknown destination.
            for dst in self._dsts:
                self.send(src, dst, message)
            return

        now = self.scheduler.now
        call_at = self.scheduler.call_at
        deliver = self._deliver_cb
        corrupted = self._corrupted
        correct_src = src not in corrupted
        bits = message.wire_size_cached(self._n)
        tag = message.tag()
        # One bookkeeping pass for the n-1 identical wire sends (exact
        # integer arithmetic: totals match n-1 record_send calls).
        self.metrics.record_sends(src, bits, tag, correct_src, self._n - 1)
        drop_hook = self._drop_hook
        delay_of = self.adversary.delay
        # Correct-pair delays batched in draw order: record_delays
        # accumulates element by element, so sums and extrema
        # are bit-identical to per-destination recording.
        correct_delays: list[float] = []
        for dst in self._dsts:
            if dst == src:
                # Local hand-off: no wire cost, immediate delivery.
                call_at(now, deliver, src, dst, message)
                continue
            if drop_hook is not None and drop_hook(src, dst, message, now):
                if correct_src:
                    raise ProtocolError(
                        "adversary attempted to drop a correct process's message"
                    )
                continue  # dropped: no handle, exactly like a skipped send
            delay = delay_of(src, dst, message, now)
            if not (delay >= 0 and math.isfinite(delay)):
                raise ProtocolError(f"adversary returned invalid delay {delay}")
            if correct_src and dst not in corrupted:
                correct_delays.append(delay)
            call_at(now + delay, deliver, src, dst, message)
        self.metrics.record_delays(correct_delays)

    def _deliver(self, src: int, dst: int, message: "Message") -> None:
        process = self._processes.get(dst)
        if process is not None:
            process.on_message(src, message)
