"""Sample-based probabilistic reliable broadcast (Guerraoui et al. [25]).

Reproduces the Murmur/Sieve/Contagion stack: every phase talks to random
*samples* of O(log n) processes instead of everyone, cutting the message
complexity of a broadcast from O(n²) to O(n log n) at the price of an ε
probability of violating agreement/totality.

Per-process samples (drawn at start-up, with subscription messages so peers
know who to feed):

* **gossip sample** (Murmur) — on first receipt of a payload, forward it to
  this sample; with O(log n) fan-out the rumour reaches everyone whp.
* **echo sample** (Sieve, consistency) — echo the first payload per slot to
  echo-subscribers; a process accepts a payload once an
  ``ECHO_RATIO`` fraction of *its* echo sample echoed the same digest.
* **ready + delivery samples** (Contagion, totality) — readies propagate
  with a feedback threshold, and delivery fires once a ``DELIVERY_RATIO``
  fraction of the delivery sample is ready.

Late subscriptions are replayed: if a subscription arrives after this
process already echoed/readied some slots, those messages are re-sent to the
new subscriber, so start-up races cannot lose signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.broadcast.base import Payload, ReliableBroadcast
from repro.common.rng import derive_rng
from repro.sim.wire import BITS_PER_ROUND, BITS_PER_TAG, Message, bits_for_process_id

#: Subscription channels.
_CHANNELS = ("echo", "ready")

#: Vote fractions of the echo, ready and delivery samples that advance a
#: slot to the next phase.
ECHO_RATIO = 0.66
READY_RATIO = 0.33
DELIVERY_RATIO = 0.66


@dataclass(frozen=True, slots=True)
class GossipSubscribe(Message):
    """Ask the recipient to feed us its future messages on ``channel``."""

    channel: str

    def wire_size(self, n: int) -> int:
        return BITS_PER_TAG

    def tag(self) -> str:
        return f"gossip.subscribe.{self.channel}"


@dataclass(frozen=True, slots=True)
class GossipMessage(Message):
    """A phase message: kind in {GOSSIP, ECHO, READY}, payload attached."""

    kind: str
    source: int
    round: int
    payload: Payload

    def wire_size(self, n: int) -> int:
        return (
            BITS_PER_TAG
            + bits_for_process_id(n)
            + BITS_PER_ROUND
            + self.payload.wire_bits(n)
        )

    def tag(self) -> str:
        return f"gossip.{self.kind.lower()}"


class _Slot:
    """Per-(source, round) state.

    Vote sets are int bitmasks keyed by digest; the phase flags must live
    for the whole run (a late GOSSIP for an old slot must not re-forward),
    but votes are reclaimed eagerly — echo/ready votes once the slot
    readied, delivery votes once it delivered — since they only ever feed
    those transitions.
    """

    __slots__ = ("gossiped", "echoed", "readied", "echo_votes", "ready_votes", "delivery_votes")

    def __init__(self) -> None:
        self.gossiped = False
        self.echoed = False
        self.readied = False
        self.echo_votes: dict[bytes, int] = {}
        self.ready_votes: dict[bytes, int] = {}
        self.delivery_votes: dict[bytes, int] = {}


class GossipBroadcast(ReliableBroadcast):
    """Per-process endpoint of the probabilistic broadcast stack.

    Args (beyond the base class):
        sample_factor: Sample size is ``min(n, ceil(sample_factor · ln n))``.
    """

    def __init__(
        self,
        *args,
        sample_factor: float = 4.0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        n = self.config.n
        self._sample_size = min(n, max(1, math.ceil(sample_factor * math.log(max(2, n)))))
        # Thresholds are pure functions of the fixed sample size; computed
        # once instead of per message.
        size = self._sample_size
        self._echo_threshold = max(1, math.ceil(ECHO_RATIO * size))
        self._ready_threshold = max(1, math.ceil(READY_RATIO * size))
        self._delivery_threshold = max(1, math.ceil(DELIVERY_RATIO * size))

        rng = derive_rng(self.config.seed, "gossip-samples", self.pid)
        population = list(self.config.processes)
        self._gossip_sample = rng.sample(population, self._sample_size)
        self._echo_sample = set(rng.sample(population, self._sample_size))
        self._ready_sample = set(rng.sample(population, self._sample_size))
        self._delivery_sample = set(rng.sample(population, self._sample_size))

        self._subscribers: dict[str, set[int]] = {c: set() for c in _CHANNELS}
        self._slots: dict[tuple[int, int], _Slot] = {}
        self._sent_log: dict[str, list[GossipMessage]] = {c: [] for c in _CHANNELS}
        self._subscribed = False

    def _ensure_subscriptions(self) -> None:
        """Lazily send subscription requests (idempotent)."""
        if self._subscribed:
            return
        self._subscribed = True
        for peer in self._echo_sample:
            self._send(peer, GossipSubscribe("echo"))
        for peer in self._ready_sample | self._delivery_sample:
            self._send(peer, GossipSubscribe("ready"))

    def r_bcast(self, payload: Payload, round_: int) -> None:
        self._ensure_subscriptions()
        message = GossipMessage("GOSSIP", self.pid, round_, payload)
        self._on_gossip(self.pid, message)

    def handle(self, src: int, message: Message) -> bool:
        # Exact-type tests first (hot case); isinstance fallbacks for
        # subclasses.
        tp = type(message)
        if tp is GossipSubscribe or isinstance(message, GossipSubscribe):
            self._ensure_subscriptions()
            if message.channel in self._subscribers:
                self._subscribers[message.channel].add(src)
                for past in self._sent_log[message.channel]:
                    self._send(src, past)
            return True
        if tp is not GossipMessage and not isinstance(message, GossipMessage):
            return False
        self._ensure_subscriptions()
        if message.kind == "GOSSIP":
            self._on_gossip(src, message)
        elif message.kind == "ECHO":
            self._on_echo(src, message)
        elif message.kind == "READY":
            self._on_ready(src, message)
        return True

    def _publish(self, channel: str, message: GossipMessage) -> None:
        self._sent_log[channel].append(message)
        for subscriber in self._subscribers[channel]:
            self._send(subscriber, message)

    def _slot(self, message: GossipMessage) -> _Slot:
        key = (message.source, message.round)
        slot = self._slots.get(key)
        if slot is None:  # avoid a throwaway _Slot() per message
            slot = self._slots[key] = _Slot()
        return slot

    def _on_gossip(self, src: int, message: GossipMessage) -> None:
        slot = self._slot(message)
        if slot.gossiped:
            return
        slot.gossiped = True
        for peer in self._gossip_sample:
            if peer != self.pid:
                self._send(peer, message)
        if not slot.echoed:
            slot.echoed = True
            self._publish(
                "echo",
                GossipMessage("ECHO", message.source, message.round, message.payload),
            )

    def _on_echo(self, src: int, message: GossipMessage) -> None:
        if src not in self._echo_sample:
            return
        slot = self._slot(message)
        if slot.readied:
            return  # echo votes only feed the ready transition
        digest = message.payload.digest
        mask = slot.echo_votes.get(digest, 0) | (1 << src)
        slot.echo_votes[digest] = mask
        if mask.bit_count() >= self._echo_threshold:
            slot.readied = True
            slot.echo_votes = {}
            slot.ready_votes = {}
            self._publish(
                "ready",
                GossipMessage("READY", message.source, message.round, message.payload),
            )

    def _on_ready(self, src: int, message: GossipMessage) -> None:
        slot = self._slot(message)
        digest = message.payload.digest
        if src in self._ready_sample and not slot.readied:
            mask = slot.ready_votes.get(digest, 0) | (1 << src)
            slot.ready_votes[digest] = mask
            if mask.bit_count() >= self._ready_threshold:
                slot.readied = True
                slot.echo_votes = {}
                slot.ready_votes = {}
                self._publish(
                    "ready",
                    GossipMessage(
                        "READY", message.source, message.round, message.payload
                    ),
                )
        if (
            src in self._delivery_sample
            and (message.source, message.round) not in self._delivered_slots
        ):
            mask = slot.delivery_votes.get(digest, 0) | (1 << src)
            slot.delivery_votes[digest] = mask
            if mask.bit_count() >= self._delivery_threshold:
                slot.delivery_votes = {}
                self._deliver(message.payload, message.round, message.source)
