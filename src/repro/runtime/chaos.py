"""Seeded fault injection for the TCP runtime's reliable links.

A :class:`ChaosTransport` sits under :class:`repro.runtime.reliable.ReliableLink`
and decides, per frame and per dial attempt, whether to misbehave:

* **drop** — the frame is discarded and the connection cut at that point
  (on a TCP byte stream, losing data *is* a connection failure; the
  reliable layer must reconnect and redeliver);
* **duplicate** — the frame is written twice (the receiver's sequence
  cursor must discard the copy);
* **delay** — the frame (and, head-of-line, everything queued behind it)
  is held for a bounded time, modelling congestion;
* **sever** — the connection is cut after every ``sever_every``-th
  first-attempt frame on a link that chaos did not drop;
* **dial failure** — ``open_connection`` is made to fail, exercising the
  retry/backoff path.

A frame's whole fate — the first four — is one :meth:`ChaosTransport.plan`
call. This module decides and counts; the link that suffers a fault records
it, as a ``chaos_*`` event on its node's bus. Process death is not modelled
here: in memory it is :class:`repro.core.faulty.RecoveringNode` in the
simulator, for real it is the scenario matrix's ``SIGKILL``
(:mod:`repro.runtime.scenario`).

Every decision is derived from ``(seed, link, seq)`` via
:func:`repro.common.rng.derive_rng`, so the *schedule* — which frames on
which links are dropped, duplicated, delayed or severed — is a pure
function of the seed and is identical across runs and across
:class:`ChaosTransport` instances. (Wall-clock interleaving of a real
asyncio run is not replayed; the protocol's guarantees must hold for every
interleaving, which is exactly what chaos tests assert.) Only a frame's
*first* transmission misbehaves, so redelivery always eventually succeeds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng

_RATES = ("drop_rate", "duplicate_rate", "delay_rate", "dial_fail_rate")


@dataclass(frozen=True)
class ChaosConfig:
    """Fault-injection knobs; all rates are per-frame probabilities in [0, 1).

    Attributes:
        drop_rate: Chance a first-attempt data frame is dropped (with the
            connection cut, as TCP loss implies).
        duplicate_rate: Chance a frame is written twice.
        delay_rate: Chance a frame is held before writing.
        max_delay: Upper bound (seconds) for an injected delay; positive.
        sever_every: Cut a link's connection after every this-many
            first-attempt frames chaos did not drop (guarantees each busy
            link is severed); None disables.
        dial_fail_rate: Chance a dial attempt fails (drives backoff).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: float = 0.02
    sever_every: int | None = None
    dial_fail_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATES:
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {value}")
        if self.max_delay <= 0:
            raise ConfigurationError(f"max_delay must be > 0, got {self.max_delay}")
        if self.sever_every is not None and self.sever_every < 1:
            raise ConfigurationError(f"sever_every must be >= 1, got {self.sever_every}")


@dataclass(frozen=True)
class FrameFate:
    """What chaos decided for one frame transmission: hold it ``delay``
    seconds, then either ``drop`` it (cutting the connection) or write it
    (twice when ``duplicate``) and cut the connection after it when
    ``sever``."""

    drop: bool = False
    duplicate: bool = False
    delay: float = 0.0
    sever: bool = False


#: The fate of a frame chaos leaves alone (a retransmission, or no chaos).
NO_FAULT = FrameFate()


class ChaosTransport:
    """Deterministic, seeded misbehaviour shared by every link in a cluster.

    One instance is passed to every :class:`repro.runtime.transport.TcpNetwork`
    of a cluster; its counters then aggregate the whole run's injected faults.
    """

    def __init__(self, seed: int, config: ChaosConfig):
        self.seed = seed
        self.config = config
        self.first_attempts = 0
        self.drops = 0
        self.duplicates = 0
        self.delays = 0
        self.severs = 0
        self.dial_failures = 0
        self.severs_by_link: Counter[tuple[int, int]] = Counter()
        self._seen: dict[tuple[int, int], int] = {}
        #: Per link: first-attempt frames chaos did not drop (sever cadence).
        self._kept: Counter[tuple[int, int]] = Counter()

    def _roll(self, *labels: object) -> float:
        return derive_rng(self.seed, "chaos", *labels).random()

    def plan(self, src: int, dst: int, seq: int) -> FrameFate:
        """Decide the whole fate of frame ``seq`` on the ``src -> dst`` link.

        Deterministic in ``(seed, src, dst, seq)``. Only a frame's *first*
        transmission misbehaves: retransmissions pass clean, otherwise a
        sever-triggered redelivery burst would re-roll the dice and the
        fault rates would compound into a reconnect storm. A planned frame
        counts toward the sever cadence even if its write then fails.
        """
        cfg = self.config
        link = (src, dst)
        if seq <= self._seen.get(link, 0):
            return NO_FAULT
        self._seen[link] = seq
        self.first_attempts += 1
        if self._roll(src, dst, seq, "drop") < cfg.drop_rate:
            self.drops += 1
            return FrameFate(drop=True)
        duplicate = self._roll(src, dst, seq, "dup") < cfg.duplicate_rate
        if duplicate:
            self.duplicates += 1
        delay = 0.0
        if self._roll(src, dst, seq, "delay") < cfg.delay_rate:
            delay = cfg.max_delay * self._roll(src, dst, seq, "delay-size")
            self.delays += 1
        self._kept[link] += 1
        sever = cfg.sever_every is not None and self._kept[link] % cfg.sever_every == 0
        if sever:
            self.severs += 1
            self.severs_by_link[link] += 1
        return FrameFate(duplicate=duplicate, delay=delay, sever=sever)

    def fail_dial(self, src: int, dst: int, attempt: int) -> bool:
        """True when dial ``attempt`` on the ``src -> dst`` link should fail."""
        if self._roll(src, dst, "dial", attempt) < self.config.dial_fail_rate:
            self.dial_failures += 1
            return True
        return False

    def drop_fraction(self) -> float:
        """Observed share of first-attempt frames that chaos dropped."""
        return self.drops / max(1, self.first_attempts)

    def report(self) -> dict[str, int | float]:
        """Counters of injected faults for logs and assertions."""
        return {
            "first_attempts": self.first_attempts,
            "drops": self.drops,
            "drop_fraction": round(self.drop_fraction(), 4),
            "duplicates": self.duplicates,
            "delays": self.delays,
            "severs": self.severs,
            "dial_failures": self.dial_failures,
        }
