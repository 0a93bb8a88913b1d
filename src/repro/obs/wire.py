"""Communication and time accounting per the paper's §3 definitions.

* **Communication complexity** — "the total number of bits sent by honest
  processes to order a single transaction". The collector tallies bits sent
  by correct processes (broken down by message tag and sender); experiment
  harnesses divide by the number of ordered transactions.

* **Time complexity** — "a *time unit* for every execution r [is] the maximum
  time delay of all messages among correct processes in r". The collector
  records the maximum correct-to-correct delay observed, and
  :meth:`time_units` converts a simulated-time span into time units.

It lives in ``repro.obs`` so that both the simulator network and the TCP
runtime feed the same accounting, and so that trace exports can attach a
deterministic :meth:`snapshot` of it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class MetricsCollector:
    """Accumulates wire and timing statistics for one simulated execution."""

    bits_by_process: Counter[int] = field(default_factory=Counter)
    bits_by_tag: Counter[str] = field(default_factory=Counter)
    messages_by_tag: Counter[str] = field(default_factory=Counter)
    correct_bits_total: int = 0
    total_bits: int = 0
    messages_total: int = 0
    max_correct_delay: float = 0.0
    delays_recorded: int = 0
    _delay_sum: float = 0.0

    def record_send(
        self, src: int, bits: int, tag: str, src_correct: bool
    ) -> None:
        """Record one message leaving process ``src``."""
        self.messages_total += 1
        self.total_bits += bits
        self.messages_by_tag[tag] += 1
        if src_correct:
            self.correct_bits_total += bits
            self.bits_by_process[src] += bits
            self.bits_by_tag[tag] += bits

    def record_sends(
        self, src: int, bits: int, tag: str, src_correct: bool, count: int
    ) -> None:
        """Record ``count`` identical messages leaving ``src`` in one call.

        Exact integer arithmetic, so the totals are identical to ``count``
        :meth:`record_send` calls — this is the broadcast fast path (one
        bookkeeping pass per fan-out instead of one per destination).
        """
        self.messages_total += count
        self.total_bits += bits * count
        self.messages_by_tag[tag] += count
        if src_correct:
            self.correct_bits_total += bits * count
            self.bits_by_process[src] += bits * count
            self.bits_by_tag[tag] += bits * count

    def record_delay(self, delay: float, correct_pair: bool) -> None:
        """Record a message delay; only correct-to-correct delays define the time unit."""
        if correct_pair:
            self.max_correct_delay = max(self.max_correct_delay, delay)
            self.delays_recorded += 1
            self._delay_sum += delay

    def record_delays(self, delays: list[float]) -> None:
        """Record correct-pair delays in order, one call per fan-out.

        The float sum accumulates element by element exactly as repeated
        :meth:`record_delay` calls would, so the mean stays bit-identical
        whichever path recorded a broadcast's delays.
        """
        total = self._delay_sum
        peak = self.max_correct_delay
        for delay in delays:
            if delay > peak:
                peak = delay
            total += delay
        self.max_correct_delay = peak
        self.delays_recorded += len(delays)
        self._delay_sum = total

    @property
    def mean_correct_delay(self) -> float:
        """Average correct-to-correct delay (0 when nothing recorded)."""
        if not self.delays_recorded:
            return 0.0
        return self._delay_sum / self.delays_recorded

    def time_units(self, elapsed: float) -> float:
        """Convert a simulated-time span to paper time units.

        One time unit is the maximum correct-to-correct delay of the
        execution. Returns 0 when no delays were recorded.
        """
        if self.max_correct_delay <= 0:
            return 0.0
        return elapsed / self.max_correct_delay

    def bits_per_unit(self, units: int) -> float:
        """Correct-process bits divided by ``units`` (e.g. ordered transactions)."""
        if units <= 0:
            return float("inf")
        return self.correct_bits_total / units

    def snapshot(self) -> dict[str, object]:
        """Deterministic (sorted-key) dict of the §3 accounting state."""
        return {
            "bits_by_process": {
                str(pid): self.bits_by_process[pid]
                for pid in sorted(self.bits_by_process)
            },
            "bits_by_tag": {
                tag: self.bits_by_tag[tag] for tag in sorted(self.bits_by_tag)
            },
            "correct_bits_total": self.correct_bits_total,
            "delays_recorded": self.delays_recorded,
            "max_correct_delay": self.max_correct_delay,
            "mean_correct_delay": self.mean_correct_delay,
            "messages_by_tag": {
                tag: self.messages_by_tag[tag]
                for tag in sorted(self.messages_by_tag)
            },
            "messages_total": self.messages_total,
            "total_bits": self.total_bits,
        }
