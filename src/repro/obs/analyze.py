"""Trace analysis: summaries, filters, and clean-vs-faulty diffing.

The analysis works on the event *kinds* the wired layers emit (see
``docs/observability.md`` for the catalog). Per-wave statistics are the
protocol-level view the paper's Claim 6 speaks in: when did a wave become
ready, when did it commit, how much did it deliver — and, between two
traces of the same seeded cell, which waves paid latency for injected
faults (redelivery, severs, delays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.events import Event


def kind_counts(events: Iterable[Event]) -> dict[str, int]:
    """Event count per kind, sorted by kind."""
    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return {kind: counts[kind] for kind in sorted(counts)}


def filter_events(
    events: Iterable[Event],
    kinds: Sequence[str] | None = None,
    pids: Sequence[int] | None = None,
    tmin: float | None = None,
    tmax: float | None = None,
) -> list[Event]:
    """Events matching every given restriction (None = unrestricted)."""
    kind_set = set(kinds) if kinds is not None else None
    pid_set = set(pids) if pids is not None else None
    return [
        event
        for event in events
        if (kind_set is None or event.kind in kind_set)
        and (pid_set is None or event.pid in pid_set)
        and (tmin is None or event.time >= tmin)
        and (tmax is None or event.time <= tmax)
    ]


# ------------------------------------------------------------- wave stats


@dataclass
class WaveStats:
    """Cross-process statistics for one wave."""

    wave: int
    ready_time: float | None = None  # earliest wave_ready anywhere
    first_commit: float | None = None
    last_commit: float | None = None
    committers: int = 0  # processes that committed at this wave
    delivered: int = 0  # vertices delivered by those commits

    @property
    def latency(self) -> float | None:
        """Ready-to-last-commit span (None until both ends are seen)."""
        if self.ready_time is None or self.last_commit is None:
            return None
        return self.last_commit - self.ready_time


def wave_stats(events: Iterable[Event]) -> dict[int, WaveStats]:
    """Per-wave commit statistics, keyed by wave number (ascending)."""
    stats: dict[int, WaveStats] = {}

    def wave_of(event: Event) -> int | None:
        wave = event.get("wave")
        return wave if isinstance(wave, int) else None

    for event in events:
        if event.kind == "wave_ready":
            wave = wave_of(event)
            if wave is None:
                continue
            entry = stats.setdefault(wave, WaveStats(wave))
            if entry.ready_time is None or event.time < entry.ready_time:
                entry.ready_time = event.time
        elif event.kind == "commit":
            wave = wave_of(event)
            if wave is None:
                continue
            entry = stats.setdefault(wave, WaveStats(wave))
            if entry.first_commit is None or event.time < entry.first_commit:
                entry.first_commit = event.time
            if entry.last_commit is None or event.time > entry.last_commit:
                entry.last_commit = event.time
            entry.committers += 1
            delivered = event.get("delivered")
            if isinstance(delivered, int):
                entry.delivered += delivered
    return {wave: stats[wave] for wave in sorted(stats)}


# ---------------------------------------------------------------- summary


def _format_time(value: float | None) -> str:
    return f"{value:.4f}" if value is not None else "-"


def retention_note(meta: dict[str, object] | None, events: int) -> str | None:
    """One line saying the trace is a suffix, when its header says so.

    A runtime bus keeps a window (``meta.dropped_events`` counts what fell
    off it); per-wave tables and causal chains over such a trace cover the
    window, not the run.
    """
    dropped = (meta or {}).get("dropped_events")
    if not isinstance(dropped, int) or dropped <= 0:
        return None
    return f"trace is the last {events} events; {dropped} older dropped"


def summarize(
    events: Sequence[Event],
    meta: dict[str, object] | None = None,
    metrics: dict[str, object] | None = None,
) -> str:
    """Human-readable trace summary: kinds, processes, per-wave table."""
    lines: list[str] = []
    if meta:
        described = ", ".join(f"{k}={meta[k]}" for k in sorted(meta))
        lines.append(f"meta: {described}")
    note = retention_note(meta, len(events))
    if note is not None:
        lines.append(note)
    holes = (metrics or {}).get("dropped")
    if isinstance(holes, int) and holes > 0:
        lines.append(f"stream has holes: {holes} events lost to ring overflow")
    pids = sorted({event.pid for event in events})
    if events:
        lines.append(
            f"events: {len(events)}  pids: {len(pids)}  "
            f"time: [{events[0].time:.4f}, {events[-1].time:.4f}]"
        )
    else:
        lines.append("events: 0")
    counts = kind_counts(events)
    if counts:
        lines.append(f"{'kind':<20}{'count':>10}")
        for kind, count in counts.items():
            lines.append(f"{kind:<20}{count:>10}")
    waves = wave_stats(events)
    if waves:
        lines.append(
            f"{'wave':>4}{'ready':>10}{'first_commit':>14}{'last_commit':>13}"
            f"{'latency':>10}{'committers':>12}{'delivered':>11}"
        )
        for entry in waves.values():
            lines.append(
                f"{entry.wave:>4}{_format_time(entry.ready_time):>10}"
                f"{_format_time(entry.first_commit):>14}"
                f"{_format_time(entry.last_commit):>13}"
                f"{_format_time(entry.latency):>10}"
                f"{entry.committers:>12}{entry.delivered:>11}"
            )
    return "\n".join(lines)


# ------------------------------------------------------------------- diff


@dataclass
class WaveChange:
    """One wave whose commit statistics differ between two traces."""

    wave: int
    changed: dict[str, tuple[object, object]] = field(default_factory=dict)


@dataclass
class TraceDiff:
    """Structured difference between two traces (A = baseline, B = new)."""

    events_a: int = 0
    events_b: int = 0
    identical: bool = False
    #: kind -> (count in A, count in B), only where they differ.
    kind_deltas: dict[str, tuple[int, int]] = field(default_factory=dict)
    wave_changes: list[WaveChange] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        """True when the diff found nothing to report."""
        return self.identical or (not self.kind_deltas and not self.wave_changes)

    def render(self) -> str:
        """Human-readable diff report."""
        if self.identical:
            return f"traces identical ({self.events_a} events)"
        lines = [f"trace diff: {self.events_a} events (A) vs {self.events_b} events (B)"]
        if self.kind_deltas:
            lines.append("event kinds with changed counts:")
            for kind, (count_a, count_b) in self.kind_deltas.items():
                marker = " [only in B]" if count_a == 0 else (
                    " [only in A]" if count_b == 0 else ""
                )
                lines.append(f"  {kind:<20}{count_a:>8} -> {count_b:<8}{marker}")
        if self.wave_changes:
            lines.append("waves with changed commit statistics:")
            for change in self.wave_changes:
                parts = []
                for name in sorted(change.changed):
                    value_a, value_b = change.changed[name]
                    if isinstance(value_a, float) and isinstance(value_b, float):
                        parts.append(f"{name} {value_a:.4f} -> {value_b:.4f}")
                    else:
                        parts.append(f"{name} {value_a} -> {value_b}")
                lines.append(f"  wave {change.wave}: " + "; ".join(parts))
        if not self.kind_deltas and not self.wave_changes:
            lines.append("no differences at this tolerance")
        return "\n".join(lines)


def _floats_differ(a: float | None, b: float | None, tolerance: float) -> bool:
    if a is None or b is None:
        return a is not b
    return abs(a - b) > tolerance


def diff_traces(
    events_a: Sequence[Event],
    events_b: Sequence[Event],
    time_tolerance: float = 0.0,
) -> TraceDiff:
    """Compare two traces: event-kind counts and per-wave commit statistics.

    ``time_tolerance`` bounds how far a wave's ready time or latency may
    move before it is reported — 0.0 (exact) suits deterministic simulator
    traces; runtime (wall-clock) traces want a looser bound.
    """
    diff = TraceDiff(events_a=len(events_a), events_b=len(events_b))
    if list(events_a) == list(events_b):
        diff.identical = True
        return diff

    counts_a, counts_b = kind_counts(events_a), kind_counts(events_b)
    for kind in sorted(set(counts_a) | set(counts_b)):
        count_a, count_b = counts_a.get(kind, 0), counts_b.get(kind, 0)
        if count_a != count_b:
            diff.kind_deltas[kind] = (count_a, count_b)

    waves_a, waves_b = wave_stats(events_a), wave_stats(events_b)
    for wave in sorted(set(waves_a) | set(waves_b)):
        stat_a = waves_a.get(wave, WaveStats(wave))
        stat_b = waves_b.get(wave, WaveStats(wave))
        changed: dict[str, tuple[object, object]] = {}
        if _floats_differ(stat_a.ready_time, stat_b.ready_time, time_tolerance):
            changed["ready"] = (stat_a.ready_time, stat_b.ready_time)
        if _floats_differ(stat_a.latency, stat_b.latency, time_tolerance):
            changed["latency"] = (stat_a.latency, stat_b.latency)
        if stat_a.committers != stat_b.committers:
            changed["committers"] = (stat_a.committers, stat_b.committers)
        if stat_a.delivered != stat_b.delivered:
            changed["delivered"] = (stat_a.delivered, stat_b.delivered)
        if changed:
            diff.wave_changes.append(WaveChange(wave, changed))
    return diff
