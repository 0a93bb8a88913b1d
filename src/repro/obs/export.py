"""Versioned JSONL trace export and import.

Layout of a trace file (one JSON document per line):

* line 1 — the **header**: ``{"schema": "repro.obs.trace", "version": 1,
  "meta": {...}}``. ``meta`` is caller-provided run identification (cell
  name, seed, n, ...) and must itself be deterministic if byte-identical
  traces are wanted — no timestamps.
* one line per **event**, in emit order: ``{"kind": ..., "pid": ...,
  "t": ...}`` plus ``"f": {...}`` when the event has fields. Keys are
  sorted and separators compact, so a deterministic event sequence
  serializes to byte-identical text.
* optionally **metrics records**: ``{"schema": "repro.obs.metrics",
  "version": 1, "metrics": {...}}`` carrying link or wire-accounting
  totals as absolute values. A finished trace has one, as its footer;
  a control ``subscribe`` stream is the same document written live — the
  header, each event as it happens, one metrics record per tick — so a
  reader keeps the last record it sees.
* a further **header line** opens the next *life*: a restarted node's
  stream tee has one per process life, on one host clock.

Two runs of the same seeded simulator cell therefore produce files that
``diff`` (the Unix tool *or* ``python -m repro.obs diff``) as empty — the
property the same-seed determinism test asserts byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, Iterable

from repro.obs.events import Event, make_fields

#: Header schema identifier; bump :data:`TRACE_VERSION` on layout changes.
TRACE_SCHEMA = "repro.obs.trace"
METRICS_SCHEMA = "repro.obs.metrics"
TRACE_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file that does not follow the schema above."""


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def event_record(event: Event) -> dict[str, object]:
    """One event as its JSON-ready line dict."""
    record: dict[str, object] = {"kind": event.kind, "pid": event.pid, "t": event.time}
    if event.fields:
        record["f"] = dict(event.fields)
    return record


def record_event(record: dict[str, object]) -> Event:
    """Parse one event line dict back into an :class:`Event`."""
    try:
        time = record["t"]
        pid = record["pid"]
        kind = record["kind"]
    except KeyError as missing:
        raise TraceFormatError(f"event line missing key {missing}") from None
    fields = record.get("f", {})
    if not isinstance(fields, dict):
        raise TraceFormatError(f"event field bag is not an object: {fields!r}")
    try:
        return Event(float(time), int(pid), str(kind), make_fields(fields))  # type: ignore[arg-type]
    except (TypeError, ValueError) as error:
        raise TraceFormatError(f"event line has a bad value: {error}") from None


@dataclass
class Life:
    """One header line's meta and the last metrics record after it."""

    meta: dict[str, object]
    metrics: dict[str, object] | None = None

    @property
    def missing(self) -> int:
        """Events of this life the document lacks (``dropped_events`` + ``dropped``)."""
        counts = (self.meta.get("dropped_events"), (self.metrics or {}).get("dropped"))
        return sum(count for count in counts if isinstance(count, int))


@dataclass
class Trace:
    """Every life's events in order; ``meta`` is the first life's, ``metrics`` the last's."""

    lives: list[Life]
    events: list[Event] = field(default_factory=list)

    @property
    def meta(self) -> dict[str, object]:
        return self.lives[0].meta

    @property
    def metrics(self) -> dict[str, object] | None:
        return self.lives[-1].metrics


def header_line(meta: dict[str, object] | None = None) -> str:
    """The header line of a trace (no trailing newline)."""
    return _dumps({"meta": meta or {}, "schema": TRACE_SCHEMA, "version": TRACE_VERSION})


def event_line(event: Event) -> str:
    """One event as its trace line."""
    return _dumps(event_record(event))


def metrics_line(metrics: dict[str, object]) -> str:
    """One metrics record as its trace line; a reader keeps the last one."""
    return _dumps({"metrics": metrics, "schema": METRICS_SCHEMA, "version": TRACE_VERSION})


def dumps_trace(
    events: Iterable[Event],
    meta: dict[str, object] | None = None,
    metrics: dict[str, object] | None = None,
) -> str:
    """Serialize a trace to JSONL text (trailing newline included)."""
    lines = [header_line(meta)]
    lines.extend(event_line(event) for event in events)
    if metrics is not None:
        lines.append(metrics_line(metrics))
    return "\n".join(lines) + "\n"


def dump_trace(
    path: str,
    events: Iterable[Event],
    meta: dict[str, object] | None = None,
    metrics: dict[str, object] | None = None,
) -> None:
    """Write a trace file at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_trace(events, meta=meta, metrics=metrics))


def _json_object(line: str, number: int) -> dict[str, Any]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise TraceFormatError(f"line {number}: not JSON ({error.msg})") from None
    if not isinstance(record, dict):
        raise TraceFormatError(f"line {number}: not a JSON object: {line.strip()[:40]}")
    return record


def _life(header: dict[str, Any]) -> Life:
    if header.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(
            f"not a {TRACE_SCHEMA} file (schema={header.get('schema')!r})"
        )
    version = header.get("version")
    if version != TRACE_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {version!r} (this build reads {TRACE_VERSION})"
        )
    return Life(meta=header.get("meta", {}))


def _load_lines(handle: IO[str]) -> Trace:
    first = handle.readline()
    if not first.strip():
        raise TraceFormatError("empty trace file")
    trace = Trace(lives=[_life(_json_object(first, 1))])
    for number, line in enumerate(handle, start=2):
        if not line.strip():
            continue
        record = _json_object(line, number)
        schema = record.get("schema")
        if schema == METRICS_SCHEMA:
            trace.lives[-1].metrics = record.get("metrics", {})
        elif schema == TRACE_SCHEMA:
            trace.lives.append(_life(record))
        else:
            try:
                trace.events.append(record_event(record))
            except TraceFormatError as error:
                raise TraceFormatError(f"line {number}: {error}") from None
    return trace


def load_trace(path: str) -> Trace:
    """Read a trace file written by :func:`dump_trace`."""
    with open(path, encoding="utf-8") as handle:
        return _load_lines(handle)


def loads_trace(text: str) -> Trace:
    """Parse JSONL trace text produced by :func:`dumps_trace`."""
    import io

    return _load_lines(io.StringIO(text))
