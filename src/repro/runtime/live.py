"""Live cluster progress view for the fabric driver.

One reader thread per node holds a control-socket connection in
``subscribe`` streaming mode (see :class:`repro.runtime.runner.ControlServer`)
and folds the incoming lines — the node's ``repro.obs.trace`` document,
written live — into a shared per-node table: commit frontier (decided
wave), current round, ordered entries, transport queue depth, events
seen, ring drops. A render thread repaints
that table once per tick — in-place with ANSI cursor movement on a TTY,
as plain periodic ``live:`` lines otherwise (CI logs stay greppable).

Stream lines are teed verbatim to ``<out_dir>/node-<pid>.stream.jsonl``,
the node's one trace, which every ``python -m repro.obs`` subcommand
reads. A stream that ends while the view runs is subscribed again: a
restarted node's next life is appended to the same tee, starting with its
own header, and a replay of what the tee holds is cut.

The view also keeps, per node, what a diagnostic **dump** holds: the
header of the newest life teed, the newest :data:`DUMP_EVENTS` events
teed and the last metrics record. :meth:`LiveView.dump` merges them into
one ``repro.obs.trace`` document, so a node that died or wedged is in it
up to its last teed line, and nothing asks a node for anything. The view
doubles as the driver-side stall detector: every tick it feeds each
node's decided wave into :class:`repro.obs.stream.StallDetector`, and
when the quorum commit frontier goes flat for the configured window it
writes ``<out_dir>/stall-<k>.jsonl``.

Everything here is driver-side tooling on real wall clocks
(``time.monotonic``), matching the rest of :mod:`repro.runtime.fabric`;
nothing in this module runs inside a node.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence, TextIO

from repro.obs.events import Event
from repro.obs.export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    Life,
    Trace,
    TraceFormatError,
    dumps_trace,
    record_event,
)
from repro.obs.stream import StallDetector
from repro.runtime.linerpc import LineStream
from repro.runtime.peers import PeerTable

#: Seconds between connect retries while a node is still booting (or
#: restarting), and from the end of one subscription to the next.
CONNECT_RETRY = 0.25

#: Seconds :meth:`LiveView.stop` lets streams that are already ending (their
#: node was just told to stop) run to EOF, so the final tick reaches the tee.
STOP_GRACE = 2.0

#: Default seconds of flat quorum commit frontier before a stall fires.
DEFAULT_STALL_WINDOW = 30.0

#: How many of a node's newest teed events a dump holds.
DUMP_EVENTS = 256


@dataclass
class NodeView:
    """What the live table knows about one node (reader-thread owned)."""

    pid: int
    state: str = "connecting"
    decided_wave: int = -1
    current_round: int = -1
    ordered: int = 0
    queue_depth: int = 0
    events: int = 0
    dropped: int = 0
    #: Newest event time teed; the stream's header until a line after it is.
    last_t: float = float("-inf")
    header: str | None = None
    #: A dump's share: the newest teed life's header meta, the newest
    #: teed events and the last metrics record (lock-guarded).
    life: dict[str, Any] = field(default_factory=dict)
    tail: deque[Event] = field(default_factory=lambda: deque(maxlen=DUMP_EVENTS))
    metrics: dict[str, Any] | None = None

    def row(self) -> str:
        """One rendered table row for this node."""
        drops = f" drops {self.dropped}" if self.dropped else ""
        return (
            f"node {self.pid}: wave {self.decided_wave:>3} "
            f"round {self.current_round:>4} ordered {self.ordered:>4} "
            f"queue {self.queue_depth:>3} events {self.events:>5}"
            f"{drops} [{self.state}]"
        )

    def trace(self) -> Trace:
        """This node's part of a dump, one life: the newest life's header,
        whose ``dropped_events`` also counts the older teed events the tail
        leaves out, the tail, and the last metrics record."""
        meta: dict[str, Any] = {"pid": self.pid, **self.life}
        lost = meta.get("dropped_events")
        omitted = self.events - len(self.tail)
        meta["dropped_events"] = (lost if isinstance(lost, int) else 0) + omitted
        return Trace([Life(meta, self.metrics)], list(self.tail))


class LiveView:
    """Threaded subscribe-stream aggregator + renderer for one cluster.

    ``subscribe_request`` is the base control request each reader sends on
    connect (the fabric driver builds it, keeping the ``{"cmd": ...}``
    literal on the issuing side of the control-protocol contract). The
    view adds nothing to it.
    """

    def __init__(
        self,
        table: PeerTable,
        subscribe_request: Mapping[str, Any],
        out_dir: Path | None = None,
        interval: float = 1.0,
        stall_window: float = DEFAULT_STALL_WINDOW,
    ) -> None:
        self.table = table
        self.request = dict(subscribe_request)
        self.out_dir = out_dir
        self.sink: TextIO = sys.stdout
        self.interval = max(0.1, interval)
        self.detector = StallDetector(table.n, window=stall_window)
        self.stalls = 0
        self._tty = _is_tty(self.sink)
        self._nodes = {e.pid: NodeView(e.pid) for e in table.peers}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._streams: dict[int, LineStream] = {}
        self._threads: list[threading.Thread] = []
        self._drawn_lines = 0
        self._banner = ""

    # ---------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spawn one reader thread per node plus the render thread."""
        for entry in self.table.peers:
            thread = threading.Thread(
                target=self._read_node,
                args=(entry.pid, entry.control_address),
                name=f"live-read-{entry.pid}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        render = threading.Thread(target=self._render_loop, name="live-render",
                                  daemon=True)
        self._threads.append(render)
        render.start()

    def stop(self) -> None:
        """Tear down readers and renderer; paints one final table.

        Streams whose node is stopping end by themselves with a last
        tick; they get ``STOP_GRACE`` to reach EOF before whatever is
        still open is cut.
        """
        if self._stop.is_set():
            return
        self._stop.set()
        deadline = time.monotonic() + STOP_GRACE
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            for stream in self._streams.values():
                stream.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._render(final=True)

    # ------------------------------------------------------------- output

    def note(self, message: str) -> None:
        """Print a progress line that survives the in-place repaint.

        On a TTY the table block is erased first so the note scrolls
        above it; in plain mode this is just a print. The fabric driver
        routes its boot / scenario-step announcements through here while
        the view is live.
        """
        with self._lock:
            self._erase_locked()
            print(message, file=self.sink, flush=True)

    def _erase_locked(self) -> None:
        if self._tty and self._drawn_lines:
            # Cursor up over the previous block, clearing each line.
            self.sink.write(f"\x1b[{self._drawn_lines}F\x1b[J")
            self.sink.flush()
            self._drawn_lines = 0

    def _render(self, final: bool = False) -> None:
        with self._lock:
            rows = [self._nodes[pid].row() for pid in sorted(self._nodes)]
            banner = self._banner
        stalled = self.detector.stalled_for(time.monotonic())
        head = f"live: quorum wave {self.detector.quorum_frontier()}"
        if stalled >= self.detector.window / 2 and not final:
            head += f" (flat {stalled:.0f}s)"
        if banner:
            head += f" — {banner}"
        if self._tty:
            with self._lock:
                self._erase_locked()
                lines = [head] + ["  " + row for row in rows]
                self.sink.write("\n".join(lines) + "\n")
                self.sink.flush()
                self._drawn_lines = len(lines)
        else:
            print(head, file=self.sink, flush=True)
            for row in rows:
                print("live: " + row, file=self.sink, flush=True)

    def wait_live(self, deadline: float, pids: Iterable[int] | None = None) -> bool:
        """Block until the stream of every node (or each of ``pids``) has
        sent its header, so the node's current life reaches its tee whole;
        False when the deadline (``time.monotonic``) expired first."""
        views = [self._nodes[pid] for pid in (self._nodes if pids is None else pids)]
        while any(view.state != "live" for view in views):
            if time.monotonic() >= deadline or self._stop.wait(0.01):
                return False
        return True

    def set_banner(self, text: str) -> None:
        """Short phase label shown in the table header line."""
        with self._lock:
            self._banner = text

    # -------------------------------------------------------------- dumps

    def dump(self, reason: str, **meta: object) -> str:
        """Every node's newest teed life, events and metrics record, merged
        into one ``repro.obs.trace`` document (:func:`merge_traces`) whose
        meta names the ``reason`` plus ``meta``. A node's status is its last
        stream tick, so it is up to one ``interval`` old; a dead node's
        part ends at the last line its stream delivered."""
        with self._lock:
            traces = [self._nodes[pid].trace() for pid in sorted(self._nodes)]
        return merge_traces(traces, meta={"reason": reason, **meta})

    def write_dump(self, name: str, reason: str, **meta: object) -> Path:
        """:meth:`dump` into ``<out_dir>/<name>.jsonl``; the path."""
        if self.out_dir is None:
            raise ValueError("this view has no out_dir to write a dump to")
        path = self.out_dir / f"{name}.jsonl"
        path.write_text(self.dump(reason, **meta), encoding="utf-8")
        return path

    # ------------------------------------------------------------ readers

    def _read_node(self, pid: int, address: tuple[str, int]) -> None:
        """One node's reader: subscribe, fold lines until EOF, and subscribe
        again while the view runs, so a restarted node's next life is
        appended to the same tee."""
        path = None if self.out_dir is None else self.out_dir / f"node-{pid}.stream.jsonl"
        tee = None if path is None else open(path, "w", encoding="utf-8")
        view = self._nodes[pid]
        try:
            while (stream := self._connect(pid, address)) is not None:
                state = "stopped"
                try:
                    for text in stream:
                        if not text.endswith("\n"):
                            break  # cut mid-line by stop()
                        kept = self._fold_line(view, text)
                        if tee is not None and kept:
                            tee.writelines(kept)
                            tee.flush()
                except (OSError, ValueError):
                    state = "lost"
                with self._lock:
                    self._streams.pop(pid, None)
                    view.state = state
                # A stopping node's control socket may still answer for a
                # moment; its empty subscriptions are not retried in a spin.
                self._stop.wait(CONNECT_RETRY)
        finally:
            if tee is not None:
                tee.close()

    def _connect(self, pid: int, address: tuple[str, int]) -> LineStream | None:
        """Open the subscription, retrying while the node boots (or reboots);
        None once the view stops."""
        while not self._stop.is_set():
            try:
                stream = LineStream(address, self.request)
            except OSError:
                self._stop.wait(CONNECT_RETRY)
                continue
            with self._lock:
                if self._stop.is_set():
                    stream.close()
                    return None
                self._streams[pid] = stream
            return stream
        return None

    def _fold_line(self, view: NodeView, text: str) -> list[str]:
        """Fold one stream line into ``view``; returns the lines to tee.

        One host clock spans a node's lives, so a replayed event no newer
        than the last one teed is cut, and so is the header of its stream
        (the same life again), held until a line after it is kept."""
        try:
            line = json.loads(text)
        except ValueError:
            return []
        if not isinstance(line, dict):
            return []
        if line.get("schema") == TRACE_SCHEMA:
            with self._lock:
                view.header, view.state = text, "live"
            return []
        tick = line.get("metrics")
        event = None
        if line.get("schema") != METRICS_SCHEMA or not isinstance(tick, dict):
            try:
                event = record_event(line)
            except TraceFormatError:
                return []
            if event.time <= view.last_t:
                view.header = None
                return []
        kept = [text] if view.header is None else [view.header, text]
        with self._lock:
            if view.header is not None:
                life = json.loads(view.header).get("meta")
                view.life = life if isinstance(life, dict) else {}
                view.header = None
            if event is not None:
                view.last_t = event.time
                view.events += 1
                view.tail.append(event)
                return kept
            view.metrics = tick
            status = tick.get("status")
            if isinstance(status, dict):
                view.decided_wave = int(status.get("decided_wave", -1))
                view.current_round = int(status.get("current_round", -1))
                view.ordered = int(status.get("ordered", 0))
                view.queue_depth = int(status.get("queue_depth", 0))
            view.dropped = int(tick.get("dropped", 0))
        return kept

    # ----------------------------------------------------------- renderer

    def _render_loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._render()
            self._check_stall()

    def _check_stall(self) -> None:
        now = time.monotonic()
        with self._lock:
            frontiers = [
                (view.pid, view.decided_wave)
                for view in self._nodes.values()
                if view.decided_wave >= 0
            ]
        for pid, wave in frontiers:
            self.detector.observe(pid, wave, now)
        if self.detector.check(now):
            self.stalls += 1
            window = self.detector.window
            self.note(
                f"live: STALL: quorum commit frontier flat at wave "
                f"{self.detector.quorum_frontier()} for {window:.0f}s"
            )
            if self.out_dir is not None:
                try:
                    path = self.write_dump(f"stall-{self.stalls}", "stall", stalled_for=window)
                except OSError as error:
                    self.note(f"live: stall dump failed: {error}")
                else:
                    self.note(f"live: stall dump written to {path}")


def link_totals(traces: Iterable[Trace]) -> Counter[str]:
    """Link counters (each life's last metrics record) summed over lives and hosts."""
    totals: Counter[str] = Counter()
    for life in (life for trace in traces for life in trace.lives):
        links = (life.metrics or {}).get("links", {})
        if isinstance(links, dict):
            for key, value in links.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    totals[key] += value
    return totals


def merge_traces(traces: Sequence[Trace], meta: Mapping[str, object] | None = None) -> str:
    """Merge per-host traces into one JSONL document.

    Events interleave by their host's monotonic clock: exact within a
    host (every node and life on it shares the clock), approximate across
    hosts. ``dropped_events`` counts every event the traces lack,
    ``clocks`` names each pid's host, whose clock stamped its events, and
    ``nodes`` holds each pid's newest life header; ``meta`` adds to them.
    The footer sums the link counters and keeps, under ``nodes``, each
    pid's last metrics record.
    """
    events = sorted(
        (event for trace in traces for event in trace.events),
        key=lambda event: (event.time, event.pid),
    )
    pids = [int(str(trace.meta.get("pid", -1))) for trace in traces]
    header = {
        "merged_hosts": len(traces),
        "pids": sorted(pids),
        "clocks": {
            pid: str(trace.meta["host"]) for pid, trace in zip(pids, traces) if "host" in trace.meta
        },
        "dropped_events": sum(life.missing for trace in traces for life in trace.lives),
        "nodes": {pid: trace.lives[-1].meta for pid, trace in zip(pids, traces)},
        **(meta or {}),
    }
    metrics = {
        "links": dict(link_totals(traces)),
        "nodes": {pid: trace.metrics for pid, trace in zip(pids, traces)},
    }
    return dumps_trace(events, meta=header, metrics=metrics)


def _is_tty(sink: TextIO) -> bool:
    try:
        return bool(sink.isatty())
    except (AttributeError, ValueError):
        return False
