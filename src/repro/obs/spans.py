"""Span-style phase tracking for the protocol pipeline.

No in-tree caller: no layer opens spans and ``Observability`` carries no
tracker; the module stays because ``bench/trace.py`` patches
``SpanTracker.begin``/``.end`` by name (ROADMAP, ``[benchmark]`` to-do).

A span brackets one phase of work at one process: the tracker emits a
``span_begin`` event when the phase opens and a ``span_end`` event (with
the elapsed time under the bus clock) when it closes. Spans nest per
process — the ``depth`` field records how many spans were already open at
that process — so a trace reconstructs the pipeline structure: a commit
walk containing a delivery batch, a delivery batch containing
``a_deliver`` events.

Span ids are a per-tracker monotonic counter, so they are deterministic
for a deterministic emit order (the simulator's) and merely unique
otherwise (the runtime's).

The canonical pipeline phases (the ISSUE's five) are module constants;
emitters are free to open spans with other names.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.obs.events import Scalar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.bus import EventBus

#: A process reliably broadcasting its next vertex.
PHASE_BROADCAST = "broadcast"
#: A delivered vertex joining the local DAG.
PHASE_DAG_INSERT = "dag_insert"
#: Coin invocation and leader lookup for a completed wave.
PHASE_WAVE_LEADER = "wave_leader"
#: The Algorithm 3 commit rule plus walk-back over earlier waves.
PHASE_COMMIT_WALK = "commit_walk"
#: ``a_deliver``-ing a committed leader's fresh causal history.
PHASE_DELIVER = "deliver"

#: The protocol pipeline in order.
PIPELINE_PHASES = (
    PHASE_BROADCAST,
    PHASE_DAG_INSERT,
    PHASE_WAVE_LEADER,
    PHASE_COMMIT_WALK,
    PHASE_DELIVER,
)


class SpanTracker:
    """Per-process nested span bookkeeping over one :class:`EventBus`."""

    def __init__(self, bus: "EventBus") -> None:
        self._bus = bus
        # pid -> stack of (span_id, phase, begin_time)
        self._open: dict[int, list[tuple[int, str, float]]] = {}
        self._next_id = 0

    def depth(self, pid: int) -> int:
        """How many spans are currently open at ``pid``."""
        return len(self._open.get(pid, ()))

    def begin(self, pid: int, phase: str, **fields: Scalar) -> int:
        """Open a span; returns its id (pass back to :meth:`end`)."""
        span_id = self._next_id
        self._next_id += 1
        stack = self._open.setdefault(pid, [])
        event = self._bus.emit(
            pid, "span_begin", span=phase, span_id=span_id, depth=len(stack), **fields
        )
        stack.append((span_id, phase, event.time))
        return span_id

    def end(self, pid: int, span_id: int, **fields: Scalar) -> float:
        """Close the innermost span at ``pid``; returns the elapsed time.

        ``span_id`` must be the innermost open span — spans close in LIFO
        order per process, anything else is a structural bug worth failing
        loudly over.
        """
        stack = self._open.get(pid)
        if not stack:
            raise ValueError(f"no open span at pid {pid}")
        open_id, phase, begin_time = stack[-1]
        if open_id != span_id:
            raise ValueError(
                f"span {span_id} is not the innermost open span at pid {pid} "
                f"(innermost is {open_id} {phase!r}); spans must nest"
            )
        stack.pop()
        event = self._bus.emit(
            pid,
            "span_end",
            span=phase,
            span_id=span_id,
            depth=len(stack),
            **fields,
        )
        return event.time - begin_time

    @contextmanager
    def span(self, pid: int, phase: str, **fields: Scalar) -> Iterator[int]:
        """Context-managed :meth:`begin`/:meth:`end` pair."""
        span_id = self.begin(pid, phase, **fields)
        try:
            yield span_id
        finally:
            self.end(pid, span_id)
