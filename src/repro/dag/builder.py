"""DAG construction — Algorithm 2 of the paper, event-driven.

The pseudocode's ``while True`` loop becomes :meth:`DagBuilder._advance`,
re-run whenever an event could unblock progress (a reliable-broadcast
delivery, or a block becoming available for the ``wait until`` of Line 17).
The behaviour is the same:

* delivered vertices are validated (claimed source/round must match the
  authenticated broadcast metadata; at least ``2f + 1`` strong edges — Lines
  22-26) and buffered;
* a buffered vertex joins the DAG once every parent it references is present
  (Line 7), which maintains Claim 1 (causal history always complete);
* when the current round has ``2f + 1`` vertices the process advances,
  signals ``wave_ready`` on wave boundaries (Lines 10-12), and creates and
  reliably broadcasts its next vertex with strong edges to the *entire*
  previous round and weak edges to every otherwise-unreachable older vertex
  (Lines 14-21 and 27-31).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.broadcast.base import Payload, ReliableBroadcast
from repro.common.config import SystemConfig
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex
from repro.mempool.blocks import Block, BlockSource

#: ``wave_ready(w)`` — the Line 12 signal to the ordering layer.
WaveReadyCallback = Callable[[int], None]

#: Fired after a vertex enters the local DAG (share extraction, stats).
VertexAddedCallback = Callable[[Vertex], None]

#: Fired just before this process's new vertex is reliably broadcast.
VertexCreatedCallback = Callable[[Vertex], None]

#: Optional provider of a piggybacked coin share for a round's new vertex.
CoinShareProvider = Callable[[int], int | None]


class DagBuilder:
    """Per-process DAG construction state machine (Algorithm 2)."""

    def __init__(
        self,
        pid: int,
        config: SystemConfig,
        block_source: BlockSource,
        on_wave_ready: WaveReadyCallback,
        on_vertex_added: VertexAddedCallback | None = None,
        coin_share_provider: CoinShareProvider | None = None,
        enable_weak_edges: bool = True,
        on_round_advance: Callable[[int], None] | None = None,
        on_vertex_created: VertexCreatedCallback | None = None,
    ) -> None:
        self.pid = pid
        self.config = config
        self.store = DagStore(config.genesis_size)
        self.block_source = block_source
        self._on_wave_ready = on_wave_ready
        self._on_vertex_added = on_vertex_added
        self._on_vertex_created = on_vertex_created
        self._coin_share_provider = coin_share_provider
        # Ablation hook (DESIGN.md): disabling weak edges breaks the BAB
        # Validity property — the bench demonstrates it.
        self.enable_weak_edges = enable_weak_edges
        # Fired with the just-completed round every time ``r`` advances;
        # consumers that need finer granularity than waves (e.g. the Aleph
        # baseline's per-round agreements) hook this.
        self._on_round_advance = on_round_advance
        self._rbc: ReliableBroadcast | None = None
        self.round = 0  # the builder's current round ``r``
        self.buffer: list[Vertex] = []
        self._advancing = False
        self._signalled_wave = 0  # highest wave already passed to wave_ready
        #: Own vertices broadcast but not yet self-delivered, by round — what
        #: a snapshot must carry and a restart must re-broadcast.
        self.created: dict[int, Vertex] = {}

    def attach_broadcast(self, rbc: ReliableBroadcast) -> None:
        """Wire the reliable broadcast used for ``r_bcast`` (Line 15)."""
        self._rbc = rbc

    def start(self) -> None:
        """Kick off the loop: genesis completes round 0, so round 1 starts."""
        self._advance()

    # ----------------------------------------------------------- deliveries

    def on_r_deliver(self, payload: Payload, round_: int, source: int) -> None:
        """Handle ``r_deliver`` (Lines 22-26): validate, buffer, re-run loop."""
        vertex = payload
        if not isinstance(vertex, Vertex):
            return
        if not self._valid(vertex, round_, source):
            return
        self.buffer.append(vertex)
        self._advance()

    def _valid(self, vertex: Vertex, round_: int, source: int) -> bool:
        """The Line 25 checks plus structural sanity on the edge sets.

        The claimed round/source must match what the reliable broadcast
        authenticated — a Byzantine sender cannot impersonate a slot — and
        the vertex needs ``2f + 1`` strong edges into the previous round.
        """
        if vertex.round != round_ or vertex.source != source:
            return False
        if vertex.round < 1 or not 0 <= vertex.source < self.config.n:
            return False
        if len(vertex.strong_parents) < self.config.quorum:
            return False
        sources = max(self.config.n, self.config.genesis_size)
        if any(not 0 <= s < sources for s in vertex.strong_parents):
            return False
        # A weak edge to a slot that cannot exist would never satisfy
        # ``can_add``: the vertex would sit in the buffer forever.
        if any(
            ref.round >= vertex.round - 1
            or ref.round < 0
            or not 0 <= ref.source < sources
            for ref in vertex.weak_parents
        ):
            return False
        return True

    def on_blocks_available(self) -> None:
        """Unblock the Line 17 ``wait until``: ``a_bcast`` or a client gave a block."""
        self._advance()

    # ------------------------------------------------------------- the loop

    def _advance(self) -> None:
        if self._advancing:  # deliveries during r_bcast re-enter; flatten
            return
        self._advancing = True
        try:
            progressed = True
            while progressed:
                progressed = self._drain_buffer()
                if self._try_advance_round():
                    progressed = True
        finally:
            self._advancing = False

    def _drain_buffer(self) -> bool:
        """Lines 6-9: move buffered vertices whose parents are present."""
        progressed = False
        moved = True
        while moved:
            moved = False
            for vertex in list(self.buffer):
                if vertex.round < self.store.collected_floor:
                    # Arrived after its round was garbage-collected; under
                    # GC semantics (Narwhal-style) such stragglers are
                    # dropped — their transactions need re-proposing.
                    self.buffer.remove(vertex)
                    self._settle_created(vertex)
                    continue
                if vertex.round > self.round:
                    continue
                if not self.store.can_add(vertex):
                    continue
                if self.store.contains(vertex.ref):
                    self.buffer.remove(vertex)  # equivocation-shadowed slot
                    continue
                self.store.add(vertex)
                self.buffer.remove(vertex)
                self._settle_created(vertex)
                moved = True
                progressed = True
                if self._on_vertex_added is not None:
                    self._on_vertex_added(vertex)
        return progressed

    def _settle_created(self, vertex: Vertex) -> None:
        """An own vertex came back (inserted, or its round was collected)."""
        if vertex.source == self.pid:
            self.created.pop(vertex.round, None)

    def restore_created(self, vertices: Iterable[Vertex]) -> None:
        """Recovery: re-pend journaled own vertices the restored DAG lacks."""
        for vertex in vertices:
            if (
                vertex.round >= self.store.collected_floor
                and not self.store.contains(vertex.ref)
            ):
                self.created[vertex.round] = vertex

    def _try_advance_round(self) -> bool:
        """Lines 10-15: advance when the current round has ``2f + 1`` vertices."""
        if self.store.round_size(self.round) < self._round_quorum(self.round):
            return False
        wave, position = divmod(self.round, self.config.wave_length)
        if position == 0 and wave > self._signalled_wave:
            self._signalled_wave = wave
            self._on_wave_ready(wave)
        block = self.block_source.dequeue()
        if block is None:
            return False  # Line 17's ``wait until`` — see on_blocks_available
        if self._on_round_advance is not None:
            self._on_round_advance(self.round)
        self.round += 1
        if self._rbc is None:
            raise RuntimeError("DagBuilder used before attach_broadcast")
        vertex = self._create_vertex(self.round, block)
        self.created[vertex.round] = vertex
        if self._on_vertex_created is not None:
            self._on_vertex_created(vertex)
        self._rbc.r_bcast(vertex, self.round)
        return True

    def _round_quorum(self, round_: int) -> int:
        if round_ == 0:
            return self.config.genesis_size  # genesis is hardcoded complete
        return self.config.quorum

    def _create_vertex(self, round_: int, block: Block) -> Vertex:
        """Lines 16-21 + 27-31: strong edges to all of round-1, weak to orphans."""
        strong = frozenset(self.store.round(round_ - 1))
        share = None
        if self._coin_share_provider is not None:
            share = self._coin_share_provider(round_)
        weak = (
            self.store.orphans(round_, strong)
            if self.enable_weak_edges
            else frozenset()
        )
        return Vertex(round_, self.pid, block, strong, weak, share)
