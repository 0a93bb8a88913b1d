"""DAG-Rider ordering logic — Algorithm 3 of the paper.

Entirely local: given the DAG and the coin, no further communication is
needed. The flow per wave ``w`` (with the paper's line numbers):

* ``wave_ready(w)`` arrives from the DAG layer (Line 34) → invoke coin ``w``;
* once the coin resolves, ``get_wave_vertex_leader(w)`` (Lines 46-50) looks
  up the elected process's vertex in the wave's first round;
* the *commit rule* (Line 36): commit the leader iff at least ``2f + 1``
  vertices in the wave's last round have a strong path to it;
* the walk-back (Lines 39-43): from ``w - 1`` down to ``decidedWave + 1``,
  push every earlier leader the current one has a strong path to — Lemma 1
  makes this decision identical at every correct process;
* ``order_vertices`` (Lines 51-57): pop leaders (earliest wave first) and
  ``a_deliver`` each one's not-yet-delivered causal history in a
  deterministic (round, source) order, then report the commit once, to
  ``on_commit`` — inside ``wave_ready`` for the ideal coin, inside a
  share's delivery for the threshold coin.

Because the coin is asynchronous in the simulator (the threshold coin needs
``f + 1`` shares), waves are processed strictly in increasing order and wave
``w`` waits until every coin in ``decidedWave + 1 .. w`` has resolved — the
walk-back consults exactly those leaders. Commit-rule support is evaluated
when the wave is processed, matching the paper's evaluation at
``wave_ready`` time up to coin-resolution delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.coin.base import CoinProtocol
from repro.common.config import SystemConfig
from repro.common.errors import StorageError
from repro.common.types import round_of_wave
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex
from repro.mempool.blocks import Block
from repro.obs.context import Observability

#: ``a_deliver(block, round, source)`` — the BAB output (paper §3).
ADeliverCallback = Callable[[Block, int, int], None]


@dataclass
class CommitRecord:
    """One successful commit: which wave, which leaders, what got delivered."""

    wave: int
    leader_chain: list[Vertex] = field(default_factory=list)
    delivered_count: int = 0
    time: float = 0.0


class DagRiderOrdering:
    """Per-process ordering state machine over a :class:`DagStore`."""

    def __init__(
        self,
        pid: int,
        config: SystemConfig,
        store: DagStore,
        coin: CoinProtocol,
        a_deliver: ADeliverCallback,
        on_commit: Callable[[CommitRecord], None] = lambda _record: None,
        clock: Callable[[], float] = lambda: 0.0,
        commit_quorum: int | None = None,
        obs: Observability | None = None,
    ):
        self.pid = pid
        self.config = config
        self.store = store
        self.coin = coin
        self._a_deliver = a_deliver
        self._on_commit = on_commit
        self._clock = clock
        self._obs = obs
        # Ablation hook (DESIGN.md): the paper's rule needs 2f+1 support;
        # weakening it to f+1 forfeits the quorum-intersection argument.
        self.commit_quorum = commit_quorum if commit_quorum is not None else config.quorum

        self.decided_wave = 0
        self._delivered_mask = 0
        self._completed_wave = 0  # waves complete in increasing order
        self._processed_wave = 0
        self.commits: list[CommitRecord] = []
        self.delivered_vertex_count = 0

        coin.subscribe(lambda _instance, _leader: self._process_pending())

    # --------------------------------------------------------------- inputs

    def is_delivered(self, ref) -> bool:
        """True when the vertex at ``ref`` was already ``a_deliver``-ed."""
        if not self.store.contains(ref):
            return False
        return bool(self._delivered_mask >> self.store.bit_of(ref) & 1)

    def compact_store(self, horizon: int) -> None:
        """Garbage-collect the DAG below ``horizon``, remapping our state.

        The caller must guarantee everything below ``horizon`` is delivered
        (the node's GC policy checks this via :meth:`is_delivered`).
        """
        (self._delivered_mask,) = self.store.compact(
            horizon, [self._delivered_mask]
        )

    def wave_ready(self, wave: int) -> None:
        """Line 34 signal: wave ``wave`` completed in the local DAG."""
        if wave <= self._completed_wave:
            # Normally a duplicate signal is a no-op, but crash recovery
            # re-signals waves it cannot prove were evaluated before the
            # crash. Re-running the commit rule for an uncommitted wave is
            # safe — support over the wave's last round only grows, so the
            # quorum-intersection argument behind Lemma 2 still applies —
            # as long as the wave is above the decided frontier and its
            # coin already resolved (it was invoked by the first signal).
            if self.decided_wave < wave <= self._processed_wave:
                needed = range(self.decided_wave + 1, wave + 1)
                if all(self.coin.leader_of(w) is not None for w in needed):
                    self._try_commit(wave)
            return
        self._completed_wave = wave
        self.coin.invoke(wave)
        self._process_pending()

    # ----------------------------------------------------- crash recovery

    def delivered_refs(self) -> list:
        """Refs of every ``a_deliver``-ed vertex still in the store.

        Bit indices are store-local and change across compactions and
        restarts; refs are the portable spelling of the delivered set.
        """
        return [v.ref for v in self.store.vertices_for_mask(self._delivered_mask)]

    def restore(self, decided_wave: int, delivered_refs: list) -> None:
        """Adopt a snapshot's position: decided wave + delivered set.

        Refs not in the (already restored) store are skipped — genesis
        bits in particular self-heal at the next commit, whose delivery
        loop skips round-0 vertices anyway.
        """
        self.decided_wave = decided_wave
        self._completed_wave = max(self._completed_wave, decided_wave)
        self._processed_wave = max(self._processed_wave, decided_wave)
        mask = 0
        for ref in delivered_refs:
            if self.store.contains(ref):
                mask |= 1 << self.store.bit_of(ref)
        self._delivered_mask = mask

    def replay_commit(self, wave: int, leader_refs: list) -> None:
        """Re-run one journaled commit (leader chain in delivery order).

        Deterministic replay: the store holds at least the vertices it
        held at the original commit, the delivered mask evolved through
        the same earlier commits, and delivery order is the fixed
        (round, source) sort — so the ``a_deliver`` sequence is
        byte-identical to the pre-crash run. ``on_commit`` is not called:
        the commit was journaled and reported in its first life.
        """
        stack = []
        for ref in reversed(leader_refs):
            vertex = self.store.get(ref)
            if vertex is None:
                raise StorageError(
                    f"commit replay for wave {wave}: leader {ref} not in store"
                )
            stack.append(vertex)
        self.decided_wave = wave
        self._completed_wave = max(self._completed_wave, wave)
        self._processed_wave = max(self._processed_wave, wave)
        self._order_vertices(wave, stack)

    # ------------------------------------------------------------ the logic

    def _process_pending(self) -> None:
        while self._processed_wave < self._completed_wave:
            wave = self._processed_wave + 1
            # The walk-back for ``wave`` consults leaders of every wave in
            # (decided_wave, wave]; all those coins must have resolved.
            needed = range(max(self.decided_wave, self._processed_wave) + 1, wave + 1)
            if any(self.coin.leader_of(w) is None for w in needed):
                return
            self._processed_wave = wave
            self._try_commit(wave)

    def _leader_vertex(self, wave: int) -> Vertex | None:
        """``get_wave_vertex_leader`` (Lines 46-50)."""
        leader = self.coin.leader_of(wave)
        if leader is None:
            return None
        return self.store.round(round_of_wave(wave, 1, self.config.wave_length)).get(
            leader
        )

    def commit_support(self, wave: int, leader: Vertex) -> int:
        """Vertices in the wave's last round with a strong path to ``leader``."""
        last_round = round_of_wave(wave, self.config.wave_length, self.config.wave_length)
        return sum(
            1
            for vertex in self.store.round(last_round).values()
            if self.store.strong_path(vertex.ref, leader.ref)
        )

    def _try_commit(self, wave: int) -> None:
        obs = self._obs
        leader = self._leader_vertex(wave)
        if leader is None:
            if obs is not None:
                obs.emit(
                    self.pid,
                    "wave_leader",
                    wave=wave,
                    leader=self.coin.leader_of(wave),
                    present=False,
                )
            return
        support = self.commit_support(wave, leader)
        committed = support >= self.commit_quorum
        if obs is not None:
            obs.emit(
                self.pid,
                "wave_leader",
                wave=wave,
                leader=leader.source,
                present=True,
                support=support,
                committed=committed,
            )
        if not committed:
            return  # Line 36: no commit this wave
        stack = [leader]
        current = leader
        for earlier in range(wave - 1, self.decided_wave, -1):  # Lines 39-43
            candidate = self._leader_vertex(earlier)
            if candidate is not None and self.store.strong_path(
                current.ref, candidate.ref
            ):
                stack.append(candidate)
                current = candidate
        self.decided_wave = wave
        self._on_commit(self._order_vertices(wave, stack))

    def _order_vertices(self, wave: int, stack: list[Vertex]) -> CommitRecord:
        """Lines 51-57: deliver each leader's fresh causal history in order."""
        record = CommitRecord(wave=wave, time=self._clock())
        while stack:
            leader = stack.pop()
            record.leader_chain.append(leader)
            fresh = self.store.closed_mask(leader.ref) & ~self._delivered_mask
            self._delivered_mask |= fresh
            for vertex in self.store.vertices_for_mask(fresh):
                if vertex.round == 0:
                    continue  # genesis placeholders carry no payload
                record.delivered_count += 1
                self.delivered_vertex_count += 1
                self._a_deliver(vertex.block, vertex.round, vertex.source)
        self.commits.append(record)
        return record
