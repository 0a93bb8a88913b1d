"""Faulty node variants for tests and fault-injection experiments.

Byzantine power in DAG-Rider is heavily constrained by the reliable
broadcast (no equivocation within a slot) and the coin (unpredictable
leaders); what remains is what these nodes exercise:

* :class:`CrashNode` — stops participating after a configured round (a
  benign fault, but it withholds its 1-of-n vertices and its echoes).
* :class:`SilentNode` — never proposes vertices but keeps serving the
  broadcast layer; correct processes must advance rounds with the remaining
  ``n - 1`` (possible while at least ``2f + 1`` propose).
* :class:`EquivocatingNode` — attempts the classic attack: two different
  vertices for the same round, each sent to half the network. Reliable
  broadcast must prevent both from delivering (Integrity), so at most one
  enters any correct DAG.
* :class:`RecoveringNode` — a benign crash-recovery fault: the process
  stops at a configured round, then comes back after ``downtime`` and
  replays the backlog its reliable links held for it — the sim-side
  analogue of the TCP runtime's ack-based redelivery.
"""

from __future__ import annotations

from repro.broadcast.bracha import BrachaMessage
from repro.core.node import DagRiderNode
from repro.dag.vertex import Vertex
from repro.mempool.blocks import Block, BlockSource
from repro.sim.wire import Message


class CrashNode(DagRiderNode):
    """Behaves correctly until its builder reaches ``crash_round``, then stops."""

    def __init__(self, *args, crash_round: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        self._crash_round = crash_round
        self.crashed = False

    def _check_crash(self) -> None:
        if not self.crashed and self.builder.round >= self._crash_round:
            self.crashed = True

    def on_message(self, src: int, message: Message) -> None:
        self._check_crash()
        if self.crashed:
            return
        super().on_message(src, message)
        self._check_crash()


class RecoveringNode(DagRiderNode):
    """Crashes at ``crash_round`` and recovers ``downtime`` later.

    Models a *correct* process that restarts, under the paper's §2 reliable
    links: traffic sent to it while down is not lost but held (here:
    buffered) and delivered once it is back — exactly what the TCP
    runtime's reliable-link layer provides with unacked-frame redelivery.
    On recovery the backlog replays in arrival order, the process catches
    up on missed rounds, and its late vertices rejoin every correct DAG
    through other processes' weak edges, so BAB Validity still covers its
    post-recovery proposals.
    """

    def __init__(
        self, *args, crash_round: int = 3, downtime: float = 30.0, **kwargs
    ):
        super().__init__(*args, **kwargs)
        self._crash_round = crash_round
        self._downtime = downtime
        self._backlog: list[tuple[int, Message]] = []
        self.down = False
        self.recovered = False
        self.replayed = 0

    def on_message(self, src: int, message: Message) -> None:
        if (
            not self.down
            and not self.recovered
            and self.builder.round >= self._crash_round
        ):
            self._go_down()
        if self.down:
            self._backlog.append((src, message))
            return
        super().on_message(src, message)

    def _go_down(self) -> None:
        self.down = True
        self.call_later(self._downtime, self._recover)

    def _recover(self) -> None:
        self.down = False
        self.recovered = True
        backlog, self._backlog = self._backlog, []
        self.replayed += len(backlog)
        for src, message in backlog:
            super().on_message(src, message)


class SilentNode(DagRiderNode):
    """Never broadcasts its own vertices; still relays everyone else's.

    Models a withholding Byzantine process: it denies the DAG its vertices
    (so rounds complete with other processes' ``2f + 1``) but cannot slow
    delivery of correct proposals. Implemented with an empty, generator-less
    block source: the Algorithm 2 ``wait until`` stalls forever, while the
    delivery buffer keeps draining so the broadcast layer stays served.
    """

    def __init__(self, pid, network, **kwargs):
        kwargs["block_source"] = BlockSource(pid)
        super().__init__(pid, network, **kwargs)


class EquivocatingNode(DagRiderNode):
    """Sends conflicting round-``r`` vertices to the two halves of the network.

    Only meaningful with the Bracha transport (it forges SEND messages
    directly); the test asserts that no two correct processes deliver
    different vertices for this node's slot.
    """

    def __init__(self, pid, network, **kwargs):
        kwargs.setdefault("broadcast", "bracha")
        kwargs["block_source"] = BlockSource(pid)  # never propose honestly
        super().__init__(pid, network, **kwargs)
        self.equivocations = 0

    def start(self) -> None:
        # Do not run the honest builder; drive equivocation reactively.
        self._equivocate(1)

    def on_message(self, src: int, message: Message) -> None:
        super().on_message(src, message)
        # Equivocate in the next round whenever the honest copy of our
        # builder would have advanced.
        target = self.equivocations + 1
        while target == 1 or self.store.round_size(target - 1) >= self.config.quorum:
            self._equivocate(target)
            target += 1

    def _equivocate(self, round_: int) -> None:
        self.equivocations = max(self.equivocations, round_)
        strong = frozenset(
            list(self.store.round(round_ - 1))[: self.config.quorum]
        ) or frozenset(range(self.config.genesis_size))
        block_a = Block(self.pid, round_ * 2, (b"left",))
        block_b = Block(self.pid, round_ * 2 + 1, (b"right",))
        vertex_a = Vertex(round_, self.pid, block_a, strong)
        vertex_b = Vertex(round_, self.pid, block_b, strong)
        half = self.config.n // 2
        for dst in self.config.processes:
            chosen = vertex_a if dst < half else vertex_b
            self.send(dst, BrachaMessage("SEND", self.pid, round_, chosen))
