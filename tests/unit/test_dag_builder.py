"""Algorithm 2 unit behaviour, driven directly (no network)."""

from collections import Counter

from repro.common.config import SystemConfig
from repro.dag.builder import DagBuilder
from repro.dag.store import DagStore
from repro.dag.vertex import Ref, Vertex
from repro.mempool.blocks import Block, BlockSource, TransactionGenerator


class FakeRbc:
    """Captures r_bcast calls; lets tests loop vertices back."""

    def __init__(self):
        self.sent: list[tuple[Vertex, int]] = []

    def r_bcast(self, payload, round_):
        self.sent.append((payload, round_))


def make_builder(n=4, with_generator=True, waves=None, **kwargs):
    config = SystemConfig(n=n, seed=0)
    generator = TransactionGenerator(0, 0) if with_generator else None
    source = BlockSource(0, generator)
    waves = waves if waves is not None else []
    builder = DagBuilder(
        0, config, source, on_wave_ready=waves.append, **kwargs
    )
    rbc = FakeRbc()
    builder.attach_broadcast(rbc)
    return builder, rbc, waves, config


def vertex(round_, source, strong, weak=()):
    return Vertex(
        round_,
        source,
        Block(source, round_),
        frozenset(strong),
        frozenset(Ref(s, r) for s, r in weak),
    )


class TestRoundAdvance:
    def test_start_broadcasts_round_one(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        assert builder.round == 1
        assert len(rbc.sent) == 1
        sent, round_ = rbc.sent[0]
        assert round_ == 1
        assert sent.strong_parents == frozenset({0, 1, 2, 3})  # genesis

    def test_advances_on_quorum(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        for source in (1, 2):
            builder.on_r_deliver(vertex(1, source, {0, 1, 2}), 1, source)
        assert builder.round == 1  # only 2 < 2f+1 vertices in round 1
        builder.on_r_deliver(vertex(1, 3, {0, 1, 2}), 1, 3)
        assert builder.round == 2
        assert rbc.sent[-1][1] == 2

    def test_own_vertex_counts_after_self_delivery(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        own = rbc.sent[0][0]
        builder.on_r_deliver(own, 1, 0)
        builder.on_r_deliver(vertex(1, 1, {0, 1, 2}), 1, 1)
        assert builder.round == 1
        builder.on_r_deliver(vertex(1, 2, {0, 1, 2}), 1, 2)
        assert builder.round == 2

    def test_wave_ready_fires_on_multiples_of_four(self):
        builder, rbc, waves, _cfg = make_builder()
        builder.start()
        for round_ in range(1, 9):
            own = rbc.sent[-1][0]
            builder.on_r_deliver(own, round_, 0)
            for source in (1, 2):
                builder.on_r_deliver(
                    vertex(round_, source, set(builder.store.round(round_ - 1))),
                    round_,
                    source,
                )
        assert waves == [1, 2]

    def test_blocks_wait_until_available(self):
        builder, rbc, _waves, _cfg = make_builder(with_generator=False)
        block_source = builder.block_source
        block_source.enqueue_transactions(b"first")
        builder.start()
        assert builder.round == 1
        # Complete round 1 — but there is no block to propose for round 2.
        builder.on_r_deliver(rbc.sent[0][0], 1, 0)
        for source in (1, 2):
            builder.on_r_deliver(vertex(1, source, {0, 1, 2, 3}), 1, source)
        assert builder.round == 1
        block_source.enqueue_transactions(b"second")
        builder.on_blocks_available()
        assert builder.round == 2


class TestBuffering:
    def test_vertex_waits_for_parents(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        # Round-2 vertex arrives before its round-1 parents.
        early = vertex(2, 1, {1, 2, 3})
        builder.on_r_deliver(early, 2, 1)
        assert not builder.store.contains(early.ref)
        for source in (1, 2, 3):
            builder.on_r_deliver(vertex(1, source, {0, 1, 2}), 1, source)
        assert builder.store.contains(early.ref)

    def test_weak_parent_must_be_present_too(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        for source in (1, 2, 3):
            builder.on_r_deliver(vertex(1, source, {0, 1, 2}), 1, source)
        for source in (1, 2, 3):
            builder.on_r_deliver(vertex(2, source, {1, 2, 3}), 2, source)
        # Round-3 vertex weak-references a round-1 vertex we never delivered.
        pending = vertex(3, 1, {1, 2, 3}, weak=((0, 1),))
        builder.on_r_deliver(pending, 3, 1)
        assert not builder.store.contains(pending.ref)
        builder.on_r_deliver(vertex(1, 0, {0, 1, 2}), 1, 0)
        assert builder.store.contains(pending.ref)


class TestValidation:
    def test_rejects_source_mismatch(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        v = vertex(1, 1, {0, 1, 2})
        builder.on_r_deliver(v, 1, 2)  # authenticated source says 2
        assert v not in builder.buffer

    def test_rejects_round_mismatch(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        v = vertex(1, 1, {0, 1, 2})
        builder.on_r_deliver(v, 2, 1)
        assert v not in builder.buffer

    def test_rejects_insufficient_strong_edges(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        v = vertex(1, 1, {0, 1})  # 2 < 2f+1 = 3
        builder.on_r_deliver(v, 1, 1)
        assert v not in builder.buffer

    def test_rejects_weak_edge_to_recent_round(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        v = vertex(2, 1, {0, 1, 2}, weak=((3, 1),))  # weak to round-1 = r-1
        builder.on_r_deliver(v, 2, 1)
        assert v not in builder.buffer

    def test_rejects_weak_edge_to_impossible_source(self):
        """A weak parent no process can ever produce would pin the buffer."""
        builder, rbc, _waves, cfg = make_builder()
        builder.start()
        v = vertex(3, 1, {0, 1, 2}, weak=((cfg.n, 1),))
        builder.on_r_deliver(v, 3, 1)
        assert v not in builder.buffer

    def test_rejects_round_zero_vertex(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        v = vertex(0, 1, {0, 1, 2})
        builder.on_r_deliver(v, 0, 1)
        assert v not in builder.buffer


class TestWeakEdges:
    def test_late_vertex_gets_weak_edge(self):
        """Figure 1's scenario: a slow process's old vertex gets weak-edged."""
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        # Rounds 1-2 complete without source 3.
        builder.on_r_deliver(rbc.sent[0][0], 1, 0)
        for source in (1, 2):
            builder.on_r_deliver(vertex(1, source, {0, 1, 2}), 1, source)
        builder.on_r_deliver(rbc.sent[1][0], 2, 0)
        for source in (1, 2):
            builder.on_r_deliver(vertex(2, source, {0, 1, 2}), 2, source)
        # The slow round-1 vertex from source 3 arrives now.
        builder.on_r_deliver(vertex(1, 3, {0, 1, 2}), 1, 3)
        builder.on_r_deliver(rbc.sent[2][0], 3, 0)
        for source in (1, 2):
            builder.on_r_deliver(vertex(3, source, {0, 1, 2}), 3, source)
        # Our round-4 vertex cannot reach (3,1) through strong edges.
        created = rbc.sent[3][0]
        assert created.round == 4
        assert Ref(3, 1) in created.weak_parents

    def test_no_weak_edges_when_everything_reachable(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        for round_ in (1, 2, 3):
            builder.on_r_deliver(rbc.sent[round_ - 1][0], round_, 0)
            for source in (1, 2, 3):
                builder.on_r_deliver(
                    vertex(round_, source, set(builder.store.round(round_ - 1))),
                    round_,
                    source,
                )
        for _, sent_round in rbc.sent:
            created = rbc.sent[sent_round - 1][0]
            assert created.weak_parents == frozenset()

    def test_creation_cost_is_independent_of_depth(self, monkeypatch):
        """Vertex creation must not visit the stored DAG, only its orphans.

        Counts calls into the store (not wall time) while creating a vertex
        with one orphan on a DAG 40 rounds deep and on one 400 rounds deep.
        The literal Lines 27-31 scan looked at every round and every vertex
        (hundreds of ``round``/``bit_of`` calls, growing with depth).
        """

        def store_calls_at(depth):
            builder, rbc, _waves, _cfg = make_builder()
            builder.start()
            for round_ in range(1, depth + 1):
                builder.on_r_deliver(rbc.sent[-1][0], round_, 0)
                for source in (1, 2):
                    builder.on_r_deliver(vertex(round_, source, {0, 1, 2}), round_, source)
            assert builder.round == depth + 1
            builder.on_r_deliver(vertex(depth - 2, 3, {0, 1, 2}), depth - 2, 3)
            calls = Counter()

            def counted(name, method):
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return method(*args, **kwargs)

                return wrapper

            with monkeypatch.context() as patch:
                for name, member in vars(DagStore).items():
                    if callable(member) and not name.startswith("_"):
                        patch.setattr(DagStore, name, counted(name, member))
                created = builder._create_vertex(builder.round, Block(0, 0))
            assert created.weak_parents == frozenset({Ref(3, depth - 2)})
            return calls

        shallow, deep = store_calls_at(40), store_calls_at(400)
        assert shallow == deep
        assert sum(deep.values()) < 10

    def test_coin_share_provider_attached(self):
        shares = {5: 777}
        builder, rbc, _waves, _cfg = make_builder(
            coin_share_provider=lambda r: shares.get(r)
        )
        builder.start()
        for round_ in range(1, 5):
            builder.on_r_deliver(rbc.sent[round_ - 1][0], round_, 0)
            for source in (1, 2, 3):
                builder.on_r_deliver(
                    vertex(round_, source, set(builder.store.round(round_ - 1))),
                    round_,
                    source,
                )
        round5 = rbc.sent[4][0]
        assert round5.round == 5
        assert round5.coin_share == 777


class TestCreatedTracking:
    """``created`` holds own vertices only until they are self-delivered."""

    def test_own_vertex_leaves_created_on_self_delivery(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        own = rbc.sent[0][0]
        assert builder.created == {1: own}
        builder.on_r_deliver(vertex(1, 1, {0, 1, 2}), 1, 1)
        assert builder.created == {1: own}  # someone else's delivery
        builder.on_r_deliver(own, 1, 0)
        assert builder.created == {}

    def test_restore_created_skips_delivered_and_collected(self):
        builder, rbc, _waves, _cfg = make_builder()
        builder.start()
        for round_ in (1, 2, 3):
            builder.on_r_deliver(rbc.sent[-1][0], round_, 0)
            for source in (1, 2):
                builder.on_r_deliver(vertex(round_, source, {0, 1, 2}), round_, source)
        undelivered = rbc.sent[-1][0]
        assert builder.created == {4: undelivered}
        builder.store.compact(2, [])
        builder.created.clear()
        builder.restore_created(vertex for vertex, _round in rbc.sent)
        assert builder.created == {4: undelivered}
