"""Algorithm 3 unit behaviour on hand-built DAGs with a scripted coin."""

from repro.coin.base import CoinProtocol
from repro.common.config import SystemConfig
from repro.core.ordering import DagRiderOrdering
from repro.dag.store import DagStore
from repro.dag.vertex import Ref, Vertex
from repro.mempool.blocks import Block
from repro.obs.context import Observability


class ScriptedCoin(CoinProtocol):
    """Coin whose leaders the test chooses; resolution can be delayed."""

    def __init__(self, leaders: dict[int, int], auto=True):
        super().__init__()
        self.leaders = leaders
        self.auto = auto
        self.invoked: list[int] = []

    def invoke(self, instance):
        self.invoked.append(instance)
        if self.auto:
            self.release(instance)

    def release(self, instance):
        self._resolve(instance, self.leaders[instance])


def vertex(round_, source, strong, weak=()):
    return Vertex(
        round_,
        source,
        Block(source, round_, (bytes([source]),)),
        frozenset(strong),
        frozenset(Ref(s, r) for s, r in weak),
    )


def fill_waves(store: DagStore, waves: int, n: int = 4, skip: dict | None = None):
    """Complete ``waves`` full waves where every process references everyone.

    ``skip`` maps round -> set of sources whose vertex is absent there.
    """
    skip = skip or {}
    for round_ in range(1, 4 * waves + 1):
        prev = set(store.round(round_ - 1))
        for source in range(n):
            if source in skip.get(round_, set()):
                continue
            store.add(vertex(round_, source, prev))


def make_ordering(store, leaders, n=4, auto=True, obs=None):
    config = SystemConfig(n=n, seed=0)
    coin = ScriptedCoin(leaders, auto=auto)
    delivered = []
    ordering = DagRiderOrdering(
        0,
        config,
        store,
        coin,
        a_deliver=lambda b, r, s: delivered.append((r, s)),
        obs=obs,
    )
    return ordering, coin, delivered


class TestCommitRule:
    def test_full_wave_commits(self):
        store = DagStore(4)
        fill_waves(store, 1)
        ordering, coin, delivered = make_ordering(store, {1: 2})
        ordering.wave_ready(1)
        assert ordering.decided_wave == 1
        assert coin.invoked == [1]
        # Leader's causal history = rounds 1..1 of its wave's first round:
        # every round-1 vertex plus nothing newer.
        assert (1, 2) in delivered

    def test_missing_leader_no_commit(self):
        store = DagStore(4)
        fill_waves(store, 1, skip={1: {3}})  # leader's vertex absent
        ordering, _coin, delivered = make_ordering(store, {1: 3})
        ordering.wave_ready(1)
        assert ordering.decided_wave == 0
        assert delivered == []

    def test_wave_leader_event_is_the_ordering_layers_whole_trace(self):
        obs = Observability()
        store = DagStore(4)
        fill_waves(store, 2, skip={1: {3}})  # wave 1's leader vertex absent
        ordering, _coin, _delivered = make_ordering(store, {1: 3, 2: 0}, obs=obs)
        ordering.wave_ready(1)
        ordering.wave_ready(2)
        assert [event.detail for event in obs.bus] == [
            {"leader": 3, "present": False, "wave": 1},
            {"committed": True, "leader": 0, "present": True, "support": 4, "wave": 2},
        ]
        assert obs.bus.kinds() == {"wave_leader"}

    def test_insufficient_support_no_commit(self):
        store = DagStore(4)
        # Round 1 complete; rounds 2-4 built from only 3 vertices that do
        # not include the leader in their ancestry.
        for source in range(4):
            store.add(vertex(1, source, {0, 1, 2, 3}))
        for round_ in (2, 3, 4):
            for source in (0, 1, 2):
                # Strong edges avoid source 3's chain entirely.
                store.add(vertex(round_, source, {0, 1, 2}))
        ordering, _coin, delivered = make_ordering(store, {1: 3})
        # Support for leader (3,1): round-4 vertices reaching it.
        leader = store.get(Ref(3, 1))
        assert ordering.commit_support(1, leader) < 3
        ordering.wave_ready(1)
        assert ordering.decided_wave == 0

    def test_exactly_quorum_support_commits(self):
        store = DagStore(4)
        fill_waves(store, 1, skip={4: {3}})  # 3 vertices in round 4
        ordering, _coin, delivered = make_ordering(store, {1: 0})
        ordering.wave_ready(1)
        assert ordering.decided_wave == 1


class TestWalkBack:
    def test_skipped_wave_committed_retroactively(self):
        """Figure 2: wave 2 misses support; wave 3 commits it first."""
        store = DagStore(4)
        fill_waves(store, 3)
        ordering, coin, delivered = make_ordering(
            store, {1: 0, 2: 1, 3: 2}, auto=False
        )
        # Wave 1 resolves and commits.
        ordering.wave_ready(1)
        coin.release(1)
        assert ordering.decided_wave == 1
        # Wave 2 completes but its coin stays unresolved; wave 3 arrives.
        ordering.wave_ready(2)
        ordering.wave_ready(3)
        assert ordering.decided_wave == 1  # blocked on coin 2
        coin.release(2)
        coin.release(3)
        assert ordering.decided_wave == 3
        # Leaders delivered in wave order: wave 2's leader vertex (1, 5)
        # must be delivered before wave 3's leader vertex (2, 9).
        pos_w2 = delivered.index((5, 1))
        pos_w3 = delivered.index((9, 2))
        assert pos_w2 < pos_w3

    def test_walkback_skips_waves_with_no_strong_path(self):
        store = DagStore(4)
        # Wave 1: complete. Wave 2: leader vertex exists but is isolated —
        # round 5 has 4 vertices but rounds 6-8 reference only sources 0-2
        # and the leader is source 3.
        fill_waves(store, 1)
        prev = set(store.round(4))
        for source in range(4):
            store.add(vertex(5, source, prev))
        for round_ in (6, 7, 8):
            for source in (0, 1, 2):
                store.add(vertex(round_, source, {0, 1, 2}))
        # Wave 3 on top, fully connected to rounds 8.
        for round_ in (9, 10, 11, 12):
            prev = set(store.round(round_ - 1))
            for source in (0, 1, 2):
                store.add(vertex(round_, source, prev))
        ordering, coin, delivered = make_ordering(store, {1: 0, 2: 3, 3: 1})
        ordering.wave_ready(1)
        ordering.wave_ready(2)  # leader (3,5): support < 2f+1, no commit
        assert ordering.decided_wave == 1
        ordering.wave_ready(3)
        assert ordering.decided_wave == 3
        # Wave 2's leader is NOT in wave 3 leader's strong causal past:
        assert (5, 3) not in delivered

    def test_commit_times_monotone_waves_increasing(self):
        store = DagStore(4)
        fill_waves(store, 3)
        ordering, _coin, _delivered = make_ordering(store, {1: 0, 2: 1, 3: 2})
        for wave in (1, 2, 3):
            ordering.wave_ready(wave)
        waves = [record.wave for record in ordering.commits]
        assert waves == sorted(waves)


class TestDelivery:
    def test_no_double_delivery_across_commits(self):
        store = DagStore(4)
        fill_waves(store, 2)
        ordering, _coin, delivered = make_ordering(store, {1: 0, 2: 1})
        ordering.wave_ready(1)
        ordering.wave_ready(2)
        assert len(delivered) == len(set(delivered))

    def test_delivery_order_deterministic(self):
        results = []
        for _ in range(2):
            store = DagStore(4)
            fill_waves(store, 2)
            ordering, _coin, delivered = make_ordering(store, {1: 3, 2: 0})
            ordering.wave_ready(1)
            ordering.wave_ready(2)
            results.append(delivered)
        assert results[0] == results[1]

    def test_genesis_not_delivered(self):
        store = DagStore(4)
        fill_waves(store, 1)
        ordering, _coin, delivered = make_ordering(store, {1: 0})
        ordering.wave_ready(1)
        assert all(round_ > 0 for round_, _source in delivered)

    def test_causal_order_within_commit(self):
        """Every delivered vertex's strong parents were delivered first."""
        store = DagStore(4)
        fill_waves(store, 2)
        ordering, _coin, delivered = make_ordering(store, {1: 2, 2: 3})
        ordering.wave_ready(1)
        ordering.wave_ready(2)
        positions = {key: i for i, key in enumerate(delivered)}
        for round_, source in delivered:
            vtx = store.get(Ref(source, round_))
            for parent in vtx.strong_parents:
                if (round_ - 1, parent) in positions:
                    assert positions[(round_ - 1, parent)] < positions[(round_, source)]

    def test_wave_ready_idempotent(self):
        store = DagStore(4)
        fill_waves(store, 1)
        ordering, coin, delivered = make_ordering(store, {1: 0})
        ordering.wave_ready(1)
        count = len(delivered)
        ordering.wave_ready(1)
        assert len(delivered) == count
        assert coin.invoked == [1]
