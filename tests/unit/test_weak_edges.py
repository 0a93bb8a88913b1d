"""Weak-edge selection: the store's mask difference vs the paper's scan.

``DagStore.orphans`` replaces the literal transcription of Algorithm 2
Lines 27-31 that used to live in ``DagBuilder._create_vertex``. That
transcription survives here, as :func:`reference_weak_edges`, and is the
oracle: on random DAGs (stragglers landing many rounds late, interleaved
bit order, one or more compactions) and on whole deployments, both must
select the same set, so every created vertex keeps the same bytes.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.core.faulty import RecoveringNode
from repro.core.harness import DagRiderDeployment
from repro.dag.builder import DagBuilder
from repro.dag.store import DagStore
from repro.dag.vertex import Ref, Vertex
from repro.mempool.blocks import Block


def reference_weak_edges(store, round_, strong):
    """Algorithm 2 Lines 27-31, literally: scan round-2 down to 1.

    Every stored vertex is visited; one not yet reachable becomes a weak
    parent and extends the reach. With GC the scan stops at the floor.
    """
    reach = store.reach_mask(round_, strong)
    weak = set()
    scan_floor = max(0, store.collected_floor - 1)
    for r in range(round_ - 2, scan_floor, -1):
        for vertex in store.round(r).values():
            if reach >> store.bit_of(vertex.ref) & 1:
                continue
            weak.add(vertex.ref)
            reach |= store.closed_mask(vertex.ref)
    return frozenset(weak)


def grow_and_compare(seed, n, rounds, compact_rate):
    """Grow one observer's store the way a builder would; compare at each step.

    All ``n`` sources produce a vertex per round (random ``>= 2f + 1``
    strong parents, a few random weak ones). The observer receives them
    late and out of order — up to ``f`` sources are held back for rounds — and
    inserts under the builder's gates (parents present, ``round <= r``).
    Each time round ``r`` reaches its quorum the would-be weak edges of the
    round ``r + 1`` vertex are computed both ways. Returns the selections.
    """
    rng = random.Random(seed)
    quorum = 2 * ((n - 1) // 3) + 1
    store = DagStore(n)
    stragglers = set(rng.sample(range(n), rng.randint(1, (n - 1) // 3)))
    in_flight: list[Vertex] = []
    selections = []
    r = 0

    def settle():
        nonlocal r
        progressed = True
        while progressed:
            progressed = False
            rng.shuffle(in_flight)
            for vertex in list(in_flight):
                if vertex.round < store.collected_floor:
                    in_flight.remove(vertex)
                elif vertex.round <= r and store.can_add(vertex):
                    in_flight.remove(vertex)
                    store.add(vertex)
                    progressed = True
            while store.round_size(r) >= (n if r == 0 else quorum):
                strong = frozenset(store.round(r))
                got = store.orphans(r + 1, strong)
                assert got == reference_weak_edges(store, r + 1, strong)
                assert all(1 <= ref.round < r for ref in got)  # never genesis
                selections.append(got)
                r += 1
                progressed = True
                floor = store.collected_floor
                if floor + 1 < r and rng.random() < compact_rate:
                    store.compact(rng.randint(floor + 1, r - 1), [])

    held: list[Vertex] = []
    for round_ in range(1, rounds + 1):
        # Nobody has seen a held vertex yet, so only its own source builds on it.
        unseen = {v.ref for v in held}
        seen_before = [s for s in range(n) if Ref(s, round_ - 1) not in unseen]
        older = [
            Ref(s, q)
            for q in range(1, round_ - 1)
            for s in range(n)
            if Ref(s, q) not in unseen
        ]
        for source in range(n):
            candidates = range(n) if source in stragglers else seen_before
            strong = rng.sample(candidates, rng.randint(quorum, len(candidates)))
            weak = rng.sample(older, min(len(older), rng.choice((0, 0, 0, 1, 2))))
            vertex = Vertex(
                round_, source, Block(source, round_), frozenset(strong), frozenset(weak)
            )
            if source in stragglers and rng.random() < 0.8:
                held.append(vertex)
            else:
                in_flight.append(vertex)
        if held and rng.random() < 0.25:
            in_flight.extend(held)  # a straggler backlog lands at once
            held.clear()
        settle()
    in_flight.extend(held)
    settle()
    return selections


class TestMaskEqualsScan:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from((4, 7)),
        rounds=st.integers(4, 24),
        compact_rate=st.sampled_from((0.0, 0.15, 0.5)),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_dags(self, seed, n, rounds, compact_rate):
        grow_and_compare(seed, n, rounds, compact_rate)

    def test_generator_reaches_the_interesting_cases(self):
        """The property is vacuous unless stragglers actually orphan vertices."""
        sizes = [
            len(selection)
            for seed in range(40)
            for selection in grow_and_compare(seed, 4, 20, 0.15)
        ]
        assert sizes.count(0) > 0 and sizes.count(1) > 0 and max(sizes) >= 2

    def test_straggler_chain_yields_only_its_tip(self):
        """Unreached vertices that reach each other: only the maximal one."""
        store = DagStore(4)
        for round_ in (1, 2, 3, 4):
            for source in range(3):
                parents = range(4) if round_ == 1 else range(3)
                store.add(Vertex(round_, source, Block(source, round_), frozenset(parents)))
        # Source 3 was slow: its rounds 1-3 land together, each on the last.
        for round_ in (1, 2, 3):
            store.add(Vertex(round_, 3, Block(3, round_), frozenset(range(4))))
        strong = frozenset(store.round(4))
        assert store.orphans(5, strong) == frozenset({Ref(3, 3)})
        assert reference_weak_edges(store, 5, strong) == frozenset({Ref(3, 3)})

    def test_genesis_is_never_a_weak_parent(self):
        """Round 1 built on three of four genesis vertices: no edge to the fourth."""
        store = DagStore(4)
        for round_ in (1, 2):
            for source in range(3):
                store.add(Vertex(round_, source, Block(source, round_), frozenset(range(3))))
        strong = frozenset(store.round(2))
        assert not store.path(Ref(0, 2), Ref(3, 0))
        assert store.orphans(3, strong) == frozenset()


#: sha256 over every created vertex's ``to_bytes()``, in creation order, of
#: the deployment below — recorded at the parent commit, where the literal
#: scan still lived in ``_create_vertex``. GC does not change what is
#: created, so the bounded and unbounded runs share it.
PARENT_DIGEST = "0b335398de2edeca7c8225b2101570a4ce3594e47d36d93bf706b95feb35adb2"


def created_bytes_digest(monkeypatch, gc_depth):
    """Run a deployment with one recovering process; check every creation."""
    hasher = hashlib.sha256()
    create = DagBuilder._create_vertex
    weak_total = 0

    def checked(self, round_, block):
        nonlocal weak_total
        vertex = create(self, round_, block)
        expected = reference_weak_edges(self.store, round_, vertex.strong_parents)
        assert vertex.weak_parents == expected
        weak_total += len(expected)
        hasher.update(vertex.to_bytes())
        return vertex

    monkeypatch.setattr(DagBuilder, "_create_vertex", checked)
    deployment = DagRiderDeployment(
        SystemConfig(n=4, seed=22),
        node_factories={3: RecoveringNode},
        node_kwargs={3: {"crash_round": 3, "downtime": 40.0}},
        default_node_kwargs={"gc_depth": gc_depth},
    )
    assert deployment.run_until_wave(12, max_events=900_000)
    deployment.check_total_order()
    assert weak_total > 0
    return hasher.hexdigest()


class TestDeploymentBytesUnchanged:
    @pytest.mark.parametrize("gc_depth", [None, 4])
    def test_created_vertices_byte_identical(self, monkeypatch, gc_depth):
        assert created_bytes_digest(monkeypatch, gc_depth) == PARENT_DIGEST
