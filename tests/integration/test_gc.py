"""DAG garbage collection (the Narwhal-style extension; DESIGN.md)."""

import pytest

from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.core.harness import DagRiderDeployment
from repro.dag.store import DagStore
from repro.dag.vertex import Ref, Vertex
from repro.mempool.blocks import Block
from repro.sim.adversary import SlowProcessDelay, UniformDelay


def run_with_gc(gc_depth, seed=5, max_events=80_000, adversary=None, n=4):
    dep = DagRiderDeployment(
        SystemConfig(n=n, seed=seed),
        adversary=adversary,
        default_node_kwargs={"gc_depth": gc_depth},
    )
    dep.run(max_events=max_events)
    dep.check_total_order()
    dep.check_integrity()
    return dep


class TestGcEquivalence:
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_delivery_log_identical_with_and_without_gc(self, seed):
        logs = {}
        for gc in (None, 4):
            dep = run_with_gc(gc, seed=seed)
            node = dep.correct_nodes[0]
            logs[gc] = [(e.round, e.source, e.block.digest) for e in node.ordered]
        assert logs[None] == logs[4]

    def test_store_stays_bounded(self):
        dep = run_with_gc(4, max_events=120_000)
        for node in dep.correct_nodes:
            assert node.store.vertex_count < 100
            assert node.store.collected_count > 0
            assert node.store.collected_floor > 0

    def test_gc_with_slow_process_within_margin(self):
        """A straggler inside the gc_depth margin is still weak-edged in."""
        seed = 8
        adversary = SlowProcessDelay(
            UniformDelay(derive_rng(seed, "d"), 0.1, 1.0), slow={3}, penalty=4.0
        )
        dep = run_with_gc(12, seed=seed, adversary=adversary, max_events=150_000)
        node = dep.correct_nodes[0]
        assert any(e.source == 3 for e in node.ordered)

    def test_incomplete_rounds_pin_the_frontier(self):
        """GC must never collect a round still missing a straggler's vertex.

        With delivered-only accounting a fast node would collect such a
        round, drop the straggler's late vertex on arrival (sub-floor refs
        count as satisfied), and fork the total order against peers that
        kept the round and wove the vertex in via weak parents. An
        aggressive margin plus a very slow process is exactly that trap:
        ``run_with_gc`` cross-checks every node's delivery log, and the
        straggler's vertices must still appear in it.
        """
        seed = 11
        adversary = SlowProcessDelay(
            UniformDelay(derive_rng(seed, "d"), 0.1, 1.0), slow={3}, penalty=20.0
        )
        dep = run_with_gc(2, seed=seed, adversary=adversary, max_events=150_000)
        node = dep.correct_nodes[0]
        assert node.store.collected_floor > 0  # collection did happen
        assert any(e.source == 3 for e in node.ordered)
        # Everything below the floor is complete: n entries per round in
        # the delivery log for every collected round.
        per_round = {}
        for entry in node.ordered:
            per_round[entry.round] = per_round.get(entry.round, 0) + 1
        for round_ in range(1, node.store.collected_floor):
            assert per_round.get(round_) == 4, (round_, per_round.get(round_))

    def test_gc_with_threshold_coin(self):
        dep = DagRiderDeployment(
            SystemConfig(n=4, seed=9),
            coin_mode="threshold",
            default_node_kwargs={"gc_depth": 4},
        )
        assert dep.run_until_ordered(40, max_events=400_000)
        dep.check_total_order()


class TestStoreCompaction:
    def _grown_store(self, rounds=6):
        store = DagStore(4)
        for round_ in range(1, rounds + 1):
            prev = set(store.round(round_ - 1))
            for source in range(4):
                store.add(Vertex(round_, source, Block(source, round_), frozenset(prev)))
        return store

    def test_compact_preserves_survivor_reachability(self):
        store = self._grown_store()
        expectations = {}
        for a in range(3, 7):
            for b in range(3, 7):
                for src_a in range(4):
                    for src_b in range(4):
                        key = (Ref(src_a, a), Ref(src_b, b))
                        expectations[key] = (
                            store.path(*key),
                            store.strong_path(*key),
                        )
        store.compact(3, [])
        for (ref_a, ref_b), (path, strong) in expectations.items():
            assert store.path(ref_a, ref_b) == path
            assert store.strong_path(ref_a, ref_b) == strong

    def test_compact_remaps_external_masks(self):
        store = self._grown_store()
        target = Ref(2, 5)
        mask = 1 << store.bit_of(target)
        (remapped,) = store.compact(3, [mask])
        assert remapped == 1 << store.bit_of(target)
        assert [v.ref for v in store.vertices_for_mask(remapped)] == [target]

    def test_compact_drops_rounds_below_horizon(self):
        store = self._grown_store()
        removed_before = store.vertex_count
        store.compact(4, [])
        assert store.rounds() == [4, 5, 6]
        assert store.collected_floor == 4
        assert store.collected_count == removed_before - store.vertex_count

    def test_collected_parents_count_as_present(self):
        store = self._grown_store()
        store.compact(6, [])
        # Round-6 survived; a new round-7 vertex references round-6 parents
        # normally, and can_add treats sub-floor refs as satisfied.
        probe = Vertex(7, 0, Block(0, 100), frozenset({1, 2, 3}))
        assert store.can_add(probe)
        weak_to_collected = Vertex(
            7, 1, Block(1, 100), frozenset({1, 2, 3}), frozenset({Ref(0, 2)})
        )
        assert store.can_add(weak_to_collected)

    def test_compact_idempotent_and_monotone(self):
        store = self._grown_store()
        store.compact(3, [])
        count = store.vertex_count
        assert store.compact(2, []) == []  # lower horizon: no-op
        assert store.vertex_count == count

    def test_compact_with_interleaved_bit_order(self):
        """The remap bit-gather must handle holes inside the survivor mask.

        Vertices are inserted out of round order (a straggler's round-2
        vertex lands after round-3 ones), so survivor bits are not one
        contiguous prefix-complement and the gather runs over several
        fragments of the keep mask.
        """
        store = DagStore(4)
        # Round 1 completes without the straggler (source 3)...
        for source in range(3):
            store.add(Vertex(1, source, Block(source, 1), frozenset(range(4))))
        # ...round 2 advances on a 2f+1 quorum before the straggler lands,
        # so a collected round-1 bit ends up *between* surviving round-2
        # bits once source 3's round-1 vertex finally arrives.
        for source in range(3):
            store.add(Vertex(2, source, Block(source, 2), frozenset(range(3))))
        store.add(Vertex(1, 3, Block(3, 1), frozenset(range(4))))  # straggler
        store.add(Vertex(2, 3, Block(3, 2), frozenset(range(4))))
        for source in range(4):
            store.add(Vertex(3, source, Block(source, 3), frozenset(range(4))))

        survivors = [v.ref for v in store.vertices() if v.round >= 2]
        expectations = {
            (a, b): (store.path(a, b), store.strong_path(a, b))
            for a in survivors
            for b in survivors
        }
        external = [1 << store.bit_of(ref) for ref in survivors]
        remapped = store.compact(2, external)
        for (ref_a, ref_b), (path, strong) in expectations.items():
            assert store.path(ref_a, ref_b) == path
            assert store.strong_path(ref_a, ref_b) == strong
        for ref, mask in zip(survivors, remapped):
            assert mask == 1 << store.bit_of(ref)

    def test_insert_after_compact_gets_fresh_bits(self):
        store = self._grown_store()
        store.compact(5, [])
        new = Vertex(7, 0, Block(0, 7), frozenset(range(4)))
        store.add(new)
        assert store.contains(new.ref)
        assert store.path(new.ref, Ref(1, 6))
