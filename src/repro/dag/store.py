"""One process's local DAG view with O(1) reachability queries.

``DAG_i[]`` from Algorithm 1: an array of per-round vertex sets, at most one
vertex per (source, round) slot. The two queries Algorithm 1 defines —
``path(v, u)`` over strong+weak edges and ``strong_path(v, u)`` over strong
edges only — are answered in O(1) with big-integer ancestor bitsets: every
inserted vertex gets a local bit index, and its (strong-)ancestor set is the
OR of its parents' sets plus their bits. Insertion requires all parents to
be present, which the Algorithm 2 buffer guarantees, so bitsets are always
complete (Claim 1: a vertex enters the DAG only after its causal history).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.common.errors import DagError
from repro.common.types import GENESIS_ROUND
from repro.dag.vertex import Ref, Vertex, genesis_vertices


class DagStore:
    """A per-process DAG with round indexing and bitset reachability."""

    def __init__(self, genesis_size: int) -> None:
        self._rounds: dict[int, dict[int, Vertex]] = {}
        self._bit_index: dict[Ref, int] = {}
        self._refs_by_bit: list[Ref] = []
        self._ancestors: dict[Ref, int] = {}
        self._strong_ancestors: dict[Ref, int] = {}
        self._non_genesis_mask = 0  # bits of every stored vertex of round >= 1
        self._vertex_count = 0
        self._collected_floor = 0  # rounds below this were garbage-collected
        self._collected_count = 0
        for vertex in genesis_vertices(genesis_size):
            self._insert(vertex, strong_mask=0, weak_mask=0)

    # ------------------------------------------------------------------ views

    def round(self, round_: int) -> dict[int, Vertex]:
        """``DAG_i[round_]`` as a source -> vertex mapping (possibly empty)."""
        return self._rounds.get(round_, {})

    def round_size(self, round_: int) -> int:
        """Number of vertices this process holds for ``round_``."""
        return len(self._rounds.get(round_, {}))

    def contains(self, ref: Ref) -> bool:
        """True when the referenced vertex is in this local DAG."""
        return ref in self._bit_index

    def get(self, ref: Ref) -> Vertex | None:
        """The vertex at ``ref`` or None."""
        return self._rounds.get(ref.round, {}).get(ref.source)

    def vertices(self) -> Iterator[Vertex]:
        """All vertices, in (round, source) order."""
        for round_ in sorted(self._rounds):
            for source in sorted(self._rounds[round_]):
                yield self._rounds[round_][source]

    def rounds(self) -> list[int]:
        """All round numbers with at least one vertex, ascending."""
        return sorted(self._rounds)

    @property
    def vertex_count(self) -> int:
        """Total vertices held (including genesis)."""
        return self._vertex_count

    # ---------------------------------------------------------------- updates

    def can_add(self, vertex: Vertex) -> bool:
        """True when all of ``vertex``'s parents are already present (Line 7).

        Parents in garbage-collected rounds count as present: anything below
        the collection floor was in the DAG and fully delivered before it
        was collected (the :meth:`compact` contract).
        """
        return all(
            ref.round < self._collected_floor or self.contains(ref)
            for ref in vertex.parent_refs()
        )

    def add(self, vertex: Vertex) -> None:
        """Insert ``vertex``; parents must be present and the slot free."""
        if vertex.ref in self._bit_index:
            raise DagError(f"duplicate vertex slot {vertex.ref}")
        strong_mask = 0
        weak_mask = 0
        for source in vertex.strong_parents:
            ref = Ref(source, vertex.round - 1)
            index = self._bit_index.get(ref)
            if index is None:
                if ref.round < self._collected_floor:
                    continue  # collected: delivered history, nothing to link
                raise DagError(f"missing strong parent {ref} of {vertex.ref}")
            strong_mask |= (1 << index) | self._strong_ancestors[ref]
            weak_mask |= (1 << index) | self._ancestors[ref]
        for ref in vertex.weak_parents:
            index = self._bit_index.get(ref)
            if index is None:
                if ref.round < self._collected_floor:
                    continue
                raise DagError(f"missing weak parent {ref} of {vertex.ref}")
            weak_mask |= (1 << index) | self._ancestors[ref]
        self._insert(vertex, strong_mask, weak_mask)

    def _insert(self, vertex: Vertex, strong_mask: int, weak_mask: int) -> None:
        ref = vertex.ref
        self._rounds.setdefault(vertex.round, {})[vertex.source] = vertex
        self._bit_index[ref] = self._vertex_count
        self._refs_by_bit.append(ref)
        if vertex.round != GENESIS_ROUND:
            self._non_genesis_mask |= 1 << self._vertex_count
        self._vertex_count += 1
        self._strong_ancestors[ref] = strong_mask
        self._ancestors[ref] = strong_mask | weak_mask

    # ---------------------------------------------------------------- queries

    def path(self, from_ref: Ref, to_ref: Ref) -> bool:
        """Algorithm 1 ``path``: reachability over strong *and* weak edges."""
        if from_ref == to_ref:
            return True
        index = self._bit_index.get(to_ref)
        mask = self._ancestors.get(from_ref)
        if index is None or mask is None:
            return False
        return bool(mask >> index & 1)

    def strong_path(self, from_ref: Ref, to_ref: Ref) -> bool:
        """Algorithm 1 ``strong_path``: reachability over strong edges only."""
        if from_ref == to_ref:
            return True
        index = self._bit_index.get(to_ref)
        mask = self._strong_ancestors.get(from_ref)
        if index is None or mask is None:
            return False
        return bool(mask >> index & 1)

    def causal_history(self, ref: Ref) -> list[Vertex]:
        """All vertices with a path from ``ref`` (including itself), sorted.

        The deterministic (round, source) order here is the delivery order
        ``order_vertices`` uses (Line 55's "some deterministic order").
        """
        if ref not in self._bit_index:
            raise DagError(f"unknown vertex {ref}")
        return self.vertices_for_mask(self.closed_mask(ref))

    def reach_mask(self, round_: int, strong_parents: Iterable[int]) -> int:
        """Bitmask of everything reachable from a *hypothetical* new vertex.

        The vertex is named by its round and strong-parent sources, before
        it exists: the union of those parents' closed ancestor sets.
        """
        mask = 0
        for source in strong_parents:
            ref = Ref(source, round_ - 1)
            index = self._bit_index.get(ref)
            if index is None:
                raise DagError(f"missing strong parent {ref}")
            mask |= (1 << index) | self._ancestors[ref]
        return mask

    def orphans(self, round_: int, strong_parents: Iterable[int]) -> frozenset[Ref]:
        """Weak-edge targets of a new round-``round_`` vertex (Lines 27-31).

        The paper scans rounds ``round_ - 2`` down to 1 and takes every
        vertex not yet reachable, extending reachability as it goes; that
        selects exactly the *maximal* unreached vertices, those no other
        unreached vertex has a path to. Here: subtract the strong parents'
        reach from the stored non-genesis vertices, then peel the highest
        bit — maximal, because a vertex is inserted after its whole causal
        history, so ancestors hold lower bits (:meth:`compact` keeps the
        order) — and clear everything it reaches. One big-int difference
        plus one step per weak edge, whatever the DAG's depth
        (docs/protocol.md, "Why the mask difference equals the scan").

        Precondition (the builder's Line 7 gate, ``vertex.round <= r``):
        every stored vertex of round ``>= round_ - 1`` is a strong parent.
        """
        unreached = self._non_genesis_mask & ~self.reach_mask(round_, strong_parents)
        targets = []
        while unreached:
            ref = self._refs_by_bit[unreached.bit_length() - 1]
            targets.append(ref)
            unreached &= ~self.closed_mask(ref)
        return frozenset(targets)

    def bit_of(self, ref: Ref) -> int:
        """The local bit index of ``ref`` (for incremental mask updates)."""
        return self._bit_index[ref]

    # --------------------------------------------------------------- GC

    @property
    def collected_floor(self) -> int:
        """Rounds below this were garbage-collected (0 = nothing collected)."""
        return self._collected_floor

    @property
    def collected_count(self) -> int:
        """Total vertices removed by :meth:`compact` so far."""
        return self._collected_count

    def compact(self, horizon: int, external_masks: list[int]) -> list[int]:
        """Garbage-collect every vertex with ``round < horizon``.

        Contract (enforced by the caller, normally the node's GC policy):
        everything below ``horizon`` has already been delivered, so dropping
        it cannot change future ordering decisions. Reachability among the
        survivors is preserved exactly — the stored masks are transitive
        closures, so restricting them to surviving bits keeps every
        survivor-to-survivor answer intact even when the connecting path ran
        through collected vertices.

        ``external_masks`` are caller-held bitmasks over this store's bit
        space (e.g. the ordering layer's delivered-set); they are remapped
        to the new bit space and returned in order.
        """
        if horizon <= self._collected_floor:
            return list(external_masks)
        survivors = [
            ref for ref in self._refs_by_bit
            if ref.round >= horizon and ref in self._bit_index
        ]
        keep_mask = 0
        for ref in survivors:
            keep_mask |= 1 << self._bit_index[ref]

        # Survivors appear in ascending old-bit order (they are filtered from
        # `_refs_by_bit` in place), so remapping a mask is a bit-gather: pack
        # the bits selected by `keep_mask` into consecutive low positions.
        # Decompose `keep_mask` once into maximal runs of set bits, then each
        # remap is one shift+mask+or per run instead of one test per
        # survivor — GC removes whole prefixes of rounds, so runs are few and
        # the old O(survivors) scan per mask (O(survivors^2) per compact)
        # becomes a handful of big-int ops.
        gather_runs: list[tuple[int, int, int]] = []  # (old_shift, width_mask, new_shift)
        remainder = keep_mask
        old_shift = 0
        new_shift = 0
        while remainder:
            zeros = (remainder & -remainder).bit_length() - 1
            remainder >>= zeros
            old_shift += zeros
            ones = (~remainder & (remainder + 1)).bit_length() - 1
            gather_runs.append((old_shift, (1 << ones) - 1, new_shift))
            remainder >>= ones
            old_shift += ones
            new_shift += ones

        def remap(mask: int) -> int:
            out = 0
            for shift, width_mask, new_pos in gather_runs:
                out |= (mask >> shift & width_mask) << new_pos
            return out

        new_ancestors = {ref: remap(self._ancestors[ref]) for ref in survivors}
        new_strong = {ref: remap(self._strong_ancestors[ref]) for ref in survivors}
        remapped_external = [remap(mask) for mask in external_masks]

        removed = self._vertex_count - len(survivors)
        self._collected_count += removed
        self._rounds = {
            round_: sources
            for round_, sources in self._rounds.items()
            if round_ >= horizon
        }
        self._bit_index = {ref: bit for bit, ref in enumerate(survivors)}
        self._refs_by_bit = survivors
        self._ancestors = new_ancestors
        self._strong_ancestors = new_strong
        self._non_genesis_mask = remap(self._non_genesis_mask)
        self._vertex_count = len(survivors)
        self._collected_floor = horizon
        return remapped_external

    def vertices_for_mask(self, mask: int) -> list[Vertex]:
        """Vertices whose bits are set in ``mask``, in (round, source) order."""
        result = []
        while mask:
            low = mask & -mask
            ref = self._refs_by_bit[low.bit_length() - 1]
            vertex = self.get(ref)
            assert vertex is not None
            result.append(vertex)
            mask ^= low
        result.sort(key=lambda v: (v.round, v.source))
        return result

    def closed_mask(self, ref: Ref) -> int:
        """Ancestors-of-``ref`` mask including ``ref``'s own bit."""
        return self._ancestors[ref] | (1 << self._bit_index[ref])
