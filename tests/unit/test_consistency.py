"""Digest-based prefix-consistency check shared by cluster and fabric."""

import pytest

from repro.common.errors import ConsistencyError
from repro.core.node import (
    OrderedEntry,
    check_prefix_consistency,
    digest_log,
    entry_digest,
)
from repro.mempool.blocks import Block


def entry(position, proposer, sequence, round_=1, payload=b"tx"):
    return OrderedEntry(
        position=position,
        block=Block(proposer, sequence, (payload,)),
        round=round_,
        source=proposer,
        time=0.0,
    )


class TestEntryDigest:
    def test_digest_is_stable_hex(self):
        a = entry_digest(entry(0, proposer=1, sequence=0))
        assert a == entry_digest(entry(0, proposer=1, sequence=0))
        assert len(a) == 64
        int(a, 16)  # valid hex

    def test_digest_covers_block_bytes_not_just_slot(self):
        # Same (round, source) slot, different block contents: the old
        # (round, source) comparison called these equal; the digest must not.
        a = entry(0, proposer=1, sequence=0, payload=b"pay alice")
        b = entry(0, proposer=1, sequence=0, payload=b"pay mallory")
        assert (a.round, a.source) == (b.round, b.source)
        assert entry_digest(a) != entry_digest(b)

    def test_digest_covers_slot(self):
        a = entry(0, proposer=1, sequence=0, round_=1)
        b = entry(0, proposer=1, sequence=0, round_=2)
        assert entry_digest(a) != entry_digest(b)


class TestPrefixConsistency:
    def test_agreeing_prefixes_pass(self):
        log = digest_log([entry(i, proposer=i % 3, sequence=i) for i in range(5)])
        agreed = check_prefix_consistency(
            {"node 0": log, "node 1": log[:3], "node 2": log}
        )
        assert agreed == 3

    def test_divergent_block_same_slot_raises(self):
        honest = digest_log(
            [entry(0, proposer=1, sequence=0, payload=b"pay alice")]
        )
        equivocated = digest_log(
            [entry(0, proposer=1, sequence=0, payload=b"pay mallory")]
        )
        with pytest.raises(ConsistencyError, match="position 0"):
            check_prefix_consistency({"node 0": honest, "node 1": equivocated})

    def test_error_names_both_nodes(self):
        logs = {
            "host-a:0": digest_log([entry(0, proposer=0, sequence=0)]),
            "host-b:1": digest_log([entry(0, proposer=0, sequence=1)]),
        }
        with pytest.raises(ConsistencyError, match="host-a:0.*host-b:1"):
            check_prefix_consistency(logs)

    def test_reordered_entries_raise(self):
        a = entry(0, proposer=0, sequence=0)
        b = entry(1, proposer=1, sequence=0)
        with pytest.raises(ConsistencyError):
            check_prefix_consistency(
                {"node 0": digest_log([a, b]), "node 1": digest_log([b, a])}
            )

    def test_empty_inputs(self):
        assert check_prefix_consistency({}) == 0
        assert check_prefix_consistency({"node 0": [], "node 1": []}) == 0

    def test_survives_python_O_semantics(self):
        # The check must not rely on `assert` (stripped under python -O):
        # it raises a real exception type.
        assert issubclass(ConsistencyError, Exception)
        with pytest.raises(ConsistencyError):
            check_prefix_consistency({"a": ["x"], "b": ["y"]})
