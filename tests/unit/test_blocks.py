"""Block codec and the blocksToPropose queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import WireFormatError
from repro.mempool.blocks import Block, BlockSource, TransactionGenerator


class TestBlockCodec:
    def test_roundtrip(self):
        block = Block(2, 7, (b"tx1", b"tx2"))
        decoded, offset = Block.from_bytes(block.to_bytes())
        assert decoded == block
        assert offset == len(block.to_bytes())

    def test_empty_block(self):
        block = Block(0, 0)
        decoded, _ = Block.from_bytes(block.to_bytes())
        assert decoded == block
        assert len(decoded) == 0

    def test_truncated_rejected(self):
        data = Block(1, 1, (b"abcdef",)).to_bytes()
        with pytest.raises(WireFormatError):
            Block.from_bytes(data[:-2])

    def test_offset_decoding(self):
        a = Block(1, 1, (b"a",))
        b = Block(2, 2, (b"bb",))
        data = a.to_bytes() + b.to_bytes()
        first, offset = Block.from_bytes(data)
        second, end = Block.from_bytes(data, offset)
        assert (first, second) == (a, b)
        assert end == len(data)

    @given(
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=2**63),
        st.lists(st.binary(max_size=40), max_size=8),
    )
    def test_roundtrip_property(self, proposer, sequence, txs):
        block = Block(proposer, sequence, tuple(txs))
        decoded, _ = Block.from_bytes(block.to_bytes())
        assert decoded == block

    def test_digest_stable_and_distinct(self):
        a = Block(1, 1, (b"x",))
        assert a.digest == Block(1, 1, (b"x",)).digest
        assert a.digest != Block(1, 1, (b"y",)).digest


class TestTransactionGenerator:
    def test_unique_and_sized(self):
        gen = TransactionGenerator(seed=1, proposer=2, tx_bytes=64)
        txs = [gen.next_transaction() for _ in range(100)]
        assert len(set(txs)) == 100
        assert all(len(tx) == 64 for tx in txs)

    def test_deterministic(self):
        a = TransactionGenerator(seed=1, proposer=2)
        b = TransactionGenerator(seed=1, proposer=2)
        assert a.next_transaction() == b.next_transaction()

    def test_proposers_independent(self):
        a = TransactionGenerator(seed=1, proposer=0)
        b = TransactionGenerator(seed=1, proposer=1)
        assert a.next_transaction() != b.next_transaction()

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            TransactionGenerator(seed=1, proposer=0, tx_bytes=0)


class TestBlockSource:
    def test_explicit_blocks_first(self):
        source = BlockSource(0, TransactionGenerator(1, 0), batch_size=2)
        explicit = source.enqueue_transactions(b"urgent")
        first = source.dequeue()
        assert first == explicit
        generated = source.dequeue()
        assert len(generated) == 2

    def test_generator_never_exhausts(self):
        source = BlockSource(0, TransactionGenerator(1, 0))
        assert not source.empty
        for _ in range(50):
            assert source.dequeue() is not None

    def test_without_generator_stalls(self):
        source = BlockSource(0)
        assert source.empty
        assert source.dequeue() is None
        source.enqueue_transactions(b"tx")
        assert not source.empty
        assert source.dequeue() is not None
        assert source.dequeue() is None

    def test_sequences_increase(self):
        source = BlockSource(0, TransactionGenerator(1, 0))
        seqs = [source.dequeue().sequence for _ in range(5)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_producer_sits_between_the_queue_and_the_generator(self):
        source = BlockSource(0, TransactionGenerator(1, 0), batch_size=2)
        pending = [(b"client-1",), (b"client-2", b"client-3")]
        asked = []

        def producer(sequence):
            asked.append(sequence)
            return pending.pop(0) if pending else ()

        source.producer = producer
        explicit = source.enqueue_transactions(b"urgent")
        blocks = [source.dequeue() for _ in range(4)]
        assert blocks[0] == explicit  # the queue first; the producer not asked
        assert [block.transactions for block in blocks[1:3]] == [
            (b"client-1",), (b"client-2", b"client-3"),
        ]
        assert len(blocks[3]) == 2  # nothing pending: the generator mints
        # The source owns the numbering: the producer is told the sequence
        # its block will take, and an empty answer consumes none.
        assert asked == [2, 3, 4]
        assert [block.sequence for block in blocks] == [1, 2, 3, 4]

    def test_empty_producer_without_generator_stalls(self):
        source = BlockSource(0)
        source.producer = lambda sequence: ()
        assert source.dequeue() is None
        assert source.sequence == 0

    def test_drain_scales_linearly(self):
        # Regression guard for the O(n) list.pop(0) dequeue: draining a
        # deep explicit queue must cost O(1) per block. With the old
        # quadratic behavior the large drain shuffles ~200M list slots
        # and blows far past the absolute bound; with deque.popleft it
        # finishes in milliseconds.
        import time

        def drain_seconds(count):
            source = BlockSource(0)
            for index in range(count):
                source.enqueue_transactions(b"%d" % index)
            start = time.perf_counter()
            while source.dequeue() is not None:
                pass
            return time.perf_counter() - start

        small = drain_seconds(2_000)
        large = drain_seconds(20_000)
        assert large < max(40 * small, 0.5)
