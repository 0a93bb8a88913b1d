"""Mempool admission control: budgets, block caps, delivery stamps."""

from dataclasses import fields

import pytest

from repro.common.errors import ConfigurationError
from repro.mempool.admission import (
    REASON_BUSY_BYTES,
    REASON_BUSY_TXS,
    REASON_OVERSIZE,
    AdmissionConfig,
    Mempool,
    txid_of,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_mempool(clock=None, **config) -> Mempool:
    return Mempool(0, config=AdmissionConfig(**config), clock=clock)


class TestConfig:
    def test_defaults_are_valid(self):
        config = AdmissionConfig()
        assert config.max_pending_txs >= config.batch_txs

    @pytest.mark.parametrize(
        "field", ["max_pending_txs", "max_pending_bytes", "max_tx_bytes",
                  "batch_txs", "batch_bytes"],
    )
    def test_non_positive_budget_rejected(self, field):
        with pytest.raises(ConfigurationError, match=field):
            AdmissionConfig(**{field: 0})

    def test_five_fields_and_no_deadline(self):
        assert [f.name for f in fields(AdmissionConfig)] == [
            "max_pending_txs", "max_pending_bytes", "max_tx_bytes",
            "batch_txs", "batch_bytes",
        ]
        with pytest.raises(TypeError):
            AdmissionConfig(batch_deadline=0.05)

    def test_batch_larger_than_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            AdmissionConfig(batch_txs=100, max_pending_txs=10)


class TestAdmission:
    def test_accept_returns_content_addressed_txid(self):
        pool = make_mempool()
        result = pool.submit(b"hello")
        assert result.accepted and result.reason is None
        assert result.txid == txid_of(b"hello")
        assert pool.pending_txs == 1
        assert pool.pending_bytes == 5

    def test_count_budget_rejects_busy(self):
        pool = make_mempool(max_pending_txs=2, batch_txs=2)
        assert pool.submit(b"a").accepted
        assert pool.submit(b"b").accepted
        result = pool.submit(b"c")
        assert not result.accepted
        assert result.reason == REASON_BUSY_TXS
        assert result.busy
        assert pool.pending_txs == 2

    def test_byte_budget_rejects_busy(self):
        pool = make_mempool(max_pending_bytes=10)
        assert pool.submit(b"x" * 8).accepted
        result = pool.submit(b"y" * 8)
        assert not result.accepted
        assert result.reason == REASON_BUSY_BYTES
        assert result.busy

    def test_oversize_is_not_busy(self):
        pool = make_mempool(max_tx_bytes=4)
        result = pool.submit(b"toolarge")
        assert not result.accepted
        assert result.reason == REASON_OVERSIZE
        assert not result.busy
        assert pool.pending_txs == 0

    def test_duplicate_submit_is_idempotent(self):
        pool = make_mempool()
        first = pool.submit(b"tx")
        again = pool.submit(b"tx")
        assert again.accepted and again.reason == "duplicate"
        assert again.txid == first.txid
        assert pool.pending_txs == 1
        assert pool.submitted_total == 1

    def test_duplicate_suppressed_while_in_flight(self):
        pool = make_mempool(batch_txs=1, max_pending_txs=4)
        pool.submit(b"tx")
        batch = pool.take_batch()
        pool.register_flush(0, batch)
        assert pool.submit(b"tx").reason == "duplicate"
        pool.deliveries(0)
        # After delivery the same bytes are a fresh transaction again.
        assert pool.submit(b"tx").reason is None


class TestBatching:
    def test_takes_whatever_is_pending(self):
        # No trigger and no deadline: the caller is a vertex being created,
        # and it carries what there is, be it one transaction.
        pool = make_mempool(batch_txs=4)
        assert pool.take_batch() == []
        pool.submit(b"lonely")
        assert [tx.data for tx in pool.take_batch()] == [b"lonely"]
        assert pool.pending_txs == 0 and pool.pending_bytes == 0

    def test_count_trigger(self):
        pool = make_mempool(batch_txs=2)
        pool.submit(b"a")
        pool.submit(b"b")
        pool.submit(b"c")
        batch = pool.take_batch()
        assert [tx.data for tx in batch] == [b"a", b"b"]
        assert pool.pending_txs == 1

    def test_byte_trigger(self):
        pool = make_mempool(batch_bytes=10, batch_txs=64)
        for data in (b"a" * 4, b"b" * 4, b"c" * 4, b"d" * 12, b"e"):
            pool.submit(data)
        sizes = []
        while batch := pool.take_batch():
            sizes.append([len(tx.data) for tx in batch])
        # Never over the cap, except a lone transaction larger than it.
        assert sizes == [[4, 4], [4], [12], [1]]
        assert pool.pending_bytes == 0

    def test_batch_frees_byte_budget(self):
        pool = make_mempool(max_pending_bytes=10, batch_txs=1)
        pool.submit(b"x" * 8)
        pool.take_batch()
        assert pool.submit(b"y" * 8).accepted


class TestDelivery:
    def test_latency_stamped_from_clock(self):
        clock = FakeClock()
        pool = make_mempool(clock=clock, batch_txs=2)
        pool.submit(b"a")
        clock.now = 1.0
        pool.submit(b"b")
        batch = pool.take_batch()
        pool.register_flush(5, batch)
        clock.now = 3.0
        delivered = pool.deliveries(5)
        assert [tx.latency for tx in delivered] == [3.0, 2.0]
        assert pool.delivered_total == 2
        assert pool.in_flight_txs == 0

    def test_unknown_sequence_acks_nothing(self):
        # The crash-recovery guarantee: batches flushed by a previous
        # incarnation are not in this mempool's map, so they never ack.
        pool = make_mempool()
        assert pool.deliveries(123) == []
        assert pool.delivered_total == 0

    def test_status_counts(self):
        pool = make_mempool(batch_txs=1, max_tx_bytes=4)
        pool.submit(b"ab")
        pool.submit(b"toolarge")
        pool.register_flush(0, pool.take_batch())
        status = pool.status()
        assert status == {
            "pending": 0, "pending_bytes": 0, "in_flight": 1,
            "submitted": 1, "rejected": 1, "delivered": 0,
        }
        pool.deliveries(0)
        assert pool.status() == {
            "pending": 0, "pending_bytes": 0, "in_flight": 0,
            "submitted": 1, "rejected": 1, "delivered": 1,
        }

