"""Storage layer: WAL framing/recovery edge cases and snapshot atomicity."""

import os

import pytest

from repro.common.errors import ConfigurationError, StorageError
from repro.storage.snapshot import Snapshot, load_snapshot, write_snapshot
from repro.storage.wal import (
    WAL_COMMIT,
    WAL_CREATED,
    WAL_VERTEX,
    WriteAheadLog,
    read_wal,
)


def open_wal(path, **kwargs):
    wal, records = WriteAheadLog.open(str(path), **kwargs)
    return wal, records


class TestWalRoundTrip:
    def test_append_reopen_reads_back_in_order(self, tmp_path):
        path = tmp_path / "wal.log"
        wal, records = open_wal(path)
        assert records == []
        wal.append(WAL_VERTEX, b"v1")
        wal.append(WAL_COMMIT, b"c1")
        wal.append(WAL_CREATED, b"own")
        wal.close()
        _wal, records = open_wal(path)
        assert [(r.seq, r.kind, r.payload) for r in records] == [
            (1, WAL_VERTEX, b"v1"),
            (2, WAL_COMMIT, b"c1"),
            (3, WAL_CREATED, b"own"),
        ]

    def test_missing_file_reads_empty(self, tmp_path):
        records, good = read_wal(str(tmp_path / "absent.log"))
        assert records == [] and good == 0

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"")
        records, good = read_wal(str(path))
        assert records == [] and good == 0

    def test_unknown_kind_rejected_on_append(self, tmp_path):
        wal, _ = open_wal(tmp_path / "wal.log")
        with pytest.raises(ConfigurationError):
            wal.append(99, b"?")
        wal.close()
        with pytest.raises(ConfigurationError):
            wal.append(WAL_VERTEX, b"closed")


class TestWalCorruptionTolerance:
    def test_torn_final_record_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        wal, _ = open_wal(path)
        wal.append(WAL_VERTEX, b"keep-me")
        wal.append(WAL_VERTEX, b"torn-away")
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # crash mid-append of the last record

        wal, records = open_wal(path)
        assert [r.payload for r in records] == [b"keep-me"]
        # The opener truncated the torn bytes; appends resume cleanly and
        # the sequence number does not reuse the torn record's slot value.
        seq = wal.append(WAL_VERTEX, b"after-crash")
        wal.close()
        assert seq == 2
        _wal, records = open_wal(path)
        assert [r.payload for r in records] == [b"keep-me", b"after-crash"]

    def test_crc_corruption_drops_record_and_everything_after(self, tmp_path):
        path = tmp_path / "wal.log"
        wal, _ = open_wal(path)
        wal.append(WAL_VERTEX, b"good")
        wal.sync()  # flush so the file size marks record 2's start
        second_start = path.stat().st_size
        wal.append(WAL_VERTEX, b"rotten")
        wal.append(WAL_VERTEX, b"after-the-rot")
        wal.close()
        data = bytearray(path.read_bytes())
        data[second_start + 12] ^= 0xFF  # flip a payload byte of record 2
        path.write_bytes(bytes(data))
        records, good = read_wal(str(path))
        assert [r.payload for r in records] == [b"good"]
        assert good == second_start

    def test_truncated_header_stops_reading(self, tmp_path):
        path = tmp_path / "wal.log"
        wal, _ = open_wal(path)
        wal.append(WAL_COMMIT, b"c")
        wal.close()
        good_size = path.stat().st_size
        with open(path, "ab") as stream:
            stream.write(b"\x00\x00\x00")  # not even a full header
        records, good = read_wal(str(path))
        assert len(records) == 1
        assert good == good_size


class TestWalSequencing:
    def test_seq_survives_truncate(self, tmp_path):
        path = tmp_path / "wal.log"
        wal, _ = open_wal(path)
        wal.append(WAL_VERTEX, b"a")
        wal.append(WAL_VERTEX, b"b")
        wal.truncate()  # a snapshot captured both records
        seq = wal.append(WAL_VERTEX, b"c")
        wal.close()
        # Monotonic through the truncation: this is what lets replay skip
        # records a snapshot already covers by comparing sequence numbers.
        assert seq == 3
        _wal, records = open_wal(path)
        assert [(r.seq, r.payload) for r in records] == [(3, b"c")]

    def test_start_seq_floor_applies_when_log_is_behind(self, tmp_path):
        # Snapshot-newer-than-log: the snapshot covered up to seq 10, then
        # the crash hit after the WAL truncation — the empty log must not
        # restart numbering below the snapshot's floor.
        wal, records = open_wal(tmp_path / "wal.log", start_seq=10)
        assert records == []
        assert wal.append(WAL_VERTEX, b"x") == 11
        wal.close()


class TestWalSyncRule:
    def test_created_and_commit_appends_sync_once_and_vertex_appends_never(
        self, tmp_path
    ):
        wal, _ = open_wal(tmp_path / "wal.log")
        synced = []
        for kind in (WAL_VERTEX, WAL_CREATED, WAL_VERTEX, WAL_COMMIT):
            before = wal.synced
            wal.append(kind, b"x")
            synced.append(wal.synced - before)
        assert synced == [0, 1, 0, 1]
        wal.close()


class TestSnapshot:
    def snapshot(self):
        return Snapshot(
            last_wal_seq=17,
            floor=4,
            decided_wave=3,
            builder_round=14,
            block_sequence=9,
            vertices=(b"vertex-a", b"vertex-b"),
            delivered=((0, 5), (2, 6)),
            pending=(b"mine",),
            ordered_count=2,
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "snapshot.bin")
        write_snapshot(path, self.snapshot())
        assert load_snapshot(path) == self.snapshot()

    def test_missing_file_is_none(self, tmp_path):
        assert load_snapshot(str(tmp_path / "absent.bin")) is None

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "snapshot.bin"
        write_snapshot(str(path), self.snapshot())
        assert not os.path.exists(str(path) + ".tmp")
        # Overwrite is atomic too: readers see old or new, never a hybrid.
        write_snapshot(str(path), self.snapshot())
        assert load_snapshot(str(path)) == self.snapshot()

    def test_corrupt_body_raises(self, tmp_path):
        path = tmp_path / "snapshot.bin"
        write_snapshot(str(path), self.snapshot())
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            load_snapshot(str(path))

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "snapshot.bin"
        write_snapshot(str(path), self.snapshot())
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            load_snapshot(str(path))

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "snapshot.bin"
        path.write_bytes(b"RD")
        with pytest.raises(StorageError):
            load_snapshot(str(path))
