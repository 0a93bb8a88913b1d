"""CRC-framed append-only write-ahead log for one node's DAG state.

Record layout on disk::

    u32 body length | u32 crc32(body) | body
    body = u64 seq | u8 kind | payload

``seq`` is monotonic across the WAL's whole lifetime — it keeps counting
through snapshot truncations, which is what makes the snapshot/WAL overlap
window safe: a crash between snapshot write and WAL truncation leaves
records whose ``seq`` the snapshot already covers, and replay skips them.

Three record kinds:

* ``WAL_VERTEX`` — a vertex entered the local DAG (payload: canonical
  vertex bytes);
* ``WAL_CREATED`` — this node created a vertex and is about to broadcast
  it (fsynced *before* the broadcast, so a restarted node re-broadcasts
  the identical bytes instead of equivocating);
* ``WAL_COMMIT`` — a wave committed (payload: wave number plus the leader
  chain in delivery order), enough to replay ``order_vertices``
  deterministically.

One fsync rule: a ``CREATED`` or ``COMMIT`` append fsyncs, a ``VERTEX``
append does not (a vertex lost in a crash is re-fetched by catch-up).

Tail recovery is corruption-tolerant: reading stops at the first record
whose header is truncated, whose CRC mismatches, or whose body is short,
and the opener truncates the file back to the last good byte — a torn
final append (the expected crash artifact) costs at most that one record,
which the catch-up protocol re-fetches anyway.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

from repro.common.errors import ConfigurationError

#: ``u32 body length | u32 crc32`` framing every record.
RECORD_HEADER = struct.Struct(">II")

#: ``u64 seq | u8 kind`` leading every record body.
BODY_PREFIX = struct.Struct(">QB")

#: Record kinds.
WAL_VERTEX = 1
WAL_CREATED = 2
WAL_COMMIT = 3

_KINDS = frozenset({WAL_VERTEX, WAL_CREATED, WAL_COMMIT})

#: Records that carry irreversible protocol promises, fsynced on append (a
#: CREATED record must hit disk before the vertex is broadcast, a COMMIT
#: record pins the delivered prefix).
_DURABLE_KINDS = frozenset({WAL_CREATED, WAL_COMMIT})


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record."""

    seq: int
    kind: int
    payload: bytes


def _encode_record(seq: int, kind: int, payload: bytes) -> bytes:
    body = BODY_PREFIX.pack(seq, kind) + payload
    return RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body


def read_wal(path: str) -> tuple[list[WalRecord], int]:
    """Read records tolerantly; returns ``(records, good_length)``.

    ``good_length`` is the byte offset just past the last intact record —
    everything after it (torn append, bit rot) should be truncated away
    before appending resumes. A missing file reads as empty.
    """
    try:
        with open(path, "rb") as stream:
            data = stream.read()
    except FileNotFoundError:
        return [], 0
    records: list[WalRecord] = []
    offset = 0
    while offset + RECORD_HEADER.size <= len(data):
        length, crc = RECORD_HEADER.unpack_from(data, offset)
        body_start = offset + RECORD_HEADER.size
        body = data[body_start : body_start + length]
        if len(body) != length or length < BODY_PREFIX.size:
            break  # torn final record
        if zlib.crc32(body) != crc:
            break  # corrupt record: drop it and everything after
        seq, kind = BODY_PREFIX.unpack_from(body, 0)
        if kind not in _KINDS:
            break
        records.append(WalRecord(seq, kind, bytes(body[BODY_PREFIX.size :])))
        offset = body_start + length
    return records, offset


class WriteAheadLog:
    """Append side of one node's WAL; durable kinds are fsynced on append.

    Opening recovers the existing file first: intact records are returned
    by :meth:`open`, the corrupt tail (if any) is truncated, and appends
    continue with the next sequence number after the highest recovered
    (or ``start_seq`` when the caller knows a higher floor, e.g. from a
    snapshot written just before the last crash).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.appended = 0
        self.synced = 0
        self._next_seq = 1
        self._stream = None

    @classmethod
    def open(
        cls, path: str, start_seq: int = 0
    ) -> tuple["WriteAheadLog", list[WalRecord]]:
        """Recover ``path`` and position it for appending."""
        wal = cls(path)
        records, good_length = read_wal(path)
        stream = open(path, "ab")
        if stream.tell() > good_length:
            stream.truncate(good_length)
        wal._stream = stream
        highest = records[-1].seq if records else 0
        wal._next_seq = max(highest, start_seq) + 1
        return wal, records

    @property
    def next_seq(self) -> int:
        """Sequence number the next append will carry."""
        return self._next_seq

    def append(self, kind: int, payload: bytes) -> int:
        """Append one record (fsynced if its kind is durable); returns its
        sequence number."""
        if self._stream is None:
            raise ConfigurationError("WAL is closed")
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown WAL record kind {kind}")
        seq = self._next_seq
        self._next_seq += 1
        self._stream.write(_encode_record(seq, kind, payload))
        self.appended += 1
        if kind in _DURABLE_KINDS:
            self.sync()
        return seq

    def sync(self) -> None:
        """Flush buffered records to the OS and fsync the file."""
        if self._stream is None:
            return
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self.synced += 1

    def truncate(self) -> None:
        """Drop every record (after a snapshot captured them); keeps seq."""
        if self._stream is None:
            raise ConfigurationError("WAL is closed")
        self._stream.truncate(0)
        self._stream.seek(0)
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def close(self) -> None:
        """Flush and close; idempotent."""
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.flush()
            os.fsync(stream.fileno())
            stream.close()
