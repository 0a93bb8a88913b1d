"""Atomic binary snapshots of one node's recoverable state.

A snapshot captures everything replay would otherwise reconstruct from the
WAL's full history, so the WAL can be truncated after each one:

* the :class:`repro.dag.store.DagStore` content — collection floor plus
  every surviving vertex in (round, source) order (insertable as-is,
  since that order never references a later vertex);
* the ordering layer's position — decided wave and the refs of delivered
  vertices still in the store (bit indices are *not* portable across
  restarts, refs are);
* ``ordered_count`` — how many entries the node had delivered. Commits
  already snapshotted cannot be replayed once their WAL records are gone,
  so their entry digests live in the append-only ``digests.log``
  (:mod:`repro.storage.digests`); the snapshot only says how many of its
  records it vouches for, which keeps its size independent of history;
* the builder's round, any created-but-not-yet-self-delivered vertices
  (re-broadcast byte-identically on recovery), and the block-source
  sequence number;
* ``last_wal_seq`` — replay skips WAL records at or below it, which makes
  a crash between snapshot write and WAL truncation harmless.

Writes are crash-atomic: encode to ``<path>.tmp``, fsync, ``os.replace``.
A reader therefore sees either the previous snapshot or the new one,
never a torn hybrid; integrity is belt-and-braces checked with a CRC over
the encoded body.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

from repro.codec.primitives import Reader, encode_bytes, encode_uint
from repro.common.errors import StorageError, WireFormatError

MAGIC = b"RDSN"
VERSION = 2

_HEADER = struct.Struct(">4sII")  # magic, version, crc32(body)


@dataclass(frozen=True)
class Snapshot:
    """One node's durable state at a snapshot point."""

    last_wal_seq: int
    floor: int
    decided_wave: int
    builder_round: int
    block_sequence: int
    vertices: tuple[bytes, ...] = ()
    delivered: tuple[tuple[int, int], ...] = ()  # (source, round) refs
    pending: tuple[bytes, ...] = ()  # created, not yet self-delivered
    ordered_count: int = 0  # leading ``digests.log`` records this covers


def _encode_body(snapshot: Snapshot) -> bytes:
    parts = [
        encode_uint(snapshot.last_wal_seq, 8),
        encode_uint(snapshot.floor, 8),
        encode_uint(snapshot.decided_wave, 8),
        encode_uint(snapshot.builder_round, 8),
        encode_uint(snapshot.block_sequence, 8),
        encode_uint(snapshot.ordered_count, 8),
        encode_uint(len(snapshot.vertices), 4),
    ]
    parts.extend(encode_bytes(vertex) for vertex in snapshot.vertices)
    parts.append(encode_uint(len(snapshot.delivered), 4))
    for source, round_ in snapshot.delivered:
        parts.append(encode_uint(source, 2) + encode_uint(round_, 8))
    parts.append(encode_uint(len(snapshot.pending), 4))
    parts.extend(encode_bytes(vertex) for vertex in snapshot.pending)
    return b"".join(parts)


def _decode_body(body: bytes) -> Snapshot:
    reader = Reader(body)
    last_wal_seq = reader.uint(8)
    floor = reader.uint(8)
    decided_wave = reader.uint(8)
    builder_round = reader.uint(8)
    block_sequence = reader.uint(8)
    ordered_count = reader.uint(8)
    vertices = tuple(reader.bytes_() for _ in range(reader.uint(4)))
    delivered = tuple(
        (reader.uint(2), reader.uint(8)) for _ in range(reader.uint(4))
    )
    pending = tuple(reader.bytes_() for _ in range(reader.uint(4)))
    reader.expect_end()
    return Snapshot(
        last_wal_seq=last_wal_seq,
        floor=floor,
        decided_wave=decided_wave,
        builder_round=builder_round,
        block_sequence=block_sequence,
        vertices=vertices,
        delivered=delivered,
        pending=pending,
        ordered_count=ordered_count,
    )


def write_snapshot(path: str, snapshot: Snapshot) -> int:
    """Atomically persist ``snapshot``; returns the bytes written."""
    body = _encode_body(snapshot)
    data = _HEADER.pack(MAGIC, VERSION, zlib.crc32(body)) + body
    tmp = path + ".tmp"
    with open(tmp, "wb") as stream:
        stream.write(data)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)
    return len(data)


def load_snapshot(path: str) -> Snapshot | None:
    """Load a snapshot; None when the file does not exist.

    Raises:
        StorageError: On a snapshot that fails its integrity check — the
            atomic write protocol should make this impossible, so damage
            here means the state dir itself is unhealthy and silently
            starting from genesis would hide it.
    """
    try:
        with open(path, "rb") as stream:
            data = stream.read()
    except FileNotFoundError:
        return None
    if len(data) < _HEADER.size:
        raise StorageError(f"snapshot {path} truncated ({len(data)} bytes)")
    magic, version, crc = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise StorageError(f"snapshot {path} has bad magic {magic!r}")
    if version != VERSION:
        raise StorageError(f"snapshot {path} has unsupported version {version}")
    body = data[_HEADER.size :]
    if zlib.crc32(body) != crc:
        raise StorageError(f"snapshot {path} failed its CRC check")
    try:
        return _decode_body(body)
    except WireFormatError as exc:
        raise StorageError(f"snapshot {path} undecodable: {exc}") from exc
