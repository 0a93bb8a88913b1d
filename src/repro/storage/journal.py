"""One node's journal (WAL + snapshots) and the crash-recovery replay.

:class:`NodeJournal` owns a state directory holding ``wal.log``,
``snapshot.bin`` and ``digests.log``. The node calls three hooks on the
hot path — :meth:`NodeJournal.record_vertex` when a vertex enters the DAG,
:meth:`NodeJournal.record_created` just *before* broadcasting its own
vertex (fsynced, so a restart can never broadcast different bytes for a
round it already used — the crash-equivocation hazard), and
:meth:`NodeJournal.record_commit` after each wave commit — plus
:meth:`NodeJournal.write_snapshot` whenever the store compacts.

:func:`recover_node` replays the journal into a freshly constructed
:class:`repro.core.node.DagRiderNode` *before* the protocol starts:

1. snapshot (if any): set the store's collection floor, insert the
   surviving vertices in (round, source) order, restore the ordering
   layer's decided wave + delivered set via refs, the builder's round,
   the block-source sequence, and the delivered-log digest prefix (the
   first ``ordered_count`` records of ``digests.log``);
2. WAL tail (records with ``seq > snapshot.last_wal_seq``), in order:
   vertices re-enter through ``can_add``/``add`` (also re-extracting any
   piggybacked coin shares), created vertices restore the builder's round
   and pend for re-broadcast, commits re-run ``order_vertices`` — which
   re-delivers the exact same entries because entry digests cover
   (round, source, block) and none of those depend on the clock;
3. :meth:`repro.core.node.DagRiderNode.finish_recovery`: re-signal wave
   boundaries above the decided wave (commits that happened in the
   crash window between delivery and the WAL append are re-derived from
   the restored DAG — support only grows, so re-evaluating is safe) and
   re-broadcast created-but-undelivered vertices byte-identically
   (reliable-broadcast deduplication converges).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.codec.primitives import Reader, encode_uint
from repro.common.errors import StorageError, WireFormatError
from repro.dag.vertex import Ref, Vertex
from repro.obs.context import Observability
from repro.storage.digests import DigestLog
from repro.storage.snapshot import Snapshot, load_snapshot, write_snapshot
from repro.storage.wal import (
    WAL_COMMIT,
    WAL_CREATED,
    WAL_VERTEX,
    WalRecord,
    WriteAheadLog,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.node import DagRiderNode

_KIND_NAMES = {WAL_VERTEX: "vertex", WAL_CREATED: "created", WAL_COMMIT: "commit"}


def encode_commit(wave: int, leader_refs: Sequence[Ref]) -> bytes:
    """COMMIT payload: wave plus the leader chain in delivery order."""
    parts = [encode_uint(wave, 8), encode_uint(len(leader_refs), 4)]
    for ref in leader_refs:
        parts.append(encode_uint(ref.source, 2) + encode_uint(ref.round, 8))
    return b"".join(parts)


def decode_commit(payload: bytes) -> tuple[int, list[Ref]]:
    reader = Reader(payload)
    wave = reader.uint(8)
    refs = [Ref(reader.uint(2), reader.uint(8)) for _ in range(reader.uint(4))]
    reader.expect_end()
    return wave, refs


class NodeJournal:
    """Durable-state sidecar for one node:
    ``<state_dir>/{wal.log,snapshot.bin,digests.log}``."""

    def __init__(
        self,
        state_dir: str,
        pid: int = 0,
        *,
        obs: Observability,
    ) -> None:
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.pid = pid
        self.obs = obs
        self.snapshot_path = os.path.join(state_dir, "snapshot.bin")
        self.wal_path = os.path.join(state_dir, "wal.log")
        self.snapshot_state: Snapshot | None = load_snapshot(self.snapshot_path)
        snapshot = self.snapshot_state
        covered = snapshot.last_wal_seq if snapshot is not None else 0
        #: Digests of the entries the snapshot counts as delivered; handed
        #: to the node by :func:`recover_node`.
        self.digests, self.restored_digests = DigestLog.open(
            os.path.join(state_dir, "digests.log"),
            snapshot.ordered_count if snapshot is not None else 0,
        )
        self.wal, records = WriteAheadLog.open(self.wal_path, start_seq=covered)
        #: WAL records the snapshot does not already cover, replay input.
        self.tail_records: list[WalRecord] = [
            record for record in records if record.seq > covered
        ]
        self.skipped_records = len(records) - len(self.tail_records)
        self.snapshots_written = 0

    @property
    def has_state(self) -> bool:
        """True when there is anything to recover from."""
        return self.snapshot_state is not None or bool(self.tail_records)

    # ------------------------------------------------------------ hot hooks

    def _emit_append(self, kind: int, seq: int, round_: int) -> None:
        # Field named ``record`` (not ``kind``): the event bus already
        # uses ``kind`` for the event name itself.
        self.obs.emit(
            self.pid, "wal_append", record=_KIND_NAMES[kind], seq=seq, round=round_
        )

    def record_vertex(self, vertex: Vertex) -> None:
        """Journal a vertex that just entered the local DAG."""
        seq = self.wal.append(WAL_VERTEX, vertex.to_bytes())
        self._emit_append(WAL_VERTEX, seq, vertex.round)

    def record_created(self, vertex: Vertex) -> None:
        """Journal this node's own vertex; durable before it is broadcast."""
        seq = self.wal.append(WAL_CREATED, vertex.to_bytes())
        self._emit_append(WAL_CREATED, seq, vertex.round)

    def record_commit(self, wave: int, leader_refs: Sequence[Ref]) -> None:
        """Journal a committed wave with its leader chain (delivery order)."""
        seq = self.wal.append(WAL_COMMIT, encode_commit(wave, leader_refs))
        self._emit_append(WAL_COMMIT, seq, wave)

    def write_snapshot(self, node: "DagRiderNode") -> None:
        """Snapshot the node's recoverable state and truncate the WAL.

        Write order: the digests delivered since the previous snapshot are
        appended to ``digests.log`` and fsynced, then the snapshot that
        counts them is written (tmp, fsync, rename), then the WAL is cut.
        A crash after the append leaves extra digest records the next open
        drops; the WAL tail re-delivers those entries.
        """
        store = node.store
        log = node.digest_log()
        self.digests.append(log[self.digests.count :])
        delivered = tuple(
            (ref.source, ref.round)
            for ref in node.ordering.delivered_refs()
            if ref.round >= 1
        )
        snapshot = Snapshot(
            last_wal_seq=self.wal.next_seq - 1,
            floor=store.collected_floor,
            decided_wave=node.ordering.decided_wave,
            builder_round=node.builder.round,
            block_sequence=node.block_source.sequence,
            vertices=tuple(
                vertex.to_bytes() for vertex in store.vertices() if vertex.round >= 1
            ),
            delivered=delivered,
            pending=tuple(
                vertex.to_bytes() for vertex in node.builder.created.values()
            ),
            ordered_count=len(log),
        )
        size = write_snapshot(self.snapshot_path, snapshot)
        self.wal.truncate()
        self.snapshot_state = snapshot
        self.snapshots_written += 1
        self.obs.emit(
            self.pid,
            "snapshot_written",
            floor=snapshot.floor,
            vertices=len(snapshot.vertices),
            bytes=size,
            last_wal_seq=snapshot.last_wal_seq,
        )

    def close(self) -> None:
        self.wal.close()
        self.digests.close()


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover_node` rebuilt from disk."""

    recovered: bool
    snapshot_loaded: bool
    snapshot_vertices: int
    replayed_vertices: int
    replayed_commits: int
    replayed_created: int
    rebroadcast: int
    duration: float

    def as_dict(self) -> dict[str, object]:
        return {
            "recovered": self.recovered,
            "snapshot_loaded": self.snapshot_loaded,
            "snapshot_vertices": self.snapshot_vertices,
            "replayed_vertices": self.replayed_vertices,
            "replayed_commits": self.replayed_commits,
            "replayed_created": self.replayed_created,
            "rebroadcast": self.rebroadcast,
            "duration": round(self.duration, 6),
        }


def recover_node(node: "DagRiderNode", journal: NodeJournal) -> RecoveryReport:
    """Replay ``journal`` into a freshly built, not-yet-started node."""
    start = time.monotonic()
    if not journal.has_state:
        return RecoveryReport(False, False, 0, 0, 0, 0, 0, time.monotonic() - start)

    store = node.store
    builder = node.builder
    created: list[Vertex] = []
    snapshot = journal.snapshot_state
    snapshot_vertices = 0
    if snapshot is not None:
        if snapshot.floor > 0:
            # Fresh store: drop genesis and set the collection floor first,
            # then (round, source)-ordered inserts always see their parents.
            store.compact(snapshot.floor, [])
        for data in snapshot.vertices:
            vertex = _decode_vertex(data, journal, "snapshot")
            if not store.contains(vertex.ref):
                store.add(vertex)
                snapshot_vertices += 1
        node.ordering.restore(
            snapshot.decided_wave,
            [Ref(source, round_) for source, round_ in snapshot.delivered],
        )
        builder.round = max(builder.round, snapshot.builder_round)
        node.block_source.restore_sequence(snapshot.block_sequence)
        node.restore_digest_log(journal.restored_digests)
        created.extend(
            _decode_vertex(data, journal, "snapshot") for data in snapshot.pending
        )

    replayed_vertices = 0
    replayed_commits = 0
    for record in journal.tail_records:
        if record.kind == WAL_VERTEX:
            vertex = _decode_vertex(record.payload, journal, f"record {record.seq}")
            if not store.contains(vertex.ref) and store.can_add(vertex):
                store.add(vertex)
                node.absorb_replayed_vertex(vertex)
                replayed_vertices += 1
        elif record.kind == WAL_CREATED:
            vertex = _decode_vertex(record.payload, journal, f"record {record.seq}")
            created.append(vertex)
            builder.round = max(builder.round, vertex.round)
            node.block_source.restore_sequence(vertex.block.sequence)
        elif record.kind == WAL_COMMIT:
            try:
                wave, refs = decode_commit(record.payload)
            except WireFormatError as exc:
                raise StorageError(
                    f"{journal.wal_path}: undecodable commit record "
                    f"{record.seq}: {exc}"
                ) from exc
            node.ordering.replay_commit(wave, refs)
            replayed_commits += 1
        else:
            # A kind the journal writes but this loop does not replay would
            # otherwise be skipped silently; fail the recovery instead.
            raise StorageError(
                f"{journal.wal_path}: record {record.seq} has kind "
                f"{record.kind}, which recovery does not replay"
            )

    builder.restore_created(created)
    rebroadcast = node.finish_recovery()
    duration = time.monotonic() - start
    report = RecoveryReport(
        recovered=True,
        snapshot_loaded=snapshot is not None,
        snapshot_vertices=snapshot_vertices,
        replayed_vertices=replayed_vertices,
        replayed_commits=replayed_commits,
        replayed_created=len(created),
        rebroadcast=rebroadcast,
        duration=duration,
    )
    obs = journal.obs
    obs.emit(journal.pid, "wal_replay", **report.as_dict())
    obs.emit(
        journal.pid,
        "node_recover",
        decided_wave=node.ordering.decided_wave,
        round=builder.round,
        ordered=node.delivered_count,
    )
    return report


def _decode_vertex(data: bytes, journal: NodeJournal, where: str) -> Vertex:
    try:
        return Vertex.from_bytes(data)
    except WireFormatError as exc:
        raise StorageError(
            f"{journal.state_dir}: undecodable vertex in {where}: {exc}"
        ) from exc
