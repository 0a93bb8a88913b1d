"""Durable node state: write-ahead log, snapshots, and crash recovery.

DAG-Rider's proofs count a crashed process against the Byzantine budget
``f``; a deployment instead wants correct nodes to *come back*. This
package gives the runtime that: every vertex a node inserts, every vertex
it creates, and every wave it commits is journaled to an append-only
CRC-framed WAL; :class:`repro.dag.store.DagStore` compactions trigger
atomic snapshots that bound replay work, with the delivered log's digests
in an append-only file beside them so a snapshot's size does not grow
with history; and
:func:`repro.storage.journal.recover_node` rebuilds a node's DAG, ordering
position, and delivered-log prefix from disk so it can rejoin via the
catch-up protocol instead of starting from genesis.

The package is intentionally outside the determinism-lint scope
(``repro.lint`` DET002): durable storage is runtime-side and may consult
``time.monotonic`` for replay-duration metrics.
"""
