"""Snapshots stay bounded: they carry live state, not history.

Two regressions pinned here, both "linear per snapshot, quadratic per run":

* ``DagBuilder.created`` never being pruned — a snapshot's ``pending``
  section was "created vertices not in the store", and a garbage-collected
  own vertex is also not in the store, so every snapshot re-serialised
  every vertex the node had ever created and a restart re-broadcast them;
* the delivered log's digests living inside ``snapshot.bin`` — every
  snapshot re-hashed and re-wrote every entry delivered since boot. They
  now go to the append-only ``digests.log``, each entry hashed once and
  written once, and each live vertex is encoded once.

Driven on the simulator with real journals on disk: deterministic, and
100+ compactions take a few seconds.
"""

import os
from collections import Counter

from repro.core import node as node_module
from repro.dag.vertex import Vertex
from repro.storage.digests import DIGEST_BYTES
from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
from repro.obs.context import Observability
from repro.storage.journal import NodeJournal, recover_node

GC_DEPTH = 8
WAVES = 120


def journaled_deployment(journals=None):
    config = SystemConfig(n=4, seed=5)
    node_kwargs = {pid: {"gc_depth": GC_DEPTH} for pid in config.processes}
    for pid, journal in (journals or {}).items():
        node_kwargs[pid]["journal"] = journal
    return DagRiderDeployment(config, node_kwargs=node_kwargs)


def test_snapshot_and_rebroadcast_bounded_over_100_compactions(tmp_path, monkeypatch):
    journals = {
        pid: NodeJournal(str(tmp_path / f"node-{pid}"), pid, obs=Observability())
        for pid in range(4)
    }
    snapshot_path = journals[0].snapshot_path
    digests_path = journals[0].digests.path
    # node 0's snapshots: (pending, in-flight rounds, snapshot.bin bytes,
    # digests.log bytes, entries delivered so far)
    history = []
    snapshotted = {}  # pid -> entries delivered at that node's last snapshot
    write_snapshot = NodeJournal.write_snapshot

    def recording(journal, node):
        write_snapshot(journal, node)
        snapshotted[journal.pid] = len(node.ordered)
        if journal.pid == 0:
            snapshot = journal.snapshot_state
            in_flight = snapshot.builder_round - snapshot.floor + 1
            history.append(
                (
                    len(snapshot.pending),
                    in_flight,
                    os.path.getsize(snapshot_path),
                    os.path.getsize(digests_path),
                    len(node.ordered),
                )
            )

    hashed = Counter()  # id(entry) -> times entry_digest ran on it; the
    # nodes' ``ordered`` lists keep every entry alive, so ids are unique
    entry_digest = node_module.entry_digest

    def counting_digest(entry):
        hashed[id(entry)] += 1
        return entry_digest(entry)

    encoded = Counter()  # id(vertex) -> times it was serialised
    kept = []  # pins the vertices so ids stay unique
    encode = Vertex._encode

    def counting_encode(vertex):
        kept.append(vertex)
        encoded[id(vertex)] += 1
        return encode(vertex)

    monkeypatch.setattr(NodeJournal, "write_snapshot", recording)
    monkeypatch.setattr(node_module, "entry_digest", counting_digest)
    monkeypatch.setattr(Vertex, "_encode", counting_encode)
    deployment = journaled_deployment(journals)
    assert deployment.run_until_wave(WAVES, max_events=5_000_000)
    for journal in journals.values():
        journal.close()

    assert len(history) >= 100
    for pending, in_flight, *_ in history:
        assert pending <= in_flight
    # The whole file, no carve-outs: nothing in it grows with the log.
    early = max(size for _p, _r, size, _d, _o in history[:10])
    late = max(size for _p, _r, size, _d, _o in history[-10:])
    assert late <= 1.25 * early

    # Hash once, persist once: every entry a node had delivered by its
    # last snapshot was digested exactly once, and each snapshot appended
    # one fixed-width record per entry delivered since the previous one.
    assert history[-1][4] > 1000
    assert len(hashed) == sum(snapshotted.values())
    assert set(hashed.values()) == {1}
    previous_bytes = previous_entries = 0
    for _p, _r, _size, digest_bytes, entries in history:
        assert digest_bytes - previous_bytes == DIGEST_BYTES * (
            entries - previous_entries
        )
        previous_bytes, previous_entries = digest_bytes, entries

    # Encode once: a vertex goes to the WAL and to every snapshot it
    # survives (about three waves' worth) from one serialisation.
    assert encoded and set(encoded.values()) == {1}

    # A restart re-broadcasts what was in flight at the crash, nothing older.
    node = deployment.nodes[0]
    in_flight = node.builder.round - node.store.collected_floor + 1
    restarted = journaled_deployment().nodes[0]
    journal = NodeJournal(str(tmp_path / "node-0"), 0, obs=Observability())
    try:
        report = recover_node(restarted, journal)
    finally:
        journal.close()
    assert report.recovered and report.snapshot_loaded
    assert report.rebroadcast <= in_flight
    assert set(restarted.builder.created) <= set(
        range(restarted.store.collected_floor, restarted.builder.round + 1)
    )
