"""Snapshots stay bounded: they carry in-flight own vertices, not history.

Regression for ``DagBuilder.created`` never being pruned: a snapshot's
``pending`` section was "created vertices not in the store", and a
garbage-collected own vertex is also not in the store — so every snapshot
re-serialised every vertex the node had ever created (linear per snapshot,
quadratic per run) and a restart re-broadcast all of them.

Driven on the simulator with real journals on disk: deterministic, and
100+ compactions take a few seconds.
"""

from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
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
        pid: NodeJournal(str(tmp_path / f"node-{pid}"), pid, fsync="never")
        for pid in range(4)
    }
    history = []  # node 0's snapshots: (pending, in-flight rounds, bytes sans digests)
    write_snapshot = NodeJournal.write_snapshot

    def recording(journal, node):
        write_snapshot(journal, node)
        if journal.pid == 0:
            snapshot = journal.snapshot_state
            # The delivered-log digest prefix grows with the log by design
            # (it is the log); everything else must not.
            body = sum(map(len, snapshot.vertices)) + sum(map(len, snapshot.pending))
            in_flight = snapshot.builder_round - snapshot.floor + 1
            history.append((len(snapshot.pending), in_flight, body))

    monkeypatch.setattr(NodeJournal, "write_snapshot", recording)
    deployment = journaled_deployment(journals)
    assert deployment.run_until_wave(WAVES, max_events=5_000_000)
    for journal in journals.values():
        journal.close()

    assert len(history) >= 100
    for pending, in_flight, _body in history:
        assert pending <= in_flight
    early = max(body for _p, _r, body in history[:10])
    late = max(body for _p, _r, body in history[-10:])
    assert late <= 1.25 * early

    # A restart re-broadcasts what was in flight at the crash, nothing older.
    node = deployment.nodes[0]
    in_flight = node.builder.round - node.store.collected_floor + 1
    restarted = journaled_deployment().nodes[0]
    journal = NodeJournal(str(tmp_path / "node-0"), 0, fsync="never")
    try:
        report = recover_node(restarted, journal)
    finally:
        journal.close()
    assert report.recovered and report.snapshot_loaded
    assert report.rebroadcast <= in_flight
    assert set(restarted.builder.created) <= set(
        range(restarted.store.collected_floor, restarted.builder.round + 1)
    )
