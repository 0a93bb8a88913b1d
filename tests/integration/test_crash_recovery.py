"""Durable-state crash recovery, end to end.

Four layers, increasingly real:

* the crash windows of ``digests.log`` — simulator-driven lives over real
  journals, deterministic: a kill between the digest append and the
  snapshot rename, a file shorter than the snapshot counts, a snapshot of
  a retired version, and two restarts in a row;
* replay determinism — a node restarted from its journal rebuilds exactly
  the delivery-log prefix it had already externalized (entry digests cover
  round, source, and block bytes, none of which depend on the clock);
* whole-cluster restart — every node stops mid-run and reboots from its
  state dir inside the same test process (``LocalCluster`` +
  ``state_dirs``), then resumes committing waves;
* the real thing — ``scripts/fabric.py --scenario`` SIGKILLs a runner
  process mid-run, respawns it from ``--state-dir``, and requires the
  cross-host digest prefix check to pass after recovery.
"""

import asyncio
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import StorageError
from repro.core.harness import DagRiderDeployment
from repro.obs.context import Observability
from repro.obs.export import load_trace
from repro.runtime.cluster import LocalCluster
from repro.runtime.consistency import full_digest_log
from repro.runtime.peers import make_peer_table
from repro.runtime.runner import NodeRunner
from repro.storage import journal as journal_module
from repro.storage.digests import DIGEST_BYTES
from repro.storage.journal import NodeJournal, recover_node
from repro.storage.snapshot import load_snapshot

REPO = Path(__file__).resolve().parents[2]
FABRIC = REPO / "scripts" / "fabric.py"


class Killed(Exception):
    """Stands in for SIGKILL: unwinds the simulator mid-snapshot."""


def sim_life(root, wave, journaled=True, recover=False):
    """One life of a simulated 4-node cluster, journaling under ``root``.

    Closing the journals flushes every append, so whatever was appended
    when a life ends — cleanly or by :class:`Killed` — is what the next
    one finds, as after a real kill. A recovering life replays every
    journal and asks its peers for the suffix, as ``NodeRunner.launch``
    does.
    """
    config = SystemConfig(n=4, seed=5)
    journals = {}
    if journaled:
        journals = {
            pid: NodeJournal(str(root / f"node-{pid}"), pid, obs=Observability())
            for pid in config.processes
        }
    deployment = DagRiderDeployment(
        config,
        node_kwargs={
            pid: {"gc_depth": 4, **({"journal": journals[pid]} if journaled else {})}
            for pid in config.processes
        },
    )
    try:
        if recover:
            for node in deployment.nodes:
                assert recover_node(node, journals[node.pid]).recovered
                deployment.scheduler.call_at(0.0, node.request_catchup)
        assert deployment.run_until_wave(wave, max_events=500_000)
    finally:
        for journal in journals.values():
            journal.close()
    return deployment


def recover_alone(root, pid=0):
    """Replay ``pid``'s journal into a fresh, never-started node."""
    journal = NodeJournal(str(root / f"node-{pid}"), pid, obs=Observability())
    node = DagRiderDeployment(
        SystemConfig(n=4, seed=5), node_kwargs={pid: {"gc_depth": 4}}
    ).nodes[pid]
    assert recover_node(node, journal).recovered
    return node, journal


def digest_records(path):
    data = Path(path).read_bytes()
    assert len(data) % DIGEST_BYTES == 0
    return [
        data[i : i + DIGEST_BYTES].hex() for i in range(0, len(data), DIGEST_BYTES)
    ]


class TestDigestLogCrashWindows:
    def test_kill_between_digest_append_and_snapshot_rename(
        self, tmp_path, monkeypatch
    ):
        reference = full_digest_log(sim_life(tmp_path, 8, journaled=False).nodes[0])
        state = tmp_path / "node-0"
        write_snapshot = journal_module.write_snapshot
        written = []

        def dying(path, snapshot):
            if path == str(state / "snapshot.bin"):
                written.append(snapshot)
                if len(written) == 5:
                    raise Killed  # digests.log already holds this snapshot's
            return write_snapshot(path, snapshot)

        monkeypatch.setattr(journal_module, "write_snapshot", dying)
        with pytest.raises(Killed):
            sim_life(tmp_path, 8)
        monkeypatch.undo()

        counted = load_snapshot(str(state / "snapshot.bin")).ordered_count
        assert counted == written[-2].ordered_count
        appended = digest_records(state / "digests.log")
        assert len(appended) == written[-1].ordered_count > counted

        node, journal = recover_alone(tmp_path)
        try:
            # The uncounted tail is cut; the WAL tail re-derives exactly
            # those deliveries, so nothing externalized is lost or changed.
            assert digest_records(state / "digests.log") == appended[:counted]
            log = full_digest_log(node)
            assert log == appended == reference[: len(appended)]
            # ... and the next snapshot appends them again, once.
            journal.write_snapshot(node)
            assert digest_records(state / "digests.log") == log
        finally:
            journal.close()

    @pytest.mark.parametrize(
        "damage",
        ["missing", "one record short", "last record torn"],
    )
    def test_fewer_records_than_the_snapshot_counts_is_an_error(
        self, tmp_path, damage
    ):
        sim_life(tmp_path, 4)
        path = tmp_path / "node-0" / "digests.log"
        counted = load_snapshot(str(tmp_path / "node-0" / "snapshot.bin")).ordered_count
        assert counted > 0 and path.stat().st_size == counted * DIGEST_BYTES
        if damage == "missing":
            path.unlink()
        elif damage == "one record short":
            os.truncate(path, (counted - 1) * DIGEST_BYTES)
        else:
            os.truncate(path, counted * DIGEST_BYTES - 5)
        with pytest.raises(StorageError, match="digests.log"):
            NodeJournal(str(tmp_path / "node-0"), 0, obs=Observability())

    def test_torn_tail_past_the_count_is_cut(self, tmp_path):
        expected = full_digest_log(sim_life(tmp_path, 4).nodes[0])
        path = tmp_path / "node-0" / "digests.log"
        counted = path.stat().st_size // DIGEST_BYTES
        with open(path, "ab") as stream:
            stream.write(b"\xee" * (DIGEST_BYTES + 7))  # a record and a torn one
        node, journal = recover_alone(tmp_path)
        journal.close()
        assert path.stat().st_size == counted * DIGEST_BYTES
        log = full_digest_log(node)
        assert log == expected[: len(log)] and len(log) >= counted

    def test_version_1_snapshot_is_refused(self, tmp_path):
        sim_life(tmp_path, 4)
        path = tmp_path / "node-0" / "snapshot.bin"
        data = bytearray(path.read_bytes())
        struct.pack_into(">I", data, 4, 1)  # header: magic, version, crc
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="unsupported version 1"):
            NodeJournal(str(tmp_path / "node-0"), 0, obs=Observability())

    def test_second_life_appends_after_the_first_lifes_records(self, tmp_path):
        path = tmp_path / "node-0" / "digests.log"
        first = full_digest_log(sim_life(tmp_path, 6).nodes[0])
        first_records = digest_records(path)
        second = full_digest_log(sim_life(tmp_path, 12, recover=True).nodes[0])
        second_records = digest_records(path)
        third = full_digest_log(sim_life(tmp_path, 18, recover=True).nodes[0])
        third_records = digest_records(path)
        # One log across three lives: each life extends the last one's,
        # and the file is always its prefix — no gap, no duplicate.
        assert len(first_records) < len(second_records) < len(third_records)
        assert second[: len(first)] == first and third[: len(second)] == second
        assert first_records == first[: len(first_records)]
        assert second_records == second[: len(second_records)]
        assert third_records == third[: len(third_records)]
        assert len(set(third_records)) == len(third_records)


def run_with_state(peers, state_dirs, target, seed=5, timeout=60.0, gc_depth=None):
    """One LocalCluster run until every node ordered >= target entries."""
    cluster = LocalCluster(
        SystemConfig(n=4, seed=seed),
        peers=peers,
        state_dirs=state_dirs,
        gc_depth=gc_depth,
    )

    async def main():
        return await cluster.run_until(
            lambda: cluster.nodes
            and all(
                len(full_digest_log(node)) >= target for node in cluster.nodes
            ),
            timeout=timeout,
        )

    reached = asyncio.run(main())
    return cluster, reached


class TestClusterRestart:
    def test_restart_preserves_prefix_and_resumes_commits(
        self, free_peers, tmp_path
    ):
        state_dirs = {pid: str(tmp_path / f"state-{pid}") for pid in range(4)}
        peers = free_peers(4)
        first, reached = run_with_state(peers, state_dirs, target=20)
        assert reached
        first.check_total_order()
        before = {
            node.pid: full_digest_log(node) for node in first.nodes
        }
        waves_before = {node.pid: node.decided_wave for node in first.nodes}

        # Same state dirs, fresh ports: every node recovers from disk.
        second, reached = run_with_state(
            free_peers(4), state_dirs, target=max(len(log) for log in before.values()) + 20
        )
        assert reached
        for runner in second.runners:
            assert runner.recovery is not None and runner.recovery.recovered
        for node in second.nodes:
            log = full_digest_log(node)
            prior = before[node.pid]
            # Replay determinism: the externalized prefix is reproduced
            # digest-for-digest, then extended — never rewritten.
            assert log[: len(prior)] == prior
            assert len(log) > len(prior)
            assert node.decided_wave > waves_before[node.pid]
        second.check_total_order()

    def test_recovery_finishes_before_the_data_socket_is_bound(
        self, free_peers, tmp_path
    ):
        """No peer frame can reach a half-restored node: the constructor
        replays the state dir, and only ``bind`` opens the data socket."""
        sim_life(tmp_path, 4)
        peers = free_peers(4)
        table = make_peer_table(peers, SystemConfig(n=4, seed=5), gc_depth=4)

        async def main():
            runner = NodeRunner(
                table,
                0,
                observability=Observability(),
                state_dir=str(tmp_path / "node-0"),
            )
            try:
                assert runner.recovery is not None and runner.recovery.recovered
                with pytest.raises(ConnectionRefusedError):
                    await asyncio.open_connection(*peers[0])
                await runner.bind()
                _, writer = await asyncio.open_connection(*peers[0])
                writer.close()
            finally:
                await runner.close()

        asyncio.run(main())

    def test_recovery_report_counts_replayed_state(self, free_peers, tmp_path):
        state_dirs = {0: str(tmp_path / "state-0")}
        first, reached = run_with_state(free_peers(4), state_dirs, target=12)
        assert reached
        second, reached = run_with_state(free_peers(4), state_dirs, target=24)
        assert reached
        report = second.runners[0].recovery
        assert report is not None and report.recovered
        assert report.snapshot_vertices + report.replayed_vertices > 0
        # The other three nodes had no state dir and started fresh.
        for runner in second.runners[1:]:
            assert runner.recovery is None or not runner.recovery.recovered

    def test_snapshot_written_on_compaction_and_restored(
        self, free_peers, tmp_path
    ):
        state_dirs = {pid: str(tmp_path / f"state-{pid}") for pid in range(4)}
        # gc_depth turns on store compaction, which is what triggers
        # snapshots; run long enough for the collection floor to move.
        first, reached = run_with_state(
            free_peers(4), state_dirs, target=60, gc_depth=4
        )
        assert reached
        snapshots = [runner.journal.snapshots_written for runner in first.runners]
        assert all(count > 0 for count in snapshots)
        before = {node.pid: full_digest_log(node) for node in first.nodes}

        second, reached = run_with_state(
            free_peers(4),
            state_dirs,
            target=max(len(log) for log in before.values()) + 12,
            gc_depth=4,
        )
        assert reached
        for runner in second.runners:
            report = runner.recovery
            assert report is not None and report.recovered
            assert report.snapshot_loaded
            assert report.snapshot_vertices > 0
        for node in second.nodes:
            log = full_digest_log(node)
            prior = before[node.pid]
            # The snapshot carried the digest prefix for entries whose WAL
            # records were truncated away; replay extends, never rewrites.
            assert log[: len(prior)] == prior
        second.check_total_order()


@pytest.fixture(scope="module")
def scenario_run(tmp_path_factory):
    """One SIGKILL + restart scenario run shared by the assertions below."""
    out_dir = tmp_path_factory.mktemp("chaos")
    scenario = {
        "name": "kill-and-rejoin",
        "n": 4,
        "seed": 7,
        "waves": 3,
        "timeout": 90.0,
        "steps": [
            {"kind": "crash", "pid": 1, "at_wave": 1, "signal": "kill",
             "restart_after": 0.5}
        ],
    }
    path = out_dir / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    result = subprocess.run(
        [
            sys.executable,
            str(FABRIC),
            "--scenario",
            str(path),
            "--out-dir",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=str(REPO),
    )
    return out_dir, result


class TestKillMinusNine:
    def test_killed_node_recovers_and_prefix_holds(self, scenario_run):
        out_dir, result = scenario_run
        assert result.returncode == 0, result.stdout + result.stderr
        assert "sent SIGKILL to node 1" in result.stdout
        assert "node 1 recovered" in result.stdout
        assert "post-recovery prefix OK" in result.stdout
        assert "digest-based total order OK across 4 nodes" in result.stdout

    def test_status_reports_the_recovery(self, scenario_run):
        out_dir, result = scenario_run
        assert result.returncode == 0, result.stdout + result.stderr
        status = json.loads((out_dir / "status.json").read_text(encoding="utf-8"))
        assert status["1"]["recovered"] is True
        recovery = status["1"]["recovery"]
        assert recovery["replayed_vertices"] + recovery["snapshot_vertices"] > 0
        for node in status.values():
            assert node["decided_wave"] >= 3

    def test_restarted_node_rejoined_via_catchup(self, scenario_run):
        out_dir, result = scenario_run
        assert result.returncode == 0, result.stdout + result.stderr
        tee = out_dir / "node-1.stream.jsonl"
        trace = load_trace(str(tee))
        # One header per life; the killed life streamed up to the kill.
        assert len(trace.lives) == 2
        lines = [json.loads(line) for line in tee.read_text(encoding="utf-8").splitlines()]
        second = [index for index, line in enumerate(lines) if "meta" in line][1]
        assert "commit" in {line.get("kind") for line in lines[:second]}
        kinds = {event.kind for event in trace.events}
        assert {"wal_replay", "node_recover", "catchup_request"} <= kinds
        # At least one surviving peer served the suffix.
        served = {
            event.kind
            for pid in (0, 2, 3)
            for event in load_trace(str(out_dir / f"node-{pid}.stream.jsonl")).events
        }
        assert "catchup_serve" in served
        # The merge holds both lives, and counts what the tees lack.
        merged = load_trace(str(out_dir / "merged.trace.jsonl"))
        recovered_at = next(
            event.time for event in merged.events
            if (event.kind, event.pid) == ("node_recover", 1)
        )
        assert any(
            event.pid == 1 and event.time < recovered_at for event in merged.events
        )
        tees = [load_trace(str(out_dir / f"node-{pid}.stream.jsonl")) for pid in range(4)]
        assert merged.meta["dropped_events"] == sum(
            life.missing for tee in tees for life in tee.lives
        )