"""Multi-process cluster smoke: ``scripts/fabric.py`` end to end.

Unlike the in-loop ``LocalCluster`` tests, every node here is a separate OS
process booted from the same on-disk peer table — the deployment shape the
multi-host runner targets. The fabric driver allocates ports, spawns the
runners, polls their control sockets, runs the digest-based total-order
check across process boundaries, and merges the per-host traces. The live
telemetry plane rides along: per-node ``subscribe`` streams feed the plain
(non-TTY) progress view and are teed to ``node-<pid>.stream.jsonl`` (each
host's trace, which the merge reads), the merged trace feeds ``python -m repro.obs causal``, and a partitioned
quorum trips the stall detector into a dump cut from those tees.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.obs.export import load_trace, loads_trace
from repro.runtime.peers import load_peer_table

REPO = Path(__file__).resolve().parents[2]
FABRIC = REPO / "scripts" / "fabric.py"

ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


@pytest.fixture(scope="module")
def fabric_run(tmp_path_factory):
    """One 4-node fabric run shared by the assertions below (spawning four
    OS processes per test would dominate suite runtime)."""
    out_dir = tmp_path_factory.mktemp("fabric")
    result = subprocess.run(
        [
            sys.executable,
            str(FABRIC),
            "--hosts",
            "localhost",
            "--n",
            "4",
            "--waves",
            "3",
            "--live-interval",
            "0.2",
            "--timeout",
            "90",
            "--out-dir",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=str(REPO),
        env=ENV,
    )
    return out_dir, result


class TestFabricSmoke:
    def test_four_processes_reach_total_order(self, fabric_run):
        out_dir, result = fabric_run
        assert result.returncode == 0, result.stdout + result.stderr
        assert "digest-based total order OK across 4 nodes" in result.stdout
        # Four separate runner processes each logged their own boot line.
        logs = sorted(out_dir.glob("node-*.log"))
        assert len(logs) == 4
        for pid, log in enumerate(logs):
            assert f"node {pid}/4 up" in log.read_text(encoding="utf-8")

    def test_every_node_committed_three_waves(self, fabric_run):
        out_dir, result = fabric_run
        assert result.returncode == 0, result.stdout + result.stderr
        status = json.loads((out_dir / "status.json").read_text(encoding="utf-8"))
        assert len(status) == 4
        for node in status.values():
            assert node["decided_wave"] >= 3
            assert node["ordered"] > 0

    def test_peer_table_on_disk_parses(self, fabric_run):
        out_dir, _result = fabric_run
        table = load_peer_table(str(out_dir / "peers.json"))
        assert table.n == 4
        assert len(table.addresses()) == 4
        assert all(entry.control_port for entry in table.peers)

    def test_per_host_traces_are_valid_v1_jsonl(self, fabric_run):
        """Each host's trace is its stream tee; no other trace file is left."""
        out_dir, _result = fabric_run
        assert not list(out_dir.glob("node-*.trace.jsonl"))
        tees = sorted(out_dir.glob("node-*.stream.jsonl"))
        assert len(tees) == 4
        for path in tees:
            trace = load_trace(str(path))
            kinds = {event.kind for event in trace.events}
            assert {"commit", "a_deliver"} <= kinds
            # The stream began with the bus's whole history: nothing
            # dropped, and the header says so rather than leaving it to be
            # assumed.
            assert len(trace.lives) == 1
            assert trace.meta["dropped_events"] == 0
            # ... down to the node's own round-1 vertex.
            assert any(
                (event.kind, event.pid, event.get("round"))
                == ("vertex_created", trace.meta["pid"], 1)
                for event in trace.events
            )

    def test_merged_trace_spans_all_pids(self, fabric_run):
        out_dir, _result = fabric_run
        merged = loads_trace(
            (out_dir / "merged.trace.jsonl").read_text(encoding="utf-8")
        )
        assert merged.meta.get("pids") == [0, 1, 2, 3]
        assert merged.meta.get("dropped_events") == 0
        assert {event.pid for event in merged.events} == {0, 1, 2, 3}
        # Merge is globally time-sorted.
        times = [event.time for event in merged.events]
        assert times == sorted(times)

    def test_summarize_accepts_the_traces(self, fabric_run):
        out_dir, _result = fabric_run
        for name in ("node-0.stream.jsonl", "merged.trace.jsonl"):
            result = subprocess.run(
                [sys.executable, "-m", "repro.obs", "summarize", str(out_dir / name)],
                capture_output=True,
                text=True,
                timeout=60,
                cwd=str(REPO),
                env=ENV,
            )
            assert result.returncode == 0, result.stderr
            assert "a_deliver" in result.stdout


class TestLiveTelemetry:
    """The subscribe-stream live view, exercised by the same fabric run."""

    def test_plain_mode_renders_per_node_rows(self, fabric_run):
        out_dir, result = fabric_run
        assert result.returncode == 0, result.stdout + result.stderr
        # Non-TTY stdout -> plain mode: periodic `live:` lines, one per node.
        for pid in range(4):
            assert f"live: node {pid}: wave" in result.stdout
        assert "live: quorum wave" in result.stdout

    def test_stream_tees_are_traces_that_end_on_a_tick(self, fabric_run):
        out_dir, _result = fabric_run
        tees = sorted(out_dir.glob("node-*.stream.jsonl"))
        assert len(tees) == 4
        for pid, path in enumerate(tees):
            trace = load_trace(str(path))
            assert trace.meta["pid"] == pid
            assert {"commit", "a_deliver"} <= {event.kind for event in trace.events}
            last = json.loads(path.read_text(encoding="utf-8").splitlines()[-1])
            assert last["schema"] == "repro.obs.metrics"
            # The final tick carries the runner's last status snapshot.
            assert trace.metrics == last["metrics"]
            assert trace.metrics["status"]["decided_wave"] >= 3
            assert trace.metrics["dropped"] == 0
        # One host's whole history, in the format the analysis CLI reads.
        for command in (["summarize"], ["filter", "--kind", "commit"], ["causal"]):
            result = subprocess.run(
                [sys.executable, "-m", "repro.obs", *command, str(tees[0])],
                capture_output=True,
                text=True,
                timeout=60,
                cwd=str(REPO),
                env=ENV,
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip()

    def test_causal_stitch_covers_the_merged_trace(self, fabric_run):
        out_dir, _result = fabric_run
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.obs", "causal",
                str(out_dir / "merged.trace.jsonl"), "--json",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=str(REPO),
            env=ENV,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["stitched_chains"] > 0
        assert report["coverage"] == 1.0
        for edge in ("create->r_deliver", "insert->leader", "deliver->commit"):
            assert report["edges"][edge]["count"] > 0


@pytest.fixture(scope="module")
def stall_run(tmp_path_factory):
    """The committed stall-probe scenario, with a short stall window.

    ``scenarios/stall-probe.json`` splits n=4 into 2+2, so no group has a
    commit quorum (3) and the commit frontier goes flat until the heal —
    long enough for the driver's stall detector to fire and cut a dump.
    """
    out_dir = tmp_path_factory.mktemp("fabric-stall")
    result = subprocess.run(
        [
            sys.executable,
            str(FABRIC),
            "--hosts",
            "localhost",
            "--scenario",
            str(REPO / "scenarios" / "stall-probe.json"),
            "--stall-window",
            "2",
            "--live-interval",
            "0.25",
            "--out-dir",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=str(REPO),
        env=ENV,
    )
    return out_dir, result


class TestStallDiagnostics:
    def test_partitioned_quorum_trips_the_stall_detector(self, stall_run):
        out_dir, result = stall_run
        assert result.returncode == 0, result.stdout + result.stderr
        assert "live: STALL: quorum commit frontier flat" in result.stdout
        assert "live: stall dump written to" in result.stdout
        # The run still completes once the partition heals.
        assert "digest-based total order OK" in result.stdout

    def test_stall_dump_carries_per_node_flight_rings(self, stall_run):
        """The dump is one trace: every node's newest teed events (at most
        256 each), its newest life header and its last stream tick."""
        out_dir, _result = stall_run
        dumps = sorted(out_dir.glob("stall-*.jsonl"))
        assert dumps, "stall detector fired but wrote no dump"
        dump = load_trace(str(dumps[0]))
        assert dump.meta["reason"] == "stall"
        assert dump.meta["stalled_for"] == 2.0
        assert dump.meta["pids"] == [0, 1, 2, 3]
        per_pid = Counter(event.pid for event in dump.events)
        assert set(per_pid) == {0, 1, 2, 3}
        assert max(per_pid.values()) <= 256
        for pid in ("0", "1", "2", "3"):
            assert dump.meta["nodes"][pid]["pid"] == int(pid)
            tick = dump.metrics["nodes"][pid]
            assert tick["status"]["decided_wave"] >= 0
            assert tick["links"]["frames_sent"] > 0
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summarize", str(dumps[0])],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=str(REPO),
            env=ENV,
        )
        assert result.returncode == 0, result.stderr
        assert "reason=stall" in result.stdout
