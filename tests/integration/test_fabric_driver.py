"""The fabric driver's failure paths: a child that will not die, a run
that misses its target, a node killed and never brought back.
``test_fabric.py`` covers the runs that succeed."""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.common.config import SystemConfig
from repro.obs.context import Observability
from repro.obs.export import load_trace
from repro.runtime import fabric as fabric_module
from repro.runtime.fabric import Fabric, plan_table
from repro.runtime.live import DUMP_EVENTS, LiveView
from repro.runtime.peers import allocate_port_block, make_peer_table
from repro.runtime.runner import ControlServer, NodeRunner

REPO = Path(__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

#: Ignores SIGTERM, says so once the handler is installed, and ends by
#: itself after 20 s — so a driver that waits on it without a bound fails
#: this test instead of hanging the suite.
STUBBORN = (
    "import signal, time\n"
    "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
    "print('deaf', flush=True)\n"
    "time.sleep(20)\n"
)


def test_crash_escalates_past_a_runner_that_ignores_sigterm(
    tmp_path, monkeypatch, capfd
):
    ports = allocate_port_block(8)
    table = make_peer_table(
        {pid: ("127.0.0.1", ports[2 * pid]) for pid in range(4)},
        SystemConfig(n=4, seed=3),
        control_ports={pid: ports[2 * pid + 1] for pid in range(4)},
    )
    peers_path = tmp_path / "peers.json"
    peers_path.write_text(table.dumps(), encoding="utf-8")
    stubborn = subprocess.Popen(
        [sys.executable, "-c", STUBBORN], stdout=subprocess.PIPE
    )
    assert stubborn.stdout.readline() == b"deaf\n"
    monkeypatch.setattr(fabric_module, "TERM_GRACE", 0.5)

    with Fabric(table, peers_path, tmp_path, 60.0) as fabric:
        fabric.processes[0] = stubborn
        started = time.monotonic()
        # The respawn is a real runner: alone it still boots and pings.
        fabric.crash(0, "term", 0.0, started + 60.0)
        assert fabric.processes[0] is not stubborn
        assert 0 in fabric.boot_latency

    assert stubborn.returncode == -signal.SIGKILL
    assert time.monotonic() - started < 15.0
    assert "fabric: crash: node 0 ignored SIGTERM; sent SIGKILL" in capfd.readouterr().err


def test_missed_target_exits_2_and_leaves_the_flight_rings(tmp_path):
    result = subprocess.run(
        [
            sys.executable, str(REPO / "scripts" / "fabric.py"),
            "--n", "4", "--waves", "1000000", "--timeout", "8",
            "--out-dir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=str(REPO),
        env=ENV,
    )
    assert result.returncode == 2, result.stdout + result.stderr
    dump_path = tmp_path / "flight-timeout.jsonl"
    assert "target (waves>=1000000) not reached in time" in result.stderr
    assert f"(dump: {dump_path})" in result.stderr
    dump = load_trace(str(dump_path))
    assert dump.meta["reason"] == "timeout"
    assert dump.meta["pids"] == [0, 1, 2, 3]
    per_pid = Counter(event.pid for event in dump.events)
    assert set(per_pid) == {0, 1, 2, 3}
    assert max(per_pid.values()) <= DUMP_EVENTS
    for pid in ("0", "1", "2", "3"):
        assert dump.metrics["nodes"][pid]["status"]["decided_wave"] >= 1


def test_a_killed_node_is_in_the_timeout_dump_up_to_the_kill(tmp_path):
    """The dump is cut from the view's tees, so a node SIGKILLed and never
    respawned is in it up to the last line its stream delivered. Asking the
    nodes instead got the dead one only ``{"ok": false, "error": ...}``."""
    table = plan_table(["localhost"], 4, seed=3, coin_mode="ideal")
    peers_path = tmp_path / "peers.json"
    peers_path.write_text(table.dumps(), encoding="utf-8")
    live = LiveView(
        table, {"cmd": "subscribe", "interval": 0.2}, out_dir=tmp_path, interval=0.2
    )
    live.start()
    try:
        with Fabric(table, peers_path, tmp_path, 90.0) as fabric:
            fabric.spawn()
            deadline = time.monotonic() + 60.0
            assert fabric.wait_ready(deadline) and live.wait_live(deadline)
            # Until a stream tick of the victim's reports a decided wave.
            while live._nodes[2].decided_wave < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            victim = fabric.processes[2]
            victim.kill()
            victim.wait()
            while live._nodes[2].state == "live" and time.monotonic() < deadline:
                time.sleep(0.05)
            assert live._nodes[2].state != "live"
            dump_path = live.write_dump("flight-timeout", "timeout")
    finally:
        live.stop()
    dump = load_trace(str(dump_path))
    tee = load_trace(str(tmp_path / "node-2.stream.jsonl"))
    killed = [event for event in dump.events if event.pid == 2]
    assert killed and killed == tee.events[-DUMP_EVENTS:]
    assert dump.meta["nodes"]["2"]["pid"] == 2
    assert dump.meta["nodes"]["2"]["dropped_events"] == len(tee.events) - len(killed)
    assert dump.metrics["nodes"]["2"]["status"]["decided_wave"] >= 1


@pytest.mark.parametrize(
    "case, error",
    [
        ("n-zero", "n must be positive"),
        ("missing-file", "No such file or directory"),
        ("not-json", "Expecting value"),
        ("no-peers", "expected 4 peers, got 0"),
    ],
)
def test_unusable_input_exits_2_with_one_line(tmp_path, capsys, case, error):
    """Exit 1 means a total-order violation; a bad ``--n`` or ``--peers``
    used to escape ``main`` as a traceback, and so exit 1."""
    not_json = tmp_path / "not.json"
    not_json.write_text("peers: 4\n", encoding="utf-8")
    no_peers = tmp_path / "no-peers.json"
    no_peers.write_text(json.dumps({"n": 4, "peers": {}}), encoding="utf-8")
    argv = {
        "n-zero": ["--n", "0"],
        "missing-file": ["--peers", str(tmp_path / "missing.json")],
        "not-json": ["--peers", str(not_json)],
        "no-peers": ["--peers", str(no_peers)],
    }[case]
    assert fabric_module.main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fabric: unusable peer table: ") and error in err
    assert err.count("\n") == 1


def test_a_table_the_runners_refuse_is_never_written(tmp_path, capsys):
    """``--gc-depth 0`` used to write a table every runner died loading,
    and the driver then waited out its whole deadline."""
    started = time.monotonic()
    argv = ["--gc-depth", "0", "--timeout", "60", "--out-dir", str(tmp_path)]
    assert fabric_module.main(argv) == 2
    assert time.monotonic() - started < 5.0
    assert "gc_depth must be >= 1 round, got 0" in capsys.readouterr().err
    assert not (tmp_path / "peers.json").exists()
    assert not (tmp_path / "node-0.log").exists()


def test_driver_issues_exactly_the_verbs_a_runner_serves(free_peers):
    """The two ends of the control socket live in different processes, so
    nothing but this test notices a verb one side dropped or renamed."""
    issued = set(re.findall(r'"cmd": "(\w+)"', Path(fabric_module.__file__).read_text()))
    table = make_peer_table(free_peers(4), SystemConfig(n=4, seed=3))

    async def build():
        return NodeRunner(table, 0, observability=Observability())

    server = ControlServer(asyncio.run(build()), "127.0.0.1", 0)
    assert issued == set(server._verbs) | set(server._streams)
