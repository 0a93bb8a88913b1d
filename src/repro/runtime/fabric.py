"""Fabric driver: boot, probe, and verify an n-host cluster of runners.

``scripts/fabric.py`` (a thin wrapper over :func:`main`) drives one
``python -m repro tcp-node`` process per pid from a single peer table:

1. **Plan** — map pids onto the ``--hosts`` list (cycled), allocate free
   data + control ports for local hosts, and write ``peers.json`` to the
   output directory. An existing table can be supplied with ``--peers``.
2. **Spawn** — start one runner OS process per pid (local hosts only;
   for remote hosts, start ``python -m repro tcp-node --peers table.json
   --pid K`` on each host yourself and rerun the driver with
   ``--no-spawn`` to attach).
3. **Probe** — poll every node's control socket until it answers ``ping``
   (readiness = data socket bound, protocol launched).
4. **Wait** — poll ``status`` until every node decided ``--waves`` waves
   (and ordered ``--blocks`` entries), within ``--timeout``.
5. **Verify** — fetch position-wise entry digests over the control
   sockets and run the same digest-based prefix-consistency check
   :class:`repro.runtime.cluster.LocalCluster` uses in-loop; aggregate
   ``link_report`` counters across hosts.
6. **Collect** — fetch each host's ``repro.obs.trace`` v1 JSONL, merge
   them (events interleaved on their per-host clocks) into
   ``merged.trace.jsonl``, write per-node ``status.json``, and optionally
   ``--diff`` host traces.

With ``--scenario file.{json,toml}`` the driver additionally executes a
declarative chaos scenario (:mod:`repro.runtime.scenario`) between probe
and wait: killing runner processes with real signals, restarting them from
their ``--state-dir`` (every scenario run journals durable state), cutting
partitions and slowing peers over the control sockets — and asserting the
cross-host digest prefix check passes after every recovery.

While waiting, the driver keeps a **live telemetry view** open: one
``subscribe`` stream per node (:mod:`repro.runtime.live`) renders a
one-line-per-node commit-frontier / queue-depth table (in place on a
TTY, as plain ``live:`` lines otherwise; ``--no-live`` turns it off) and
tees each node's raw stream to ``node-<pid>.stream.jsonl``. A stall
detector rides on the same streams: when the quorum commit frontier is
flat for ``--stall-window`` seconds the driver pulls every node's
``flight`` ring dump into ``stall-<k>.json``; a total-order violation
likewise snapshots the rings into ``flight-consistency.json`` before
the cluster is torn down.

Exit codes: 0 success, 1 total-order violation, 2 boot/target timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.common.errors import ConfigurationError, ConsistencyError
from repro.obs.analyze import diff_traces
from repro.obs.export import Trace, dumps_trace, loads_trace
from repro.runtime import linerpc
from repro.runtime.consistency import check_prefix_consistency
from repro.runtime.live import DEFAULT_STALL_WINDOW, LiveView
from repro.runtime.peers import (
    PeerTable,
    allocate_port_block,
    load_peer_table,
    make_peer_table,
)
from repro.runtime.scenario import Scenario, ScenarioStep, load_scenario

#: Host spellings treated as "this machine" (spawnable by the driver).
LOCAL_HOSTS = {"localhost", "127.0.0.1", "::1"}


def is_local(host: str) -> bool:
    return host in LOCAL_HOSTS


def plan_table(
    hosts: Sequence[str],
    n: int,
    seed: int,
    coin_mode: str,
    gc_depth: int | None = None,
    ingress: bool = False,
) -> PeerTable:
    """Build a peer table mapping pids across ``hosts`` (cycled).

    Local hosts get freshly allocated free ports; every pid gets a
    control port so the driver can probe it. With ``ingress`` every pid
    additionally gets a client transaction port, and ``gc_depth`` sets
    the table-wide DAG compaction margin (bounded memory).
    """
    from repro.common.config import SystemConfig

    assignment = {pid: hosts[pid % len(hosts)] for pid in range(n)}
    per_pid = 3 if ingress else 2
    addresses: dict[int, tuple[str, int]] = {}
    control_ports: dict[int, int] = {}
    ingress_ports: dict[int, int] = {}
    local_pids = [pid for pid, host in assignment.items() if is_local(host)]
    ports = allocate_port_block(per_pid * len(local_pids))
    for index, pid in enumerate(local_pids):
        addresses[pid] = ("127.0.0.1", ports[per_pid * index])
        control_ports[pid] = ports[per_pid * index + 1]
        if ingress:
            ingress_ports[pid] = ports[per_pid * index + 2]
    base = 9100  # remote hosts: deterministic well-known ports per pid
    for pid, host in assignment.items():
        if pid in addresses:
            continue
        addresses[pid] = (host, base + pid)
        control_ports[pid] = base + n + pid
        if ingress:
            ingress_ports[pid] = base + 2 * n + pid
    return make_peer_table(
        addresses,
        SystemConfig(n=n, seed=seed),
        coin_mode=coin_mode,
        control_ports=control_ports,
        ingress_ports=ingress_ports or None,
        gc_depth=gc_depth,
    )


# ------------------------------------------------------------- control I/O


def ask_all(
    table: PeerTable, request: dict[str, Any], timeout: float = 2.0
) -> dict[int, dict[str, Any]]:
    """One control request to every node; best-effort, never raises.

    An unreachable node is reported in the server's own error shape,
    ``{"ok": False, "error": ...}``: pollers read the missing fields as
    "not there yet", diagnostics record the failure instead of aborting.
    """
    replies: dict[int, dict[str, Any]] = {}
    for entry in table.peers:
        try:
            replies[entry.pid] = linerpc.call(entry.control_address, request, timeout)
        except (OSError, ValueError) as error:
            replies[entry.pid] = {"ok": False, "error": str(error)}
    return replies


#: Boot-probe backoff bounds (seconds): first retry delay and its ceiling.
PROBE_INITIAL_BACKOFF = 0.05
PROBE_MAX_BACKOFF = 1.0


def wait_ready(
    table: PeerTable,
    deadline: float,
    pids: Sequence[int] | None = None,
) -> dict[int, float] | None:
    """Probe control sockets until every node answers ``ping``.

    Each pid is probed on its own bounded exponential backoff: while the
    runner is still binding its sockets the dial fails fast
    (``ConnectionRefusedError``) and the retry delay doubles from
    ``PROBE_INITIAL_BACKOFF`` up to ``PROBE_MAX_BACKOFF`` — early probes
    catch a fast boot within milliseconds, late ones stop hammering a
    node that is grinding through WAL replay.

    Returns per-pid boot latency in seconds (first successful ping,
    measured from this call), or None when the deadline expired first.
    """
    start = time.monotonic()
    pending = set(pids) if pids is not None else {e.pid for e in table.peers}
    backoff = {pid: PROBE_INITIAL_BACKOFF for pid in pending}
    next_probe = {pid: start for pid in pending}
    latency: dict[int, float] = {}
    while pending:
        now = time.monotonic()
        if now >= deadline:
            return None
        due = [pid for pid in sorted(pending) if next_probe[pid] <= now]
        if not due:
            wake = min(next_probe[pid] for pid in pending)
            time.sleep(max(0.0, min(wake, deadline) - now))
            continue
        for pid in due:
            try:
                response = linerpc.call(
                    table.entry(pid).control_address, {"cmd": "ping"}, timeout=2.0
                )
            except (OSError, ValueError):
                next_probe[pid] = time.monotonic() + backoff[pid]
                backoff[pid] = min(backoff[pid] * 2.0, PROBE_MAX_BACKOFF)
                continue
            if response.get("ok") and response.get("ready"):
                pending.discard(pid)
                latency[pid] = time.monotonic() - start
            else:
                next_probe[pid] = time.monotonic() + backoff[pid]
    return latency


def _poll_status(
    table: PeerTable,
    done: Callable[[Iterable[dict[str, Any]]], bool],
    deadline: float,
    poll: float = 0.2,
) -> bool:
    """Poll every node's ``status`` until ``done(statuses)`` or the deadline."""
    while time.monotonic() < deadline:
        if done(ask_all(table, {"cmd": "status"}).values()):
            return True
        time.sleep(poll)
    return False


def wait_target(table: PeerTable, waves: int, blocks: int, deadline: float) -> bool:
    """Block until every node hit the wave/block targets."""
    return _poll_status(
        table,
        lambda statuses: all(
            s.get("decided_wave", -1) >= waves and s.get("ordered", 0) >= blocks
            for s in statuses
        ),
        deadline,
    )


def wait_wave(table: PeerTable, wave: int, deadline: float) -> bool:
    """Block until any reachable node's decided wave reaches ``wave``."""
    return _poll_status(
        table,
        lambda statuses: any(s.get("decided_wave", -1) >= wave for s in statuses),
        deadline,
    )


def stop_all(table: PeerTable) -> None:
    ask_all(table, {"cmd": "stop"})


# ----------------------------------------------------------------- spawning


def _runner_env() -> dict[str, str]:
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def spawn_runner(
    pid: int,
    peers_path: Path,
    out_dir: Path,
    run_seconds: float,
    state_dir: Path | None = None,
    log_mode: str = "w",
) -> subprocess.Popen:
    """One ``python -m repro tcp-node`` OS process, log captured.

    A scenario restart passes ``log_mode="a"`` so the node's pre-crash
    output survives next to its recovery banner.
    """
    command = [
        sys.executable,
        "-m",
        "repro",
        "tcp-node",
        "--peers",
        str(peers_path),
        "--pid",
        str(pid),
        "--trace",
        str(out_dir / f"node-{pid}.trace.jsonl"),
        "--run-seconds",
        str(run_seconds),
    ]
    if state_dir is not None:
        command += ["--state-dir", str(state_dir)]
    log_path = out_dir / f"node-{pid}.log"
    with open(log_path, log_mode, encoding="utf-8") as log:
        return subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, env=_runner_env()
        )


def spawn_runners(
    table: PeerTable,
    peers_path: Path,
    out_dir: Path,
    run_seconds: float,
    state_dirs: dict[int, Path] | None = None,
) -> dict[int, subprocess.Popen]:
    """One runner OS process per pid; returns them keyed by pid."""
    return {
        entry.pid: spawn_runner(
            entry.pid,
            peers_path,
            out_dir,
            run_seconds,
            state_dir=(state_dirs or {}).get(entry.pid),
        )
        for entry in table.peers
    }


def reap(
    processes: Mapping[int, subprocess.Popen], timeout: float = 15.0
) -> None:
    """Wait for runners to exit, escalating terminate -> kill past the deadline.

    A runner wedged mid-shutdown (or one that never saw its control stop)
    first gets SIGTERM — the polite chance to flush its trace — and only
    if it ignores that within the grace window is it SIGKILLed, so the
    driver can never hang on a stuck child. Any pid that needed the
    escalation is named in the driver's output: a node that had to be
    terminated did not stop cleanly, and that is a finding, not noise.
    """
    deadline = time.monotonic() + timeout
    terminated: list[int] = []
    killed: list[int] = []
    for pid, process in processes.items():
        remaining = max(0.1, deadline - time.monotonic())
        try:
            process.wait(timeout=remaining)
            continue
        except subprocess.TimeoutExpired:
            terminated.append(pid)
            process.terminate()
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            killed.append(pid)
            process.kill()
            process.wait()
    if terminated:
        print(
            f"fabric: reap: nodes {terminated} ignored the control stop; "
            "sent SIGTERM",
            file=sys.stderr,
        )
    if killed:
        print(
            f"fabric: reap: nodes {killed} ignored SIGTERM; sent SIGKILL",
            file=sys.stderr,
        )


# ------------------------------------------------------------- diagnostics


def collect_flight_dumps(
    table: PeerTable,
    out_dir: Path,
    reason: str,
    stalled_for: float | None = None,
    index: int | None = None,
) -> Path:
    """Pull every reachable node's flight-recorder ring into one file.

    The ``flight`` control command makes each node dump its in-memory
    last-K event ring (plus status and link report) and stamp its own
    trace with ``flight_dump`` — so post-hoc analysis of the traces can
    line the dumps up with protocol time. Unreachable nodes are recorded
    as errors rather than aborting: diagnostics must degrade, not fail.
    """
    request: dict[str, Any] = {"cmd": "flight", "reason": reason}
    if stalled_for is not None:
        request["stalled_for"] = round(stalled_for, 3)
    dumps = ask_all(table, request, timeout=10.0)  # JSON turns pid keys into strings
    suffix = f"-{index}" if index is not None else ""
    path = out_dir / f"{'stall' if reason == 'stall' else 'flight-' + reason}{suffix}.json"
    path.write_text(
        json.dumps({"reason": reason, "nodes": dumps}, indent=2, sort_keys=True),
        encoding="utf-8",
    )
    return path


# ---------------------------------------------------------------- scenarios


def fetch_digest_logs(table: PeerTable) -> dict[str, list[str]]:
    """Every node's digest log over its control socket (all must answer)."""
    return {
        f"{entry.host}:{entry.pid}": linerpc.call(
            entry.control_address, {"cmd": "log"}, timeout=10.0
        )["digests"]
        for entry in table.peers
    }


def _crash_once(
    step: ScenarioStep,
    table: PeerTable,
    peers_path: Path,
    out_dir: Path,
    state_dirs: dict[int, Path],
    processes: dict[int, subprocess.Popen],
    run_seconds: float,
    deadline: float,
    boot_latency: dict[int, float],
    announce: Callable[[str], None] = print,
) -> int:
    """Kill one runner, restart it from its state dir, verify consistency."""
    pid = step.pid
    assert pid is not None
    process = processes.get(pid)
    if process is None or process.poll() is not None:
        print(f"fabric: scenario: node {pid} is not running", file=sys.stderr)
        return 2
    if step.signal == "kill":
        process.kill()
    else:
        process.terminate()
    process.wait()
    announce(f"fabric: scenario: sent SIG{step.signal.upper()} to node {pid}")
    time.sleep(step.restart_after)
    processes[pid] = spawn_runner(
        pid,
        peers_path,
        out_dir,
        run_seconds,
        state_dir=state_dirs[pid],
        log_mode="a",
    )
    boot = wait_ready(table, deadline, pids=[pid])
    if boot is None:
        print(f"fabric: scenario: node {pid} failed to recover", file=sys.stderr)
        return 2
    boot_latency[pid] = boot[pid]
    status = linerpc.call(table.entry(pid).control_address, {"cmd": "status"})
    recovery = status.get("recovery", {})
    announce(
        f"fabric: scenario: node {pid} recovered in {boot[pid]:.2f}s "
        f"(snapshot {recovery.get('snapshot_vertices', 0)} + "
        f"wal {recovery.get('replayed_vertices', 0)} vertices, "
        f"{recovery.get('replayed_commits', 0)} commits)"
    )
    # The hard guarantee: a recovered node's log must still be a prefix
    # match with every peer — recovery may not rewrite history.
    prefix = check_prefix_consistency(fetch_digest_logs(table))
    announce(f"fabric: scenario: post-recovery prefix OK ({prefix} entries)")
    return 0


def run_scenario(
    scenario: Scenario,
    table: PeerTable,
    peers_path: Path,
    out_dir: Path,
    state_dirs: dict[int, Path],
    processes: dict[int, subprocess.Popen],
    run_seconds: float,
    deadline: float,
    boot_latency: dict[int, float],
    announce: Callable[[str], None] = print,
    live: LiveView | None = None,
) -> int:
    """Execute the scenario's steps in order; 0 = all passed.

    Progress goes through ``announce`` (the live view's scroll-safe
    ``note`` when one is attached) and each step is named in the live
    table's banner, so even the silent stretches — waiting for a wave,
    a ``restart_after`` or ``heal_after`` sleep — show what the driver
    is doing.
    """
    for index, step in enumerate(scenario.steps):
        if live is not None:
            live.set_banner(
                f"scenario step {index + 1}/{len(scenario.steps)}: "
                f"{step.kind} (waiting for wave {step.at_wave})"
            )
        if not wait_wave(table, step.at_wave, deadline):
            print(
                f"fabric: scenario: step {index} ({step.kind}) timed out "
                f"waiting for wave {step.at_wave}",
                file=sys.stderr,
            )
            return 2
        if live is not None:
            live.set_banner(
                f"scenario step {index + 1}/{len(scenario.steps)}: {step.kind}"
            )
        announce(f"fabric: scenario: step {index}: {step.kind}")
        if step.kind in ("crash", "churn"):
            for _cycle in range(step.cycles if step.kind == "churn" else 1):
                code = _crash_once(
                    step, table, peers_path, out_dir, state_dirs,
                    processes, run_seconds, deadline, boot_latency,
                    announce=announce,
                )
                if code:
                    return code
        elif step.kind == "partition":
            for group in step.groups:
                others = [p for p in range(table.n) if p not in group]
                for pid in group:
                    linerpc.call(
                        table.entry(pid).control_address,
                        {"cmd": "partition", "peers": others},
                    )
            announce(f"fabric: scenario: partitioned {list(step.groups)}")
            time.sleep(step.heal_after)
            for entry in table.peers:
                linerpc.call(entry.control_address, {"cmd": "heal"})
            announce("fabric: scenario: partition healed")
        elif step.kind == "slow":
            assert step.pid is not None
            address = table.entry(step.pid).control_address
            linerpc.call(address, {"cmd": "slow", "delay": step.delay})
            announce(
                f"fabric: scenario: node {step.pid} slowed by "
                f"{step.delay * 1000:.0f}ms/frame"
            )
            time.sleep(step.duration)
            linerpc.call(address, {"cmd": "slow", "delay": 0.0})
    if live is not None:
        live.set_banner("scenario done; waiting for targets")
    return 0


# ------------------------------------------------------------------ merging


def merge_traces(traces: Sequence[Trace]) -> str:
    """Merge per-host traces into one JSONL document.

    Events interleave by their per-host monotonic clocks (each host's
    transport scheduler starts at its own epoch — ordering across hosts
    is approximate, within a host it is exact). Per-host link counters
    are summed into the metrics footer.
    """
    events = sorted(
        (event for trace in traces for event in trace.events),
        key=lambda event: (event.time, event.pid),
    )
    totals: Counter[str] = Counter()
    for trace in traces:
        links = (trace.metrics or {}).get("links", {})
        if isinstance(links, dict):
            for key, value in links.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    totals[key] += value
    meta = {
        "merged_hosts": len(traces),
        "pids": sorted(
            int(str(trace.meta.get("pid", -1))) for trace in traces
        ),
        # Each host's bus keeps a window; the merge covers what survived.
        "dropped_events": sum(
            int(str(trace.meta.get("dropped_events", 0))) for trace in traces
        ),
    }
    return dumps_trace(events, meta=meta, metrics={"links": dict(totals)})


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fabric",
        description="Drive an n-host DAG-Rider cluster from one peer table.",
    )
    parser.add_argument(
        "--hosts",
        default="localhost",
        help="comma-separated host list, cycled across pids (default: localhost)",
    )
    parser.add_argument("--n", type=int, default=4, help="number of nodes")
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--coin", default="ideal", choices=["ideal", "threshold", "piggyback"]
    )
    parser.add_argument(
        "--waves", type=int, default=3, help="waves every node must commit"
    )
    parser.add_argument(
        "--blocks", type=int, default=1, help="entries every node must order"
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="overall deadline (seconds)"
    )
    parser.add_argument(
        "--out-dir",
        default="fabric-out",
        help="directory for peers.json, per-host logs/traces, merged trace",
    )
    parser.add_argument(
        "--peers", help="use this existing peer table instead of planning one"
    )
    parser.add_argument(
        "--scenario",
        help="chaos scenario file (.json/.toml): overrides n/seed/coin/waves/"
        "timeout, spawns every runner with a --state-dir, and executes the "
        "scenario's crash/partition/slow steps against the live cluster",
    )
    parser.add_argument(
        "--no-spawn",
        action="store_true",
        help="attach to already-running runners (remote hosts) instead of spawning",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="diff each host's trace against host 0's (informational)",
    )
    parser.add_argument(
        "--no-live",
        action="store_true",
        help="disable the live per-node telemetry view (subscribe streams)",
    )
    parser.add_argument(
        "--live-interval",
        type=float,
        default=1.0,
        help="live view refresh / stream delta interval in seconds",
    )
    parser.add_argument(
        "--stall-window",
        type=float,
        default=DEFAULT_STALL_WINDOW,
        help="seconds of flat quorum commit frontier before pulling "
        "flight-recorder dumps (default: %(default)s)",
    )
    parser.add_argument(
        "--gc-depth",
        type=int,
        help="table-wide DAG compaction margin in rounds (bounded memory); "
        "scenario runs default it on",
    )
    parser.add_argument(
        "--ingress",
        action="store_true",
        help="allocate a client transaction (ingress) port per node",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    hosts = [host.strip() for host in args.hosts.split(",") if host.strip()]
    if not hosts:
        print("fabric: empty --hosts list", file=sys.stderr)
        return 2

    scenario: Scenario | None = None
    if args.scenario:
        if args.peers or args.no_spawn:
            print(
                "fabric: --scenario drives its own local spawns; it cannot "
                "be combined with --peers or --no-spawn",
                file=sys.stderr,
            )
            return 2
        try:
            scenario = load_scenario(args.scenario)
        except (ConfigurationError, OSError) as error:
            print(f"fabric: bad scenario: {error}", file=sys.stderr)
            return 2
        args.n, args.seed, args.coin = scenario.n, scenario.seed, scenario.coin
        args.waves, args.timeout = scenario.waves, scenario.timeout
        print(
            f"fabric: scenario '{scenario.name}': n={scenario.n} "
            f"seed={scenario.seed} waves={scenario.waves} "
            f"steps={len(scenario.steps)}"
        )

    gc_depth: int | None = args.gc_depth
    if scenario is not None and gc_depth is None:
        # Scenario runs journal durable state and crash-loop nodes; they
        # default the bounded-memory policy on (scenario.gc_depth).
        gc_depth = scenario.gc_depth

    if args.peers:
        table = load_peer_table(args.peers)
        peers_path = Path(args.peers)
    else:
        table = plan_table(
            hosts, args.n, args.seed, args.coin,
            gc_depth=gc_depth, ingress=args.ingress,
        )
        peers_path = out_dir / "peers.json"
        peers_path.write_text(table.dumps(), encoding="utf-8")
        print(f"fabric: wrote peer table for n={table.n} to {peers_path}")

    remote = [entry for entry in table.peers if not is_local(entry.host)]
    if remote and not args.no_spawn:
        pids = [entry.pid for entry in remote]
        print(
            f"fabric: pids {pids} live on remote hosts; start "
            f"`python -m repro tcp-node --peers {peers_path} --pid K` on "
            "each host, then rerun with --no-spawn to attach",
            file=sys.stderr,
        )
        return 2

    state_dirs: dict[int, Path] = {}
    if scenario is not None:
        state_dirs = {pid: out_dir / f"state-{pid}" for pid in range(table.n)}

    run_seconds = args.timeout + 30.0
    processes: dict[int, subprocess.Popen] = {}
    if not args.no_spawn:
        processes = spawn_runners(
            table,
            peers_path,
            out_dir,
            run_seconds=run_seconds,
            state_dirs=state_dirs or None,
        )
        print(f"fabric: spawned {len(processes)} runner processes")

    deadline = time.monotonic() + args.timeout

    live: LiveView | None = None
    if not args.no_live:
        live = LiveView(
            table,
            {"cmd": "subscribe", "interval": args.live_interval},
            out_dir=out_dir,
            interval=args.live_interval,
            stall_window=args.stall_window,
        )
        view = live  # the stall callback runs on the view's render thread

        def _on_stall(stalled_for: float, frontier: int) -> None:
            path = collect_flight_dumps(
                table, out_dir, "stall",
                stalled_for=stalled_for, index=view.stalls,
            )
            view.note(
                f"fabric: stall diagnostics (frontier wave {frontier}) "
                f"written to {path}"
            )

        live.on_stall = _on_stall
        live.set_banner("booting")
        live.start()
    announce: Callable[[str], None] = live.note if live is not None else print

    boot_latency: dict[int, float] = {}
    try:
        boot = wait_ready(table, deadline)
        if boot is None:
            print("fabric: nodes failed to become ready in time", file=sys.stderr)
            return 2
        boot_latency.update(boot)
        slowest = max(boot.values()) if boot else 0.0
        announce(
            f"fabric: all {table.n} nodes ready (slowest boot {slowest:.2f}s)"
        )
        if live is not None:
            live.set_banner(
                f"running (targets: waves>={args.waves} blocks>={args.blocks})"
            )
        if scenario is not None:
            try:
                code = run_scenario(
                    scenario, table, peers_path, out_dir, state_dirs,
                    processes, run_seconds, deadline, boot_latency,
                    announce=announce, live=live,
                )
            except ConsistencyError as error:
                dump_path = collect_flight_dumps(table, out_dir, "consistency")
                print(
                    f"fabric: TOTAL ORDER VIOLATION after recovery: {error} "
                    f"(flight dumps: {dump_path})",
                    file=sys.stderr,
                )
                return 1
            except (OSError, ValueError) as error:
                print(f"fabric: scenario: control failure: {error}", file=sys.stderr)
                return 2
            if code:
                return code
        if not wait_target(table, args.waves, args.blocks, deadline):
            print(
                f"fabric: target (waves>={args.waves}, blocks>={args.blocks}) "
                "not reached in time",
                file=sys.stderr,
            )
            return 2
        if live is not None:
            live.set_banner("targets reached; collecting state")

        # Aggregate state over the control sockets while nodes are live.
        logs = fetch_digest_logs(table)
        statuses: dict[int, dict[str, Any]] = {}
        link_totals: Counter[str] = Counter()
        trace_texts: dict[int, str] = {}
        for entry in table.peers:
            address = entry.control_address
            statuses[entry.pid] = linerpc.call(address, {"cmd": "status"})
            report = linerpc.call(address, {"cmd": "link_report"})["report"]
            for key, value in report.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    link_totals[key] += value
            trace_texts[entry.pid] = linerpc.call(
                address, {"cmd": "trace"}, timeout=30.0
            )["trace"]

        # Verify total order while nodes are still live: a violation can
        # then be answered with flight-recorder dumps over control.
        try:
            prefix = check_prefix_consistency(logs)
        except ConsistencyError as error:
            dump_path = collect_flight_dumps(table, out_dir, "consistency")
            print(
                f"fabric: TOTAL ORDER VIOLATION: {error} "
                f"(flight dumps: {dump_path})",
                file=sys.stderr,
            )
            return 1
    finally:
        stop_all(table)
        if live is not None:
            live.stop()
        if processes:
            reap(processes)

    for pid, seconds in boot_latency.items():
        if pid in statuses:
            statuses[pid]["boot_seconds"] = round(seconds, 3)
    status_path = out_dir / "status.json"
    status_path.write_text(
        json.dumps({str(pid): status for pid, status in sorted(statuses.items())},
                   indent=2),
        encoding="utf-8",
    )
    for pid, status in sorted(statuses.items()):
        print(
            f"  node {pid}: ordered {status['ordered']:>3} entries, "
            f"decided wave {status['decided_wave']}, "
            f"round {status['current_round']}"
        )
    print(
        "fabric: links: "
        f"{link_totals.get('frames_sent', 0)} frames, "
        f"{link_totals.get('reconnects', 0)} reconnects, "
        f"{link_totals.get('redeliveries', 0)} redeliveries"
    )

    print(
        f"fabric: digest-based total order OK across {table.n} nodes "
        f"(agreed prefix: {prefix} entries)"
    )

    traces = {pid: loads_trace(text) for pid, text in trace_texts.items()}
    merged_path = out_dir / "merged.trace.jsonl"
    merged_path.write_text(merge_traces(list(traces.values())), encoding="utf-8")
    total_events = sum(len(trace.events) for trace in traces.values())
    print(f"fabric: merged {total_events} events into {merged_path}")

    if args.diff and traces:
        base_pid = min(traces)
        for pid in sorted(traces):
            if pid == base_pid:
                continue
            diff = diff_traces(
                traces[base_pid].events, traces[pid].events, time_tolerance=1e9
            )
            changed = ", ".join(sorted(diff.kind_deltas)) or "none"
            print(f"fabric: diff host {base_pid} vs {pid}: kind deltas: {changed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
