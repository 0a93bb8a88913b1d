"""Fabric driver: boot, probe, and verify an n-host cluster of runners.

``scripts/fabric.py`` (a thin wrapper over :func:`main`) drives one
``python -m repro tcp-node`` process per pid from a single peer table,
through one :class:`Fabric` object that owns the table, the runner
processes and every control verb:

1. **Plan** — map pids onto the ``--hosts`` list (cycled), allocate free
   data + control ports for local hosts, and write ``peers.json`` to the
   output directory. An existing table can be supplied with ``--peers``.
2. **Spawn** — start one runner OS process per pid (local hosts only;
   for remote hosts, start ``python -m repro tcp-node --peers table.json
   --pid K`` on each host yourself and rerun the driver with
   ``--no-spawn`` to attach).
3. **Probe** — poll every node's control socket until it answers ``ping``
   (readiness = data socket bound, protocol launched).
4. **Wait** — poll ``status`` until every node decided ``--waves`` waves,
   within ``--timeout``.
5. **Verify** — fetch position-wise entry digests over the control
   sockets and run the same digest-based prefix-consistency check
   :class:`repro.runtime.cluster.LocalCluster` uses in-loop.
6. **Collect** — fetch each node's ``status``.
7. **Report** — after the teardown: per-node ``status.json``, and, read
   from the live view's stream tees (every life of every node), link
   counters summed across hosts and lives and the events merged into
   ``merged.trace.jsonl``.

With ``--scenario file.json`` the driver additionally executes a
declarative chaos scenario (:func:`repro.runtime.scenario.run_scenario`)
between probe and wait: killing runner processes with real signals,
restarting them from their ``--state-dir`` (every scenario run journals
durable state), cutting partitions and slowing peers over the control
sockets — and asserting the cross-host digest prefix check passes after
every recovery.

While waiting, the driver keeps a **live telemetry view** open: one
``subscribe`` stream per node (:mod:`repro.runtime.live`) renders a
one-line-per-node commit-frontier / queue-depth table (in place on a
TTY, as plain ``live:`` lines otherwise) and tees each node's raw stream
to ``node-<pid>.stream.jsonl``. A stall detector rides on the same
streams: when the quorum commit frontier is flat for ``--stall-window``
seconds the view cuts a dump (each node's newest life header, newest
teed events and last stream tick, as one trace) into ``stall-<k>.jsonl``.
A total-order violation likewise lands in ``flight-consistency.jsonl``,
and a boot, recovery or wave-target timeout in ``flight-timeout.jsonl``.

Exit codes: 0 success, 1 total-order violation, 2 unusable input (a bad
flag, scenario or peer table — including a planned table the runners'
own validator refuses) or a boot/target timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError, ConsistencyError, FabricError
from repro.core.node import COIN_MODES, check_prefix_consistency
from repro.obs.export import TraceFormatError, load_trace
from repro.runtime import linerpc
from repro.runtime.live import DEFAULT_STALL_WINDOW, LiveView, link_totals, merge_traces
from repro.runtime.peers import (
    PeerTable,
    allocate_port_block,
    load_peer_table,
    make_peer_table,
    parse_peer_table,
)
from repro.runtime.scenario import Scenario, load_scenario, run_scenario

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
) -> PeerTable:
    """Build a peer table mapping pids across ``hosts`` (cycled).

    Local hosts get freshly allocated free ports; every pid gets a
    control port so the driver can probe it, and ``gc_depth`` sets the
    table-wide DAG compaction margin (bounded memory).
    """
    assignment = {pid: hosts[pid % len(hosts)] for pid in range(n)}
    addresses: dict[int, tuple[str, int]] = {}
    control_ports: dict[int, int] = {}
    local_pids = [pid for pid, host in assignment.items() if is_local(host)]
    ports = allocate_port_block(2 * len(local_pids))
    for index, pid in enumerate(local_pids):
        addresses[pid] = ("127.0.0.1", ports[2 * index])
        control_ports[pid] = ports[2 * index + 1]
    base = 9100  # remote hosts: deterministic well-known ports per pid
    for pid, host in assignment.items():
        if pid in addresses:
            continue
        addresses[pid] = (host, base + pid)
        control_ports[pid] = base + n + pid
    return make_peer_table(
        addresses,
        SystemConfig(n=n, seed=seed),
        coin_mode=coin_mode,
        control_ports=control_ports,
        gc_depth=gc_depth,
    )


# -------------------------------------------------------------- the cluster


#: Seconds between ``ping`` probes of a node that has not answered yet.
PROBE_INTERVAL = 0.05
#: Seconds between ``status`` polls while waiting for a wave.
STATUS_POLL = 0.2
#: Seconds :meth:`Fabric.reap` gives the runners to exit after the control
#: stop, and a runner to exit after SIGTERM, before escalating.
STOP_GRACE = 15.0
TERM_GRACE = 5.0


def _runner_env() -> dict[str, str]:
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _terminate(process: subprocess.Popen[bytes]) -> bool:
    """SIGTERM, a bounded grace, then SIGKILL; True when the kill was needed."""
    process.terminate()
    try:
        process.wait(timeout=TERM_GRACE)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        return True
    return False


@dataclass
class Fabric:
    """One cluster of runners: its peer table, its OS processes, its verbs.

    The control verbs are methods here and nowhere else, and :meth:`crash`
    is the only place a runner is killed and respawned. As a context
    manager its exit is :meth:`stop` + :meth:`reap`, so no path out of a
    run leaves runner processes behind. Built over a table whose runners
    someone else started (``--no-spawn``), it only ever talks to them.
    """

    table: PeerTable
    peers_path: Path
    out_dir: Path
    run_seconds: float
    #: pid -> ``--state-dir``; a pid without one runs without a journal
    #: (and cannot come back from a :meth:`crash` with its history).
    state_dirs: dict[int, Path] = field(default_factory=dict)
    processes: dict[int, subprocess.Popen[bytes]] = field(
        default_factory=dict, init=False
    )
    #: pid -> seconds its latest boot took to answer ``ping``.
    boot_latency: dict[int, float] = field(default_factory=dict, init=False)

    def __enter__(self) -> "Fabric":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
        self.reap()

    # ------------------------------------------------------------ processes

    def spawn(self) -> None:
        """One ``python -m repro tcp-node`` OS process per pid in the table."""
        for entry in self.table.peers:
            self._launch(entry.pid)

    def _launch(self, pid: int) -> None:
        """Start pid's runner, log captured; a restart appends to the log so
        the node's pre-crash output survives next to its recovery banner."""
        command = [
            sys.executable,
            "-m",
            "repro",
            "tcp-node",
            "--peers",
            str(self.peers_path),
            "--pid",
            str(pid),
            "--run-seconds",
            str(self.run_seconds),
        ]
        if pid in self.state_dirs:
            command += ["--state-dir", str(self.state_dirs[pid])]
        mode = "a" if pid in self.processes else "w"
        with open(self.out_dir / f"node-{pid}.log", mode, encoding="utf-8") as log:
            self.processes[pid] = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=_runner_env()
            )

    def crash(
        self, pid: int, signal: str, restart_after: float, deadline: float
    ) -> None:
        """Kill pid's runner (``signal``: ``kill`` or ``term``), wait
        ``restart_after`` seconds, respawn it from its state dir and wait
        until it answers ``ping`` again.

        A runner that ignores SIGTERM past the grace is SIGKILLed and named
        on stderr, as in :meth:`reap`: the driver never hangs on a child.
        """
        process = self.processes.get(pid)
        if process is None or process.poll() is not None:
            raise FabricError(f"node {pid} is not running")
        if signal == "kill":
            process.kill()
            process.wait()
        elif _terminate(process):
            print(
                f"fabric: crash: node {pid} ignored SIGTERM; sent SIGKILL",
                file=sys.stderr,
            )
        time.sleep(restart_after)
        self._launch(pid)
        if not self.wait_ready(deadline, [pid]):
            raise FabricError(f"node {pid} failed to recover")

    def reap(self) -> None:
        """Wait for runners to exit, escalating terminate -> kill past the deadline.

        A runner wedged mid-shutdown (or one that never saw its control stop)
        first gets SIGTERM — the polite chance to exit on its own — and only
        if it ignores that within the grace window is it SIGKILLed, so the
        driver can never hang on a stuck child. Any pid that needed the
        escalation is named in the driver's output: a node that had to be
        terminated did not stop cleanly, and that is a finding, not noise.
        """
        deadline = time.monotonic() + STOP_GRACE
        terminated: list[int] = []
        killed: list[int] = []
        for pid, process in self.processes.items():
            try:
                process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                terminated.append(pid)
                if _terminate(process):
                    killed.append(pid)
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

    # ---------------------------------------------------------- control verbs

    def _call(
        self, pid: int, request: dict[str, Any], timeout: float = 10.0
    ) -> dict[str, Any]:
        return linerpc.call(self.table.entry(pid).control_address, request, timeout)

    def _ask_all(self, request: dict[str, Any]) -> dict[int, dict[str, Any]]:
        """One control request to every node; best-effort, never raises.

        An unreachable node is reported in the server's own error shape,
        ``{"ok": False, "error": ...}``, which pollers read as "not there yet".
        """
        replies: dict[int, dict[str, Any]] = {}
        for entry in self.table.peers:
            try:
                replies[entry.pid] = self._call(entry.pid, request, timeout=2.0)
            except (OSError, ValueError) as error:
                replies[entry.pid] = {"ok": False, "error": str(error)}
        return replies

    def wait_ready(self, deadline: float, pids: Sequence[int] | None = None) -> bool:
        """Probe every pending node's control socket each
        ``PROBE_INTERVAL`` seconds until every node (or each of ``pids``)
        answers ``ping``; False when the deadline expired first.

        A runner replays its WAL before it binds anything and opens its
        control socket last, so a probe during boot is a refused dial that
        costs the runner nothing. Seconds to the first successful ping,
        measured from this call, land in ``boot_latency``.
        """
        start = time.monotonic()
        pending = set(pids) if pids is not None else {e.pid for e in self.table.peers}
        while pending:
            if time.monotonic() >= deadline:
                return False
            for pid in sorted(pending):
                try:
                    response = self._call(pid, {"cmd": "ping"}, timeout=2.0)
                except (OSError, ValueError):
                    continue
                if response.get("ok") and response.get("ready"):
                    pending.discard(pid)
                    self.boot_latency[pid] = time.monotonic() - start
            if pending:
                time.sleep(PROBE_INTERVAL)
        return True

    def wait_wave(
        self, wave: int, deadline: float, every: bool, pids: Sequence[int] | None = None
    ) -> bool:
        """Poll ``status`` until any reachable node of ``pids`` (default:
        all) — with ``every``, each of them — decided ``wave``; False when
        the deadline expired first."""
        quorum = all if every else any
        while time.monotonic() < deadline:
            replies = self._ask_all({"cmd": "status"})
            watched = list(replies) if pids is None else pids
            if quorum(replies[pid].get("decided_wave", -1) >= wave for pid in watched):
                return True
            time.sleep(STATUS_POLL)
        return False

    def status(self, pid: int) -> dict[str, Any]:
        return self._call(pid, {"cmd": "status"})

    def check_consistency(self) -> int:
        """Fetch every node's digest log (all must answer) and run the
        digest-based prefix check; returns the agreed prefix length."""
        logs = {
            f"{entry.host}:{entry.pid}": self._call(entry.pid, {"cmd": "log"})["digests"]
            for entry in self.table.peers
        }
        return check_prefix_consistency(logs)

    def partition(self, pid: int, peers: Sequence[int]) -> None:
        """Make ``pid`` drop every frame to and from ``peers`` until :meth:`heal`."""
        self._call(pid, {"cmd": "partition", "peers": list(peers)})

    def heal(self) -> None:
        for entry in self.table.peers:
            self._call(entry.pid, {"cmd": "heal"})

    def slow(self, pid: int, delay: float) -> None:
        """Add ``delay`` seconds before every frame ``pid`` writes (0 = off)."""
        self._call(pid, {"cmd": "slow", "delay": delay})

    def stop(self) -> None:
        self._ask_all({"cmd": "stop"})


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
    parser.add_argument("--coin", default="ideal", choices=COIN_MODES)
    parser.add_argument(
        "--waves", type=int, default=3, help="waves every node must commit"
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="overall deadline (seconds)"
    )
    parser.add_argument(
        "--out-dir",
        default="fabric-out",
        help="directory for peers.json, per-node logs and stream tees, merged trace",
    )
    parser.add_argument(
        "--peers", help="use this existing peer table instead of planning one"
    )
    parser.add_argument(
        "--scenario",
        help="chaos scenario file (JSON): overrides n/seed/coin/waves/"
        "timeout, spawns every runner with a --state-dir, and executes the "
        "scenario's crash/partition/slow steps against the live cluster",
    )
    parser.add_argument(
        "--no-spawn",
        action="store_true",
        help="attach to already-running runners (remote hosts) instead of spawning",
    )
    parser.add_argument(
        "--live-interval",
        type=float,
        default=1.0,
        help="live view refresh / stream tick interval in seconds",
    )
    parser.add_argument(
        "--stall-window",
        type=float,
        default=DEFAULT_STALL_WINDOW,
        help="seconds of flat quorum commit frontier before writing a "
        "stall dump (default: %(default)s)",
    )
    parser.add_argument(
        "--gc-depth",
        type=int,
        help="table-wide DAG compaction margin in rounds (bounded memory); "
        "scenario runs default it on",
    )
    return parser


def plan(args: argparse.Namespace) -> tuple[Fabric, Scenario | None]:
    """Turn the command line into a cluster to drive (nothing spawned yet).

    A scenario overrides the run shape in ``args`` and gives every pid a
    state dir. Unusable input raises :class:`FabricError`.
    """
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    hosts = [host.strip() for host in args.hosts.split(",") if host.strip()]
    if not hosts:
        raise FabricError("empty --hosts list")

    scenario: Scenario | None = None
    if args.scenario:
        if args.peers or args.no_spawn:
            raise FabricError(
                "--scenario drives its own local spawns; it cannot "
                "be combined with --peers or --no-spawn"
            )
        try:
            scenario = load_scenario(args.scenario)
        except (ConfigurationError, OSError) as error:
            raise FabricError(f"bad scenario: {error}") from error
        args.n, args.seed, args.coin = scenario.n, scenario.seed, scenario.coin
        args.waves, args.timeout = scenario.waves, scenario.timeout
        if args.gc_depth is None:
            # Scenario runs journal durable state and crash-loop nodes; they
            # default the bounded-memory policy on (scenario.gc_depth).
            args.gc_depth = scenario.gc_depth
        print(
            f"fabric: scenario '{scenario.name}': n={scenario.n} "
            f"seed={scenario.seed} waves={scenario.waves} "
            f"steps={len(scenario.steps)}"
        )

    try:
        if args.peers:
            table = load_peer_table(args.peers)
        else:
            table = plan_table(
                hosts, args.n, args.seed, args.coin, gc_depth=args.gc_depth
            )
            # Refuse here what every runner would refuse when it loads the file.
            parse_peer_table(table.to_dict())
    except (ConfigurationError, OSError, ValueError) as error:
        raise FabricError(f"unusable peer table: {error}") from error
    if args.peers:
        peers_path = Path(args.peers)
    else:
        peers_path = out_dir / "peers.json"
        peers_path.write_text(table.dumps(), encoding="utf-8")
        print(f"fabric: wrote peer table for n={table.n} to {peers_path}")

    remote = [entry.pid for entry in table.peers if not is_local(entry.host)]
    if remote and not args.no_spawn:
        raise FabricError(
            f"pids {remote} live on remote hosts; start "
            f"`python -m repro tcp-node --peers {peers_path} --pid K` on "
            "each host, then rerun with --no-spawn to attach"
        )
    state_dirs = (
        {pid: out_dir / f"state-{pid}" for pid in range(table.n)} if scenario else {}
    )
    return Fabric(table, peers_path, out_dir, args.timeout + 30.0, state_dirs), scenario


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fabric, scenario = plan(args)
    except FabricError as error:
        print(f"fabric: {error}", file=sys.stderr)
        return 2
    table, out_dir = fabric.table, fabric.out_dir

    live = LiveView(
        table,
        {"cmd": "subscribe", "interval": args.live_interval},
        out_dir=out_dir,
        interval=args.live_interval,
        stall_window=args.stall_window,
    )
    live.set_banner("booting")
    deadline = time.monotonic() + args.timeout
    # Its readers retry while the runners boot.
    live.start()
    try:
        with fabric:
            try:
                if not args.no_spawn:
                    fabric.spawn()
                    print(f"fabric: spawned {len(fabric.processes)} runner processes")
                if not fabric.wait_ready(deadline):
                    raise FabricError("nodes failed to become ready in time")
                if not live.wait_live(deadline):
                    raise FabricError("subscribe streams failed to open in time")
                slowest = max(fabric.boot_latency.values())
                live.note(
                    f"fabric: all {table.n} nodes ready (slowest boot {slowest:.2f}s)"
                )
                live.set_banner(f"running (target: waves>={args.waves})")
                if scenario is not None:
                    run_scenario(scenario, fabric, deadline, live)
                if not fabric.wait_wave(args.waves, deadline, every=True):
                    raise FabricError(
                        f"target (waves>={args.waves}) not reached in time"
                    )
                live.set_banner("targets reached; collecting state")
                prefix = fabric.check_consistency()
                statuses = {entry.pid: fabric.status(entry.pid) for entry in table.peers}
            except ConsistencyError as error:
                dump_path = live.write_dump("flight-consistency", "consistency")
                print(
                    f"fabric: TOTAL ORDER VIOLATION: {error} (dump: {dump_path})",
                    file=sys.stderr,
                )
                return 1
            except FabricError as error:
                dump_path = live.write_dump("flight-timeout", "timeout")
                print(f"fabric: {error} (dump: {dump_path})", file=sys.stderr)
                return 2
            except (OSError, ValueError) as error:
                print(f"fabric: control failure: {error}", file=sys.stderr)
                return 2
    finally:
        live.stop()

    try:
        traces = [
            load_trace(str(out_dir / f"node-{entry.pid}.stream.jsonl"))
            for entry in table.peers
        ]
    except (OSError, TraceFormatError) as error:
        print(f"fabric: unreadable stream tee: {error}", file=sys.stderr)
        return 2
    for pid, seconds in fabric.boot_latency.items():
        statuses[pid]["boot_seconds"] = round(seconds, 3)
    (out_dir / "status.json").write_text(
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
    links = link_totals(traces)
    print(
        "fabric: links: "
        f"{links['frames_sent']} frames, "
        f"{links['reconnects']} reconnects, "
        f"{links['redeliveries']} redeliveries"
    )
    print(
        f"fabric: digest-based total order OK across {table.n} nodes "
        f"(agreed prefix: {prefix} entries)"
    )
    merged_path = out_dir / "merged.trace.jsonl"
    merged_path.write_text(merge_traces(traces), encoding="utf-8")
    total_events = sum(len(trace.events) for trace in traces)
    print(f"fabric: merged {total_events} events into {merged_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
