"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate a DAG-Rider deployment and print a run report;
* ``render`` — simulate briefly and print a process's local DAG;
* ``baseline`` — run one of the baseline SMRs for comparison;
* ``tcp-node`` — boot ONE node from a peer table (the multi-host unit,
  driven across hosts by ``scripts/fabric.py``).

Examples::

    python -m repro run --n 7 --broadcast avid --blocks 50
    python -m repro render --n 4 --rounds 8
    python -m repro baseline --protocol dumbo --slots 8
    python -m repro tcp-node --peers peers.json --pid 2 --state-dir state-2
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.analysis.latency import commit_sizes, inter_commit_times
from repro.analysis.render import render_dag
from repro.analysis.stats import summarize
from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
from repro.core.node import BROADCASTS, COIN_MODES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=4, help="number of processes")
    parser.add_argument("--seed", type=int, default=0, help="run seed")


def cmd_run(args: argparse.Namespace) -> int:
    config = SystemConfig(n=args.n, seed=args.seed)
    deployment = DagRiderDeployment(
        config,
        broadcast=args.broadcast,
        coin_mode=args.coin,
        batch_size=args.batch,
    )
    reached = deployment.run_until_ordered(args.blocks, max_events=args.max_events)
    deployment.check_total_order()
    node = deployment.correct_nodes[0]
    gaps = inter_commit_times(node.ordering.commits)
    print(f"n={config.n} f={config.f} broadcast={args.broadcast} coin={args.coin}")
    print(f"target reached: {reached}")
    print(f"ordered blocks (node 0): {len(node.ordered)}")
    print(f"decided wave: {node.decided_wave}; DAG round: {node.current_round}")
    print(f"bits sent by correct processes: {deployment.metrics.correct_bits_total:,}")
    if gaps:
        summary = summarize(gaps)
        print(
            f"inter-commit time: mean {summary.mean:.2f}  p90 {summary.p90:.2f} "
            f"(simulated time)"
        )
        print(f"vertices per commit: {commit_sizes(node.ordering.commits)}")
    print("total order across correct nodes: OK")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    config = SystemConfig(n=args.n, seed=args.seed)
    deployment = DagRiderDeployment(config)
    deployment.run_until_wave(max(1, args.rounds // config.wave_length))
    node = deployment.correct_nodes[args.process]
    print(render_dag(node.store, max_round=args.rounds, n=config.n))
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    from repro.baselines.smr import SmrNode
    from repro.common.rng import derive_rng
    from repro.sim.adversary import UniformDelay
    from repro.sim.network import Network
    from repro.sim.scheduler import Scheduler

    config = SystemConfig(n=args.n, seed=args.seed)
    sched = Scheduler()
    network = Network(sched, config, UniformDelay(derive_rng(args.seed, "d")))
    nodes = [
        SmrNode(pid, network, protocol=args.protocol, max_slots=args.slots)
        for pid in config.processes
    ]
    for node in nodes:
        sched.call_at(0.0, node.start)
    sched.run(
        max_events=args.max_events,
        stop_when=lambda: all(n.output_count >= args.slots for n in nodes),
    )
    print(f"protocol={args.protocol} n={config.n} slots={args.slots}")
    print(f"outputs per node: {[n.output_count for n in nodes]}")
    print(f"bits sent by correct processes: {network.metrics.correct_bits_total:,}")
    blocks = nodes[0].ordered_blocks()
    print(f"blocks in node 0's log: {len(blocks)} from proposers "
          f"{sorted({b.proposer for b in blocks})}")
    return 0


def cmd_tcp_node(args: argparse.Namespace) -> int:
    from repro.runtime.peers import load_peer_table
    from repro.runtime.runner import serve_node

    table = load_peer_table(args.peers)
    return asyncio.run(
        serve_node(table, args.pid, run_seconds=args.run_seconds, state_dir=args.state_dir)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DAG-Rider reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a DAG-Rider deployment")
    _add_common(run)
    run.add_argument("--broadcast", default="bracha", choices=BROADCASTS)
    run.add_argument("--coin", default="ideal", choices=COIN_MODES)
    run.add_argument("--batch", type=int, default=1, help="transactions per block")
    run.add_argument("--blocks", type=int, default=30, help="blocks to order")
    run.add_argument("--max-events", type=int, default=2_000_000)
    run.set_defaults(fn=cmd_run)

    render = sub.add_parser("render", help="print a local DAG")
    _add_common(render)
    render.add_argument("--rounds", type=int, default=8)
    render.add_argument("--process", type=int, default=0)
    render.set_defaults(fn=cmd_render)

    baseline = sub.add_parser("baseline", help="run a baseline SMR")
    _add_common(baseline)
    baseline.add_argument(
        "--protocol", default="vaba", choices=["vaba", "dumbo", "honeybadger"]
    )
    baseline.add_argument("--slots", type=int, default=6)
    baseline.add_argument("--max-events", type=int, default=2_000_000)
    baseline.set_defaults(fn=cmd_baseline)

    node = sub.add_parser(
        "tcp-node", help="boot one node from a peer table (multi-host runner)"
    )
    node.add_argument("--peers", required=True, help="peer table (JSON file)")
    node.add_argument("--pid", type=int, required=True, help="this node's pid")
    node.add_argument(
        "--run-seconds",
        type=float,
        default=300.0,
        help="safety deadline: exit (code 2) if no control stop arrives",
    )
    node.add_argument(
        "--state-dir",
        help="durable state directory (WAL + snapshots); enables crash "
        "recovery — on boot the node replays it and rejoins via catch-up",
    )
    node.set_defaults(fn=cmd_tcp_node)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
