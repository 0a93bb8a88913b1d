"""One repetition of a ``sim-*`` workload, in a process of its own.

Run as ``python -m bench.sim_child '<json spec>'`` by ``bench/run.py``;
prints one JSON line. A fresh process per repetition makes ``peak_rss_mb``
and ``setup_s`` (spawn → deployment built, imports included) per workload.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from heapq import heappop, heappush
from pathlib import Path
from typing import Any

from bench import BenchFailure
from bench.ledger import layer_metrics
from bench.stats import nearest_rank
from bench.trace import Tracer, install
from bench.workloads import (
    SIM_MAX_EVENTS,
    SIM_MS_PER_TIME_UNIT,
    TX_BYTES,
    WORKLOADS,
    SimWorkload,
)


def speed_probe() -> int:
    """Nanoseconds a fixed 2 ms mix of heap, dict and integer work takes now.

    The simulator is interpreter-bound work of this kind, and the sandbox's
    CPU switches between two speeds for seconds at a time (bench/README.md,
    "Calibration"). A probe beside every slice of the run tells which speed
    the slice ran at, so the parent can put every slice on one scale.
    """
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    mask = 0
    start = time.perf_counter_ns()
    for i in range(5000):
        key = (i * 2654435761) & 0xFFFF
        heappush(heap, (key, i))
        table[key] = table.get(key, 0) + 1
        mask |= 1 << (key & 63)
        if i & 3 == 3:
            heappop(heap)
    return time.perf_counter_ns() - start


def build(workload: SimWorkload, seed: int) -> tuple[Any, Any]:
    """The deployment and its observability bundle, as perf/ sweeps build it."""
    from repro.common.config import SystemConfig
    from repro.core.harness import DagRiderDeployment
    from repro.obs.context import Observability

    observability = Observability()
    node_kwargs = (
        {"gc_depth": workload.gc_depth} if workload.gc_depth is not None else None
    )
    deployment = DagRiderDeployment(
        SystemConfig(n=workload.n, seed=seed),
        broadcast=workload.broadcast,
        coin_mode=workload.coin_mode,
        batch_size=workload.batch_size,
        tx_bytes=TX_BYTES,
        default_node_kwargs=node_kwargs,
        observability=observability,
    )
    return deployment, observability


def verify(deployment: Any, wave: int) -> tuple[int, int]:
    """``(attempted, failed)`` nodes; raises when the logs disagree."""
    nodes = deployment.correct_nodes
    try:
        deployment.check_total_order()
        deployment.check_integrity()
    except AssertionError as exc:
        raise BenchFailure(str(exc)) from exc
    failed = sum(1 for node in nodes if node.decided_wave < wave)
    return len(nodes), failed


def exact_counts(deployment: Any, observability: Any) -> dict[str, float]:
    """Counts that one seed fixes exactly, read from public state."""
    from repro.obs.causal import stitch

    metrics = deployment.metrics
    nodes = deployment.correct_nodes
    events = observability.bus.events
    created = [event for event in events if event.kind == "vertex_created"]
    kinds: dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    committed_txs = deployment.total_transactions_ordered()
    commits = sum(len(node.ordering.commits) for node in nodes)
    # The create->deliver edge of the causal stitch, on the raw simulated
    # clock: every (vertex, delivering node) pair is one sample.
    latencies = sorted(
        (delivered - chain.created) * SIM_MS_PER_TIME_UNIT
        for chain in stitch(events).chains.values()
        if chain.created is not None
        for delivered in chain.deliver.values()
    )
    return {
        "committed_txs": committed_txs,
        "sim.events": deployment.scheduler.events_processed,
        "sim.network_sends": metrics.messages_total,
        "sim.bits_per_tx": metrics.correct_bits_total / committed_txs,
        "broadcast.r_delivers": kinds.get("r_deliver", 0),
        "broadcast.msgs_per_vertex": metrics.messages_total / len(created),
        "dag.weak_edges_per_vertex": sum(e.get("weak") for e in created) / len(created),
        "core.commits": commits,
        "core.waves_per_commit": sum(n.decided_wave for n in nodes) / commits,
        "core.delivered": kinds.get("a_deliver", 0),
        "coin.share_msgs": metrics.messages_by_tag.get("CoinShareMessage", 0),
        "obs.events_retained": len(events),
        "ack_p50_ms": nearest_rank(latencies, 0.50),
        "ack_p95_ms": nearest_rank(latencies, 0.95),
        "ack_p99_ms": nearest_rank(latencies, 0.99),
        "ack_samples": len(latencies),
    }


def run(spec: dict[str, Any]) -> dict[str, Any]:
    workload = WORKLOADS[spec["workload"]]
    assert isinstance(workload, SimWorkload)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)
    # The cyclic collector stays off from build to the end of the run, as in
    # repro.perf.runner.run_cell_traced: the simulation allocates heavily
    # but cycle-free, and collector passes make the wall clock noisy.
    gc.disable()
    try:
        deployment, observability = build(workload, spec["seed"])
        result: dict[str, Any] = {"ready_ns": time.monotonic_ns()}
        if spec["setup_only"]:
            return result
        # run_until_wave(W) in slices of scheduler events, with a speed probe
        # before and after each; the slices' sum is this repetition's wall
        # clock.
        slices_ns: list[int] = []
        probes_ns = [speed_probe()]
        reached = False
        while not reached and len(slices_ns) * workload.slice_events < SIM_MAX_EVENTS:
            start = time.perf_counter_ns()
            reached = deployment.run_until_wave(
                workload.wave, max_events=workload.slice_events
            )
            slices_ns.append(time.perf_counter_ns() - start)
            probes_ns.append(speed_probe())
        wall_s = sum(slices_ns) / 1e9
    finally:
        gc.enable()
        if tracer is not None:
            tracer.restore()
    attempted, failed = verify(deployment, workload.wave)
    exact = exact_counts(deployment, observability)
    result.update(
        wall_s=wall_s,
        slices_ns=slices_ns,
        probes_ns=probes_ns,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted,
        failed=failed,
        exact=exact,
    )
    if tracer is not None:
        dump = tracer.dump()
        rounds = min(node.current_round for node in deployment.correct_nodes)
        extras = {name: value for name, value in exact.items() if "." in name}
        extras.update(
            {
                "sim.events_per_s": exact["sim.events"] / wall_s,
                "core.rounds_per_s": rounds / wall_s,
                "loadgen.ack_p99_ms": exact["ack_p99_ms"],
                "dag.peak_vertices": max(
                    dump["counters"].get("dag.peak_vertices", 0),  # type: ignore[union-attr]
                    max(node.store.vertex_count for node in deployment.correct_nodes),
                ),
            }
        )
        result["layers"] = layer_metrics(dump, wall_s * 1e3, extras)
        Path(spec["trace_file"]).write_text(json.dumps(dump))
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        result = run(spec)
    except BenchFailure as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
