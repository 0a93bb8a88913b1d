"""The frozen workload table and metric catalogue.

``BENCHMARK.json`` repeats the names, units and directions below for the
driver; ``bench/tests/test_catalogue.py`` keeps the two in step. Wave
targets were calibrated once (bench/README.md, "Calibration") so that one
repetition of a ``sim-*`` workload takes 2.4–2.9 s on the reference sandbox,
and are frozen: changing one re-bases every number measured with it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: A transaction acked later than this on the open-loop workload misses the
#: latency limit (and so does one that is refused, failed or never acked).
ACK_LIMIT_MS = 500.0

#: The simulated network draws one-way delays uniformly from [0.1, 1.0] time
#: units; the sim workloads fix the scale at one time unit = one millisecond.
SIM_MS_PER_TIME_UNIT = 1.0

TX_BYTES = 128

#: A ``sim-*`` repetition that has not reached its wave by then has failed.
SIM_MAX_EVENTS = 5_000_000

#: Every ``rt-*`` workload: the smallest cluster with f >= 1, bounded DAG,
#: one second of unmeasured warm-up, at most two of drain.
RT_NODES = 4
RT_GC_DEPTH = 8
RT_WARMUP_S = 1.0
RT_DRAIN_S = 2.0
#: Most txs per ``submit_batch`` request; 128 × 128 B hex stays well under
#: the gateway's 64 KiB request-line limit.
RT_SUBMIT_BATCH = 128
#: The open loop's schedule: one batch of ``rate × tick`` txs every tick.
RT_TICK_S = 0.010

#: What ``bench.sim_child.speed_probe`` reads between slices of a simulation
#: on the reference sandbox at full speed. ``sim-*`` wall clocks are scaled to it; frozen, like the wave targets.
REFERENCE_PROBE_NS = 2_900_000


@dataclass(frozen=True)
class SimWorkload:
    """Fixed work: build a deployment, run it to ``wave``, repeat."""

    name: str
    why: str
    n: int
    broadcast: str
    batch_size: int
    coin_mode: str
    wave: int
    #: Scheduler events per timed slice: about 30 ms of work (see
    #: ``bench.sim_child.speed_probe``).
    slice_events: int
    gc_depth: int | None = None


@dataclass(frozen=True)
class RtWorkload:
    """Timed load against a four-node ``LocalCluster`` in one host process."""

    name: str
    why: str
    loop: str  # "open" (fixed rate) or "closed" (fixed window)
    rate: float = 0.0  # tx/s, open loop
    window: int = 0  # un-acked txs, closed loop
    durable: bool = False


WORKLOADS: dict[str, SimWorkload | RtWorkload] = {
    w.name: w
    for w in (
        SimWorkload(
            "sim-bracha-n25",
            "n=25 Bracha, ideal coin: ~0.5M per-message handlings, so sim/ and "
            "broadcast/ do most of the work and dag/ about a tenth",
            n=25, broadcast="bracha", batch_size=25, coin_mode="ideal", wave=4,
            slice_events=6000,
        ),
        SimWorkload(
            "sim-avid-n13",
            "n=13 AVID, batch 48: the only workload that calls codes/ "
            "(Reed-Solomon, Merkle) and uses broadcast/ by dispersal",
            n=13, broadcast="avid", batch_size=48, coin_mode="ideal", wave=14,
            slice_events=3000,
        ),
        SimWorkload(
            "sim-deep-n4",
            "n=4 threshold coin, no GC, deep unbounded DAG: vertex creation's "
            "weak-edge scan, core/ordering and coin/ dominate, broadcast/ is small",
            n=4, broadcast="bracha", batch_size=4, coin_mode="threshold", wave=140,
            slice_events=800,
        ),
        SimWorkload(
            "sim-gc-n7",
            "n=7 threshold coin with gc_depth=8: bounded store, DagStore.compact "
            "on the hot path, the steady-state memory workload",
            n=7, broadcast="bracha", batch_size=7, coin_mode="threshold", wave=90,
            slice_events=3000, gc_depth=8,
        ),
        RtWorkload(
            "rt-open-n4",
            "open loop at 1200 tx/s (about 40% of saturation), memory-only: the "
            "latency workload; mempool deadline, codec/, runtime/ and Bracha set "
            "the ack time and storage/ is never called",
            loop="open", rate=1200.0,
        ),
        RtWorkload(
            "rt-closed-n4",
            "closed loop, 1024 un-acked txs, memory-only: saturation throughput, "
            "limited by total CPU per committed tx across four replicas",
            loop="closed", window=1024,
        ),
        RtWorkload(
            "rt-durable-n4",
            "closed loop with WAL+snapshots (fsync=commit), then SIGKILL and "
            "restart from the state dirs: storage/ appends, fsyncs and replay; "
            "the fault run",
            loop="closed", window=1024, durable=True,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may worsen (end-to-end only).
    bound: float | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric("tx_per_s", "tx/s", "higher", 0.25),
    Metric("ack_p50_ms", "ms", "lower", 0.25),
    Metric("ack_p95_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
    Metric("within_limit_frac", "fraction", "higher", 0.05),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Layer metrics, traced run. ``*_busy_ms`` is self time; on ``rt-*`` it is
#: summed over the four replicas in the host.
PER_LAYER: tuple[Metric, ...] = tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        ("sim.events", "count", "lower"),
        ("sim.network_sends", "count", "lower"),
        ("sim.bits_per_tx", "bits", "lower"),
        ("sim.busy_ms", "ms", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("broadcast.handle_calls", "count", "lower"),
        ("broadcast.r_delivers", "count", "lower"),
        ("broadcast.msgs_per_vertex", "count", "lower"),
        ("broadcast.busy_ms", "ms", "lower"),
        ("codes.encode_calls", "count", "lower"),
        ("codes.decode_calls", "count", "lower"),
        ("codes.merkle_verify_calls", "count", "lower"),
        ("codes.bytes_encoded", "bytes", "lower"),
        ("codes.cache_hit_ratio", "fraction", "higher"),
        ("codes.busy_ms", "ms", "lower"),
        ("dag.add_calls", "count", "lower"),
        ("dag.add_busy_ms", "ms", "lower"),
        ("dag.builder_busy_ms", "ms", "lower"),
        ("dag.compact_calls", "count", "lower"),
        ("dag.compact_busy_ms", "ms", "lower"),
        ("dag.weak_edges_per_vertex", "count", "lower"),
        ("dag.peak_vertices", "count", "lower"),
        ("core.wave_ready_calls", "count", "lower"),
        ("core.commits", "count", "higher"),
        ("core.waves_per_commit", "count", "lower"),
        ("core.delivered", "count", "higher"),
        ("core.ordering_busy_ms", "ms", "lower"),
        ("core.rounds_per_s", "1/s", "higher"),
        ("coin.invoke_calls", "count", "lower"),
        ("coin.share_msgs", "count", "lower"),
        ("coin.reconstruct_calls", "count", "lower"),
        ("coin.busy_ms", "ms", "lower"),
        ("mempool.submit_calls", "count", "higher"),
        ("mempool.submit_busy_ms", "ms", "lower"),
        ("mempool.busy_verdicts", "count", "lower"),
        ("mempool.batches", "count", "lower"),
        ("mempool.txs_per_batch", "count", "higher"),
        ("mempool.queue_wait_ms_p50", "ms", "lower"),
        ("mempool.commit_wait_ms_p50", "ms", "lower"),
        ("mempool.ack_out_ms_p50", "ms", "lower"),
        ("codec.encode_calls", "count", "lower"),
        ("codec.decode_calls", "count", "lower"),
        ("codec.bytes_encoded", "bytes", "lower"),
        ("codec.encodes_per_broadcast", "count", "lower"),
        ("codec.encode_busy_ms", "ms", "lower"),
        ("codec.decode_busy_ms", "ms", "lower"),
        ("runtime.broadcast_calls", "count", "lower"),
        ("runtime.send_busy_ms", "ms", "lower"),
        ("runtime.frames_sent", "count", "lower"),
        ("runtime.bytes_sent", "bytes", "lower"),
        ("runtime.bits_per_tx", "bits", "lower"),
        ("runtime.retries", "count", "lower"),
        ("runtime.redeliveries", "count", "lower"),
        ("runtime.acks_sent", "count", "lower"),
        ("runtime.queue_depth_max", "count", "lower"),
        ("runtime.cpu_frac", "fraction", "lower"),
        ("storage.appends", "count", "lower"),
        ("storage.bytes_appended", "bytes", "lower"),
        ("storage.append_busy_ms", "ms", "lower"),
        ("storage.syncs", "count", "lower"),
        ("storage.sync_busy_ms", "ms", "lower"),
        ("storage.syncs_per_commit", "count", "lower"),
        ("storage.snapshots", "count", "lower"),
        ("storage.snapshot_busy_ms", "ms", "lower"),
        ("storage.replay_records", "count", "lower"),
        ("storage.replay_ms", "ms", "lower"),
        ("storage.recovery_ms", "ms", "lower"),
        ("storage.wal_bytes_at_stop", "bytes", "lower"),
        ("obs.emit_calls", "count", "lower"),
        ("obs.events_retained", "count", "lower"),
        ("obs.busy_ms", "ms", "lower"),
        ("loadgen.offered_tx_per_s", "tx/s", "higher"),
        ("loadgen.lag_p99_ms", "ms", "lower"),
        ("loadgen.connections", "count", "lower"),
        ("loadgen.ack_p99_ms", "ms", "lower"),
        ("trace.wall_ms", "ms", "lower"),
        ("trace.coverage_frac", "fraction", "higher"),
        ("trace.overhead_frac", "fraction", "lower"),
    )
)

#: Counts that must repeat exactly on ``sim-*`` for one seed: between
#: repetitions, between the untraced and the traced run, and between
#: invocations. A difference fails the run.
SIM_EXACT: tuple[str, ...] = (
    "sim.events",
    "sim.network_sends",
    "sim.bits_per_tx",
    "broadcast.r_delivers",
    "broadcast.msgs_per_vertex",
    "dag.weak_edges_per_vertex",
    "core.commits",
    "core.waves_per_commit",
    "core.delivered",
    "coin.share_msgs",
    "obs.events_retained",
    "ack_p50_ms",
    "ack_p95_ms",
    "ack_p99_ms",
    "committed_txs",
)
