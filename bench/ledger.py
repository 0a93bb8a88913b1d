"""From a tracer dump to the per-layer metrics, by the catalogue's names."""

from __future__ import annotations

from typing import Mapping

from bench import BenchFailure
from bench.stats import nearest_rank
from bench.workloads import PER_LAYER, RtWorkload, SimWorkload


def _p50_ms(samples_ns: list[float]) -> float:
    return nearest_rank(sorted(samples_ns), 0.50) / 1e6 if samples_ns else 0.0


def layer_metrics(
    dump: Mapping[str, object], wall_ms: float, extras: Mapping[str, float]
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric; what a workload never calls reads 0.

    ``dump`` is ``Tracer.dump()`` (for ``rt-*``, the host's, covering the
    load window); ``extras`` carries what is read from the program's public
    state or the load generator instead of from a wrapper, and wins.
    """
    functions: Mapping[str, Mapping[str, int]] = dump["functions"]  # type: ignore[assignment]
    buckets: Mapping[str, int] = dump["buckets_ns"]  # type: ignore[assignment]
    counters: Mapping[str, int] = dump["counters"]  # type: ignore[assignment]
    samples: Mapping[str, list[float]] = dump["samples"]  # type: ignore[assignment]

    def calls(*names: str) -> int:
        return sum(functions[name]["calls"] for name in names if name in functions)

    def busy_ms(*names: str) -> float:
        return sum(buckets.get(name, 0) for name in names) / 1e6

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    tcp_broadcasts = calls("runtime/TcpNetwork.broadcast")
    values: dict[str, float] = {
        "sim.busy_ms": busy_ms("sim"),
        "broadcast.handle_calls": calls(
            "broadcast/BrachaBroadcast.handle", "broadcast/AvidBroadcast.handle"
        ),
        "broadcast.busy_ms": busy_ms("broadcast"),
        "codes.encode_calls": calls("codes/rs_encode"),
        "codes.decode_calls": calls("codes/rs_decode"),
        "codes.merkle_verify_calls": calls("codes/verify_proof"),
        "codes.bytes_encoded": counters.get("codes.bytes_encoded", 0),
        "codes.cache_hit_ratio": ratio(
            counters.get("codes.cache_hits", 0), counters.get("codes.cache_gets", 0)
        ),
        "codes.busy_ms": busy_ms("codes"),
        "dag.add_calls": calls("dag.add/DagStore.add"),
        "dag.add_busy_ms": busy_ms("dag.add"),
        "dag.builder_busy_ms": busy_ms("dag.builder"),
        "dag.compact_calls": calls("dag.compact/DagStore.compact"),
        "dag.compact_busy_ms": busy_ms("dag.compact"),
        "dag.peak_vertices": counters.get("dag.peak_vertices", 0),
        "core.wave_ready_calls": calls("core/DagRiderOrdering.wave_ready"),
        "core.ordering_busy_ms": busy_ms("core"),
        "coin.invoke_calls": calls("coin/ThresholdCoin.invoke"),
        "coin.reconstruct_calls": calls("coin/reconstruct_secret"),
        "coin.busy_ms": busy_ms("coin"),
        "mempool.submit_calls": calls("mempool/Mempool.submit"),
        "mempool.submit_busy_ms": functions.get("mempool/Mempool.submit", {}).get(
            "self_ns", 0
        ) / 1e6,
        "mempool.batches": counters.get("mempool.batches", 0),
        "mempool.txs_per_batch": ratio(
            counters.get("mempool.batched_txs", 0), counters.get("mempool.batches", 0)
        ),
        "mempool.queue_wait_ms_p50": _p50_ms(samples.get("mempool.queue_wait_ns", [])),
        "mempool.commit_wait_ms_p50": _p50_ms(
            samples.get("mempool.commit_wait_ns", [])
        ),
        "codec.encode_calls": calls("codec.encode/encode_message"),
        "codec.decode_calls": calls("codec.decode/decode_message"),
        "codec.bytes_encoded": counters.get("codec.bytes_encoded", 0),
        "codec.encodes_per_broadcast": ratio(
            counters.get("codec.encodes_in_broadcast", 0), tcp_broadcasts
        ),
        "codec.encode_busy_ms": busy_ms("codec.encode"),
        "codec.decode_busy_ms": busy_ms("codec.decode"),
        "runtime.broadcast_calls": tcp_broadcasts,
        "runtime.send_busy_ms": busy_ms("runtime"),
        "runtime.bytes_sent": counters.get("runtime.bytes_enqueued", 0),
        "storage.appends": calls("storage.append/WriteAheadLog.append"),
        "storage.bytes_appended": counters.get("storage.bytes_appended", 0),
        "storage.append_busy_ms": busy_ms("storage.append"),
        "storage.syncs": calls("storage.sync/WriteAheadLog.sync"),
        "storage.sync_busy_ms": busy_ms("storage.sync"),
        "storage.snapshots": calls("storage.snapshot/NodeJournal.write_snapshot"),
        "storage.snapshot_busy_ms": busy_ms("storage.snapshot"),
        "obs.emit_calls": calls("obs/EventBus.emit"),
        "obs.busy_ms": busy_ms("obs"),
        "trace.wall_ms": wall_ms,
        "trace.coverage_frac": ratio(sum(buckets.values()) / 1e6, wall_ms),
    }
    values.update(extras)
    return {metric.name: float(values.get(metric.name, 0.0)) for metric in PER_LAYER}


def check_bypassed_layers(
    workload: SimWorkload | RtWorkload, layers: Mapping[str, float]
) -> None:
    """Fail the run if a layer the workload is stated to bypass did any work.

    The bypass workloads are what makes "no change expected here" a
    prediction that can fail, so the zeros are checked, not assumed.
    """
    if isinstance(workload, SimWorkload):
        bypassed = ["codec.", "runtime.", "storage.", "mempool."]
        if workload.broadcast != "avid":
            bypassed.append("codes.")
        if workload.coin_mode == "ideal":
            bypassed.append("coin.")
    else:
        bypassed = ["sim.", "codes.", "coin."]  # the clusters run the ideal coin
        if not workload.durable:
            bypassed.append("storage.")
    busy = {
        name: value
        for name, value in layers.items()
        if value and name.startswith(tuple(bypassed))
    }
    if busy:
        raise BenchFailure(f"{workload.name} is stated to bypass these: {busy}")
