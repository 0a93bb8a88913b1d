"""The ``rt-*`` workloads: host a cluster, load it, check it, measure it."""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import monotonic_ns
from typing import Any

from bench import ROOT, BenchFailure, child_env, loadgen
from bench.ledger import check_bypassed_layers, layer_metrics
from bench.stats import nearest_rank, summarize
from bench.workloads import (
    ACK_LIMIT_MS,
    RT_DRAIN_S,
    RT_GC_DEPTH,
    RT_NODES,
    RT_SUBMIT_BATCH,
    RT_TICK_S,
    RT_WARMUP_S,
    TX_BYTES,
    RtWorkload,
)

#: A generator that fired later than this (p99) did not offer the stated
#: load: the run is invalid, not slow. It is flagged (``# invalid:`` in the
#: output; ``suite.py --agree`` fails on it) but still exits 0, because a
#: non-zero exit means a failed correctness check to the driver.
MAX_LAG_P99_MS = 20.0

#: Deadlines (seconds) for the host to boot and to answer one command.
BOOT_TIMEOUT = 60.0
CALL_TIMEOUT = 60.0

#: Extra boots per run: ``setup_s`` is the fastest of five (the fastest, not
#: the median, because the sandbox's CPU alternates between two speeds; see
#: ``reference_wall_s`` in bench/run.py).
EXTRA_SETUPS = 4

#: Restarts behind ``storage.recovery_ms`` (a median), traced invocation.
RECOVERY_SAMPLES = 3


class HostProcess:
    """The cluster host child and its stdin/stdout command channel."""

    def __init__(self, spec: dict[str, Any]) -> None:
        self.spec = spec
        self.process: asyncio.subprocess.Process | None = None
        self.spawn_ns = 0
        self.ready: dict[str, Any] = {}

    async def start(self) -> dict[str, Any]:
        self.spawn_ns = monotonic_ns()
        self.process = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "bench.cluster_host", json.dumps(self.spec),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            cwd=ROOT,
            env=child_env(),
            limit=1 << 26,
        )
        self.ready = await self._read(BOOT_TIMEOUT)
        return self.ready

    async def _read(self, timeout: float) -> dict[str, Any]:
        assert self.process is not None and self.process.stdout is not None
        line = await asyncio.wait_for(self.process.stdout.readline(), timeout)
        if not line:
            raise BenchFailure("cluster host exited without answering")
        return json.loads(line)

    async def call(self, command: str) -> dict[str, Any]:
        assert self.process is not None and self.process.stdin is not None
        self.process.stdin.write(json.dumps({"cmd": command}).encode() + b"\n")
        await self.process.stdin.drain()
        return await self._read(CALL_TIMEOUT)

    async def stop(self) -> None:
        """Clean stop; falls back to kill when the host does not answer."""
        if self.process is None or self.process.returncode is not None:
            return
        try:
            await self.call("stop")
            await asyncio.wait_for(self.process.wait(), 10.0)
        except (asyncio.TimeoutError, BenchFailure, ConnectionError, OSError):
            await self.kill()

    async def kill(self) -> None:
        """SIGKILL and reap; safe on a process that already ended."""
        if self.process is None:
            return
        if self.process.returncode is None:
            self.process.kill()
        await self.process.wait()


async def _boot(spec: dict[str, Any], seed: int) -> tuple[HostProcess, loadgen.Client, float]:
    """Host up, ingress open, both client connections up; returns setup_s."""
    host = HostProcess(spec)
    try:
        ready = await host.start()
        client = loadgen.Client(ready["ingress_port"], seed, TX_BYTES)
        await client.connect()
    except BaseException:
        await host.kill()
        raise
    return host, client, (monotonic_ns() - host.spawn_ns) / 1e9


async def _setup_only(spec: dict[str, Any], seed: int) -> float:
    host, client, setup_s = await _boot(spec, seed)
    try:
        await client.close()
    finally:
        await host.stop()
    return setup_s


def _host_spec(
    workload: RtWorkload, seed: int, traced: bool, out: Path, label: str
) -> dict[str, Any]:
    """What ``cluster_host`` boots; the durable workload gets empty state dirs."""
    spec: dict[str, Any] = {
        "n": RT_NODES, "seed": seed, "gc_depth": RT_GC_DEPTH, "trace": traced,
    }
    if workload.durable:
        base = out / "state" / f"{workload.name}-{label}"
        shutil.rmtree(base, ignore_errors=True)
        spec["state_dirs"] = {
            str(pid): str(base / f"node-{pid}") for pid in range(RT_NODES)
        }
    return spec


def _wal_bytes(state_dirs: dict[str, str]) -> int:
    return sum(
        os.path.getsize(os.path.join(path, "wal.log"))
        for path in state_dirs.values()
        if os.path.exists(os.path.join(path, "wal.log"))
    )


def check_recovered_logs(
    before: dict[str, Any], after: dict[str, Any], acked: set[str]
) -> None:
    """The durable workload's fault check.

    Each node's recovered digest log must extend its pre-stop log, and every
    txid acked by the stopped incarnation must have a position in node 0's
    pre-stop log (which the recovered log then contains, digests covering
    block bytes).
    """
    for pid, (old, new) in enumerate(zip(before["digests"], after["digests"])):
        if new[: len(old)] != old:
            position = next(
                (i for i, (a, b) in enumerate(zip(old, new)) if a != b), len(new)
            )
            raise BenchFailure(
                f"node {pid}: recovered log diverges from its pre-stop log "
                f"at position {position} (pre-stop {len(old)}, recovered {len(new)})"
            )
    missing = [txid for txid in acked if txid not in before["tx_positions"]]
    if missing:
        raise BenchFailure(
            f"{len(missing)} acked txids are not in node 0's log, e.g. {missing[0]}"
        )


async def _load(
    workload: RtWorkload, host: HostProcess, client: loadgen.Client, seconds: float
) -> dict[str, Any]:
    """Warm up, run the measured window, drain; returns begin/end reports."""
    stats = client.stats
    warmup_ns = int(RT_WARMUP_S * 1e9)
    window_ns = int(seconds * 1e9)
    start_ns = monotonic_ns() + 10_000_000
    stats.measure_from_ns = start_ns + warmup_ns
    end_ns = stats.measure_from_ns + window_ns

    async def begin_at_measure_start() -> dict[str, Any]:
        await asyncio.sleep(max(0.0, (stats.measure_from_ns - monotonic_ns()) / 1e9))
        return await host.call("begin")

    begin_task = asyncio.create_task(begin_at_measure_start())
    try:
        if workload.loop == "open":
            tick_ns = int(RT_TICK_S * 1e9)
            per_tick = round(workload.rate * RT_TICK_S)
            await loadgen.run_open_loop(
                client, start_ns, tick_ns, (warmup_ns + window_ns) // tick_ns, per_tick
            )
        else:
            await loadgen.run_closed_loop(client, end_ns, workload.window, RT_SUBMIT_BATCH)
        begin = await begin_task
    except BaseException:
        begin_task.cancel()
        raise
    # The ledger covers the load window only: read it before the drain.
    end = await host.call("end")
    await loadgen.drain(client, RT_DRAIN_S)
    return {"begin": begin, "end": end}


def _client_checks(stats: loadgen.LoadStats) -> None:
    if stats.errors:
        raise BenchFailure(f"{len(stats.errors)} client errors, first: {stats.errors[0]}")
    if stats.ack_dropped:
        raise BenchFailure(f"ack stream dropped {stats.ack_dropped} acks")


async def _restart_and_check(
    workload: RtWorkload,
    spec: dict[str, Any],
    seed: int,
    before: dict[str, Any],
    acked: set[str],
    restarts: int,
) -> tuple[list[float], dict[str, Any]]:
    """Re-host from the state dirs ``restarts`` times; returns recovery times.

    Recovery time runs from the host's respawn to the first ack of a
    transaction submitted after the restart. After each restart the
    recovered logs are checked against the logs read before the kill.
    """
    recovery_s: list[float] = []
    ready: dict[str, Any] = {}
    for attempt in range(restarts):
        host, client, _setup_s = await _boot(spec, seed + 1000 * (attempt + 1))
        try:
            ready = host.ready
            client.stats.measure_from_ns = 1
            while client.stats.first_ack_ns is None:
                if (monotonic_ns() - host.spawn_ns) / 1e9 > BOOT_TIMEOUT:
                    raise BenchFailure("no ack within the deadline after a restart")
                await client.send_batch(monotonic_ns(), 8)
                await asyncio.sleep(0.05)
            recovery_s.append((client.stats.first_ack_ns - host.spawn_ns) / 1e9)
            await loadgen.drain(client, RT_DRAIN_S)
            _client_checks(client.stats)
            after = await host.call("logs")
            check_recovered_logs(before, after, acked)
            # Earlier acks are covered from here on by the prefix check:
            # ``tx_positions`` only spans the host's own incarnation.
            acked = set(client.stats.acked)
            before = after
        finally:
            await client.close()
            await host.kill()  # the next restart recovers from a crash again
    return recovery_s, ready


async def _measure(
    workload: RtWorkload,
    seed: int,
    seconds: float,
    traced: bool,
    out: Path,
    restarts: int = 1,
) -> dict[str, Any]:
    """One hosted run of the workload; returns raw measurements."""
    spec = _host_spec(workload, seed, traced, out, "traced" if traced else "untraced")
    host, client, setup_s = await _boot(spec, seed)
    stats = client.stats
    try:
        reports = await _load(workload, host, client, seconds)
        _client_checks(stats)
        check = await host.call("check")
        if not check["ok"]:
            raise BenchFailure(check["error"])
        before = await host.call("logs") if workload.durable else None
    finally:
        await client.close()
        if workload.durable:
            await host.kill()  # the fault: no clean close, no final fsync
        else:
            await host.stop()

    result: dict[str, Any] = {"setup_s": setup_s, "stats": stats, **reports}
    if workload.durable:
        assert before is not None
        result["wal_bytes_at_stop"] = _wal_bytes(spec["state_dirs"])
        result["recovery_s"], result["restart_ready"] = await _restart_and_check(
            workload, spec, seed, before, set(stats.acked), restarts
        )
    return result


def quietest_bucket(
    acks: list[tuple[int, int]], attempted_per_bucket: dict[int, int], start_ns: int
) -> list[float]:
    """Ack latencies (ms, ascending) of the window's quietest half second.

    The sandbox's CPU halves its speed for seconds at a time (see
    ``reference_wall_s`` in bench/run.py), and on an open loop that goes
    straight into latency, so percentiles over the whole window do not repeat
    from run to run. Transactions are bucketed by the half second they were
    due in; a bucket counts only if every transaction due in it was acked
    (its percentiles would otherwise leave out the worst ones); the bucket
    with the lowest median is the one the neighbours disturbed least. The
    price: a stall rarer than twice a second can hide from the bounded
    percentiles; the whole-window ones are printed beside them and p99 is in
    the ledger.
    """
    buckets: dict[int, list[float]] = {}
    for due, received in acks:
        buckets.setdefault((due - start_ns) // loadgen.BUCKET_NS, []).append(
            (received - due) / 1e6
        )
    complete = [
        sorted(latencies)
        for bucket, latencies in buckets.items()
        if len(latencies) == attempted_per_bucket[bucket]
    ]
    if not complete:
        raise BenchFailure("no bucket of the window had all its transactions acked")
    return min(complete, key=lambda latencies: nearest_rank(latencies, 0.50))


def fastest_half_window(received_ns: list[int], start_ns: int, seconds: float) -> float:
    """Acks per second over the best contiguous half of the measured window.

    The closed loops' throughput, with the same reasoning as above: the
    window is cut into tenths, and the five consecutive tenths that received
    the most acks count. An undisturbed run reads the same as acks ÷ seconds.
    """
    tenth_ns = seconds * 1e9 / 10
    counts = [0] * 10
    for received in received_ns:
        index = int((received - start_ns) // tenth_ns)
        if 0 <= index < 10:
            counts[index] += 1
    best = max(sum(counts[i : i + 5]) for i in range(6))
    return best / (seconds / 2)


def _end_to_end(
    workload: RtWorkload, seconds: float, run: dict[str, Any], setups: list[float]
) -> tuple[dict[str, float], int, int]:
    stats: loadgen.LoadStats = run["stats"]
    latencies = stats.latencies_ms()
    if workload.loop == "open":
        tx_per_s = len(latencies) / seconds
        within = sum(1 for value in latencies if value <= ACK_LIMIT_MS)
    else:
        tx_per_s = fastest_half_window(
            [ack[1] for ack in stats.acks.values()], stats.measure_from_ns, seconds
        )
        within = len(latencies)
    quiet = quietest_bucket(
        [ack[:2] for ack in stats.acks.values()],
        stats.attempted_per_bucket,
        stats.measure_from_ns,
    )
    metrics = {
        "tx_per_s": tx_per_s,
        "ack_p50_ms": nearest_rank(quiet, 0.50),
        "ack_p95_ms": nearest_rank(quiet, 0.95),
        "peak_rss_mb": run["end"]["rss_mb"],
        "within_limit_frac": within / stats.attempted,
        "setup_s": min(setups),
    }
    return metrics, stats.attempted, stats.attempted - len(latencies)


def _lag_p99_ms(stats: loadgen.LoadStats) -> float:
    return nearest_rank(sorted(stats.lags_ns), 0.99) / 1e6


def _invalid(lag_p99_ms: float) -> str | None:
    """Why the run is invalid (the stated load was not offered), or None."""
    if lag_p99_ms <= MAX_LAG_P99_MS:
        return None
    return (
        f"the generator fired {lag_p99_ms:.1f} ms late at p99 "
        f"(limit {MAX_LAG_P99_MS:g} ms): invalid, not slow"
    )


def _rounds_per_s(run: dict[str, Any]) -> float:
    begin, end = run["begin"], run["end"]
    elapsed = (end["now_ns"] - begin["now_ns"]) / 1e9
    return (min(end["rounds"]) - min(begin["rounds"])) / elapsed


def _layers(
    workload: RtWorkload, untraced: dict[str, Any], traced: dict[str, Any]
) -> dict[str, float]:
    begin, end = traced["begin"], traced["end"]
    stats: loadgen.LoadStats = traced["stats"]
    dump = end["trace"]
    elapsed_s = (end["now_ns"] - begin["now_ns"]) / 1e9
    links = {
        key: end["links"][key] - begin["links"][key]
        for key in ("frames_sent", "retries", "redeliveries", "acks_sent")
    }
    acked = len(stats.acks)
    ack_out = [
        ack[1] - dump["delivered_ns"][txid]
        for txid, ack in stats.acks.items()
        if txid in dump["delivered_ns"]
    ]
    functions = dump["functions"]
    waves = sum(end["waves"]) - sum(begin["waves"])
    commits = sum(end["commits"]) - sum(begin["commits"])
    syncs = functions.get("storage.sync/WriteAheadLog.sync", {}).get("calls", 0)
    vertices = functions["broadcast/BrachaBroadcast.r_bcast"]["calls"]
    extras: dict[str, float] = {
        "core.rounds_per_s": _rounds_per_s(traced),
        "broadcast.r_delivers": functions["dag.builder/DagBuilder.on_r_deliver"]["calls"],
        "broadcast.msgs_per_vertex": links["frames_sent"] / vertices,
        "core.commits": commits,
        "core.waves_per_commit": waves / commits if commits else 0.0,
        "core.delivered": acked,
        "dag.peak_vertices": end["vertices"],
        "mempool.busy_verdicts": stats.busy_verdicts,
        "mempool.ack_out_ms_p50": (
            nearest_rank(sorted(ack_out), 0.50) / 1e6 if ack_out else 0.0
        ),
        "runtime.frames_sent": links["frames_sent"],
        "runtime.retries": links["retries"],
        "runtime.redeliveries": links["redeliveries"],
        "runtime.acks_sent": links["acks_sent"],
        "runtime.queue_depth_max": end["queue_depth_max"],
        "runtime.cpu_frac": (end["cpu_s"] - begin["cpu_s"]) / elapsed_s,
        "runtime.bits_per_tx": (
            8 * dump["counters"].get("runtime.bytes_enqueued", 0) / acked
        ),
        "storage.syncs_per_commit": syncs / commits if commits else 0.0,
        "obs.events_retained": end["events"],
        "loadgen.offered_tx_per_s": stats.attempted / elapsed_s,
        "loadgen.lag_p99_ms": _lag_p99_ms(stats),
        "loadgen.connections": 2,
        "loadgen.ack_p99_ms": nearest_rank(
            sorted(untraced["stats"].latencies_ms()), 0.99
        ),
        "trace.overhead_frac": _rounds_per_s(untraced) / _rounds_per_s(traced) - 1.0,
    }
    if workload.durable:
        boot_dump = traced["restart_ready"]["trace"]
        recovery = [r for r in traced["restart_ready"]["recovery"] if r is not None]
        extras.update(
            {
                "storage.replay_records": sum(
                    r["replayed_vertices"] + r["replayed_commits"] + r["replayed_created"]
                    for r in recovery
                ),
                "storage.replay_ms": boot_dump["buckets_ns"].get("storage.replay", 0) / 1e6,
                "storage.recovery_ms": statistics.median(untraced["recovery_s"]) * 1e3,
                "storage.wal_bytes_at_stop": traced["wal_bytes_at_stop"],
            }
        )
    return layer_metrics(dump, elapsed_s * 1e3, extras)


async def run_workload(
    workload: RtWorkload, seed: int, seconds: float, traced: bool, out: Path
) -> dict[str, Any]:
    """The workload's result: metrics, attempted/failed, and the trace."""
    if not traced:
        run = await _measure(workload, seed, seconds, False, out)
        setups = [run["setup_s"]]
        for _ in range(EXTRA_SETUPS):
            setups.append(await _setup_only(_host_spec(workload, seed, False, out, "setup"), seed))
        metrics, attempted, failed = _end_to_end(workload, seconds, run, setups)
        stats = run["stats"]
        lag_p99 = _lag_p99_ms(stats)
        latencies = sorted(stats.latencies_ms())
        window_end_ns = stats.measure_from_ns + seconds * 1e9
        notes = {
            "invalid": _invalid(lag_p99),
            "ack_whole_window": {
                **summarize(latencies), "p95": nearest_rank(latencies, 0.95),
            },
            "acks_per_s_whole_window": sum(
                1 for ack in stats.acks.values() if ack[1] <= window_end_ns
            ) / seconds,
            "lag_p99_ms": lag_p99,
            "setup_s_samples": setups,
            "rounds_per_s": _rounds_per_s(run),
            "waves": run["end"]["waves"],
            "busy_verdicts": stats.busy_verdicts,
            "recovery_s": run.get("recovery_s"),
        }
        return {
            "metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes,
        }
    # Layer numbers come from a traced run; an untraced run of the same
    # length beside it gives the tracing overhead. Each gets half the time.
    untraced_run = await _measure(
        workload, seed, seconds / 2, False, out, restarts=RECOVERY_SAMPLES
    )
    traced_run = await _measure(workload, seed, seconds / 2, True, out)
    stats = traced_run["stats"]
    layers = _layers(workload, untraced_run, traced_run)
    check_bypassed_layers(workload, layers)
    trace_path = out / f"trace-{workload.name}.json"
    dump = traced_run["end"]["trace"]
    dump.pop("delivered_ns")
    # The client's half of each sampled transaction's chain; the ack line's
    # own round joins it to the vertex spans of the same file.
    sampled = {span[3] for span in dump["spans"] if isinstance(span[3], str)}
    dump["client"] = {
        txid: dict(zip(("due_ns", "ack_ns", "round"), stats.acks[txid]))
        for txid in sampled
        if txid in stats.acks
    }
    trace_path.write_text(json.dumps(dump))
    return {
        "metrics": layers,
        "attempted": stats.attempted,
        "failed": stats.attempted - len(stats.acks),
        "notes": {
            "invalid": _invalid(layers["loadgen.lag_p99_ms"]),
            "trace_file": str(trace_path),
        },
    }
