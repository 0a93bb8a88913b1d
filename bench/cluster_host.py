"""Host a four-node ``LocalCluster`` for the ``rt-*`` workloads.

Run as ``python -m bench.cluster_host '<json spec>'`` by ``bench/rt.py``.
The cluster is ``n`` ``NodeRunner``s — the boot path of ``python -m repro
tcp-node`` — on loopback TCP with ingress gateways, in this one process, so
that on a two-core box one core runs the protocol and one the load
generator. The parent drives it with newline-JSON commands on stdin and
reads one JSON line per command on stdout; the first line is the ``ready``
report. The parent ends the process with ``stop`` (clean) or SIGKILL (the
durable workload's fault); if the parent dies, stdin reaches EOF and the
host stops by itself, so no listener is orphaned.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from typing import Any

from bench.trace import Tracer, install


def _tx_positions(node: Any) -> dict[str, int]:
    """txid -> log position, for the transactions ``node`` itself proposed."""
    from repro.mempool.admission import txid_of

    positions: dict[str, int] = {}
    for entry in node.ordered:
        if entry.block.proposer == node.pid:
            for tx in entry.block.transactions:
                positions[txid_of(tx)] = entry.position
    return positions


class Host:
    def __init__(self, spec: dict[str, Any], tracer: Tracer | None) -> None:
        self.spec = spec
        self.tracer = tracer
        self.cluster: Any = None
        self.queue_depth_max = 0
        self._sampler: asyncio.Task[None] | None = None

    async def boot(self) -> dict[str, Any]:
        from repro.common.config import SystemConfig
        from repro.obs.context import Observability
        from repro.runtime.cluster import LocalCluster
        from repro.runtime.peers import allocate_port_block

        n = self.spec["n"]
        ports = allocate_port_block(2 * n)
        state_dirs = self.spec.get("state_dirs")
        self.cluster = LocalCluster(
            SystemConfig(n=n, seed=self.spec["seed"]),
            peers={pid: ("127.0.0.1", ports[pid]) for pid in range(n)},
            ingress_ports={pid: ports[n + pid] for pid in range(n)},
            observability=Observability(),
            state_dirs=(
                {int(pid): path for pid, path in state_dirs.items()}
                if state_dirs
                else None
            ),
            gc_depth=self.spec["gc_depth"],
        )
        await self.cluster.start()
        for network in self.cluster.networks:
            network.set_peer_delay(0.0)  # stated: no injected message delay
        return {
            "ready": True,
            "ready_ns": time.monotonic_ns(),
            "ingress_port": ports[n],
            "recovery": [
                runner.recovery.as_dict() if runner.recovery is not None else None
                for runner in self.cluster.runners
            ],
            "trace": self.tracer.dump() if self.tracer is not None else None,
        }

    async def _sample_queue_depth(self) -> None:
        while True:
            depth = sum(network.queue_depth for network in self.cluster.networks)
            self.queue_depth_max = max(self.queue_depth_max, depth)
            await asyncio.sleep(0.1)

    def status(self) -> dict[str, Any]:
        nodes = self.cluster.nodes
        cpu = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "now_ns": time.monotonic_ns(),
            "cpu_s": cpu.ru_utime + cpu.ru_stime,
            "rss_mb": cpu.ru_maxrss / 1024.0,
            "rounds": [node.current_round for node in nodes],
            "waves": [node.decided_wave for node in nodes],
            "commits": [len(node.ordering.commits) for node in nodes],
            "vertices": max(node.store.vertex_count for node in nodes),
            "events": len(self.cluster.observability.bus),
            "links": self.cluster.link_report(),
            "queue_depth_max": self.queue_depth_max,
        }

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        from repro.common.errors import ConsistencyError
        from repro.runtime.consistency import full_digest_log

        command = request.get("cmd")
        if command == "status":
            return self.status()
        if command == "begin":
            # Load starts: what boot and warm-up cost is not in the ledger.
            self.queue_depth_max = 0
            if self.tracer is not None:
                self.tracer.reset()
                self._sampler = asyncio.get_running_loop().create_task(
                    self._sample_queue_depth()
                )
            return self.status()
        if command == "end":
            if self._sampler is not None:
                self._sampler.cancel()
                self._sampler = None
            reply = self.status()
            reply["trace"] = self.tracer.dump() if self.tracer is not None else None
            return reply
        if command == "check":
            try:
                return {"ok": True, "prefix": self.cluster.check_total_order()}
            except ConsistencyError as exc:
                return {"ok": False, "error": str(exc)}
        if command == "logs":
            return {
                "digests": [full_digest_log(node) for node in self.cluster.nodes],
                "tx_positions": _tx_positions(self.cluster.nodes[0]),
            }
        return {"error": f"unknown command {command!r}"}


async def serve(spec: dict[str, Any], tracer: Tracer | None) -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )

    def reply(message: dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    host = Host(spec, tracer)
    try:
        reply(await host.boot())
        while True:
            line = await reader.readline()
            if not line:
                break  # parent gone or done: stop with it
            request = json.loads(line)
            if request.get("cmd") == "stop":
                break
            reply(host.dispatch(request))
    finally:
        if host.cluster is not None:
            await host.cluster.stop()
    reply({"stopped": True})


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install(tracer)
    try:
        asyncio.run(serve(spec, tracer))
    finally:
        if tracer is not None:
            tracer.restore()
    return 0


if __name__ == "__main__":
    sys.exit(main())
