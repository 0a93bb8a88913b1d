"""LiveView against in-loop control sockets: tee, fold, and a clean stop.

The fabric tests reach ``LiveView`` only through a whole ``scripts/fabric.py``
subprocess run; this drives it directly. The cluster (and one
``ControlServer`` per runner) lives on a background thread's event loop,
because the view's readers are blocking ``LineStream`` threads.
"""

import asyncio
import threading
import time

from repro.common.config import SystemConfig
from repro.obs.context import Observability
from repro.obs.stream import decode_stream_line
from repro.runtime.cluster import LocalCluster
from repro.runtime.fabric import Fabric
from repro.runtime.live import LiveView
from repro.runtime.peers import make_peer_table
from repro.runtime.runner import ControlServer


def test_streams_are_teed_folded_and_drained_on_stop(
    free_peers, free_port, tmp_path, capsys
):
    config = SystemConfig(n=4, seed=21)
    peers = free_peers(4)
    control_ports = {pid: free_port() for pid in range(4)}
    table = make_peer_table(peers, config, control_ports=control_ports)
    ready = threading.Event()
    finished = {}

    def serve():
        async def main():
            cluster = LocalCluster(config, peers=peers, observability=Observability())
            await cluster.start()
            controls = []
            for runner in cluster.runners:
                control = ControlServer(
                    runner, "127.0.0.1", control_ports[runner.pid]
                )
                await control.start()
                controls.append(control)
            ready.set()
            # The control ``stop`` verb is what ends a runner's life.
            for runner in cluster.runners:
                await runner.wait_stopped(timeout=60.0)
            for control in controls:
                await control.close()
            await cluster.stop()

        asyncio.run(main())
        finished["ok"] = True

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(30.0)

    view = LiveView(
        table, {"cmd": "subscribe", "interval": 0.1}, out_dir=tmp_path, interval=0.1
    )
    view.start()
    tees = [tmp_path / f"node-{pid}.stream.jsonl" for pid in range(4)]
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if all(tee.exists() and '"delta"' in tee.read_text() for tee in tees):
            break
        time.sleep(0.05)

    # The fabric's teardown order: stop the nodes, then the view. Every
    # stream ends with a final tick that must still reach its tee.
    Fabric(table, tmp_path / "peers.json", tmp_path, 0.0).stop()
    view.stop()
    thread.join(30.0)
    assert finished.get("ok")

    for tee in tees:
        lines = [decode_stream_line(text) for text in tee.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[-1]["type"] == "delta"
        # The final tick is taken after the stop: nothing newer exists.
        seqs = [line["delta"]["seq"] for line in lines if line["type"] == "delta"]
        assert seqs == list(range(1, len(seqs) + 1))
    out = capsys.readouterr().out
    final_table = out[out.rindex("live: quorum wave"):]
    for pid in range(4):
        assert f"live: node {pid}: wave" in final_table
    assert final_table.count("[stopped]") == 4
