"""LiveView against in-loop control sockets: tee, fold, and a clean stop.

The fabric tests reach ``LiveView`` only through a whole ``scripts/fabric.py``
subprocess run; this drives it directly. The cluster (and one
``ControlServer`` per runner) lives on a background thread's event loop,
because the view's readers are blocking ``LineStream`` threads. What the
view tees is each node's ``repro.obs.trace`` document written live, so the
tees are read back with the tools every other trace is read with.
"""

import asyncio
import json
import threading
import time

from repro.common.config import SystemConfig
from repro.obs.analyze import summarize, wave_stats
from repro.obs.causal import stitch
from repro.obs.cli import main as obs_main
from repro.obs.context import Observability
from repro.obs.export import METRICS_SCHEMA, load_trace
from repro.runtime import runner as runner_module
from repro.runtime.cluster import LocalCluster
from repro.runtime.fabric import Fabric
from repro.runtime.linerpc import LineServer
from repro.runtime.live import LiveView
from repro.runtime.peers import make_peer_table
from repro.runtime.runner import ControlServer


def tee_a_cluster(free_peers, free_port, tmp_path, until):
    """Run a 4-node cluster under a ``LiveView`` until every tee's text
    satisfies ``until``, then stop in the fabric's order; the tee paths."""
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
        if all(tee.exists() and until(tee.read_text()) for tee in tees):
            break
        time.sleep(0.05)

    # The fabric's teardown order: stop the nodes, then the view. Every
    # stream ends with a final tick that must still reach its tee.
    Fabric(table, tmp_path / "peers.json", tmp_path, 0.0).stop()
    view.stop()
    thread.join(30.0)
    assert finished.get("ok")
    return tees


def test_streams_are_teed_folded_and_drained_on_stop(
    free_peers, free_port, tmp_path, capsys
):
    tees = tee_a_cluster(
        free_peers,
        free_port,
        tmp_path,
        until=lambda text: '"kind":"commit"' in text and METRICS_SCHEMA in text,
    )
    for pid, tee in enumerate(tees):
        lines = [json.loads(text) for text in tee.read_text().splitlines()]
        ticks = [line["metrics"] for line in lines if line.get("schema") == METRICS_SCHEMA]
        # The final tick is taken after the stop: nothing newer exists.
        assert lines[-1]["metrics"] is ticks[-1]
        assert [tick["seq"] for tick in ticks] == list(range(1, len(ticks) + 1))

        # The tee is a trace: the loader keeps the header and the last tick.
        trace = load_trace(str(tee))
        assert trace.meta["pid"] == pid and trace.meta["interval"] == 0.1
        assert len(trace.events) == len(lines) - 1 - len(ticks)
        assert trace.metrics == ticks[-1]
        assert trace.metrics["status"]["decided_wave"] >= 1
        assert trace.metrics["links"]["frames_sent"] > 0
        text = summarize(trace.events, meta=trace.meta, metrics=trace.metrics)
        # Wave-ready -> commit: the per-wave table, read off the events.
        assert any(stat.latency is not None for stat in wave_stats(trace.events).values())
        assert "first_commit" in text
        # 4 096 events is ~1 s of this unpaced in-loop cluster: no holes
        # unless the box stalled that long, and then the summary says so.
        assert ("stream has holes" in text) == (trace.metrics["dropped"] > 0)
        assert stitch(trace.events).stitched_chains > 0

        commits = tmp_path / f"commits-{pid}.jsonl"
        assert obs_main(
            ["filter", str(tee), "--kind", "commit", "--out", str(commits)]
        ) == 0
        kept = load_trace(str(commits))
        assert kept.events and {event.kind for event in kept.events} == {"commit"}
        assert kept.metrics == trace.metrics

    out = capsys.readouterr().out
    final_table = out[out.rindex("live: quorum wave"):]
    for pid in range(4):
        assert f"live: node {pid}: wave" in final_table
    assert final_table.count("[stopped]") == 4


def test_a_ring_too_small_for_a_tick_says_so_in_the_tee(
    free_peers, free_port, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(runner_module, "DEFAULT_STREAM_CAPACITY", 8)

    def a_tick_counts_drops(text):
        # Wait for what is asserted below. A ``stream_drop`` event is no
        # proxy: an 8-slot ring can push each one out before the next tick.
        for line in text.splitlines():
            if METRICS_SCHEMA not in line:
                continue
            try:
                if json.loads(line)["metrics"]["dropped"] > 0:
                    return True
            except json.JSONDecodeError:
                pass  # the tee's last line, still being written
        return False

    tees = tee_a_cluster(free_peers, free_port, tmp_path, until=a_tick_counts_drops)
    for tee in tees:
        trace = load_trace(str(tee))
        assert trace.metrics["dropped"] > 0
        assert (
            f"stream has holes: {trace.metrics['dropped']} events lost"
            in summarize(trace.events, meta=trace.meta, metrics=trace.metrics)
        )
    out = capsys.readouterr().out
    assert "drops " in out[out.rindex("live: quorum wave"):]


def test_a_restarted_node_is_subscribed_again_into_the_same_tee(
    free_peers, free_port, tmp_path
):
    """Regression: a reader opened one subscription per node and ended with
    it, so a node that a crash step restarted dropped out of its tee (and
    of the live table). Node 0's control server here ends its first stream
    early (after holding its header back for 0.5 s), as a failed
    connection does; answers the next subscription from
    the same life, which replays its window; then serves a second life;
    and then, as a stopping runner does, streams nothing. The tee holds
    each life's header once and each event once."""
    config = SystemConfig(n=4, seed=3)
    control_ports = {pid: free_port() for pid in range(4)}
    table = make_peer_table(free_peers(4), config, control_ports=control_ports)

    def header(life):
        return json.dumps({"meta": {"life": life, "pid": 0},
                           "schema": "repro.obs.trace", "version": 1})

    def event(t):
        return json.dumps({"kind": "e", "pid": 0, "t": t})

    def tick(seq):
        return json.dumps({"metrics": {"seq": seq, "status": {"decided_wave": 1}},
                           "schema": METRICS_SCHEMA, "version": 1})

    streams = [
        [header(1), event(1.0), event(2.0)],
        [header(1), event(1.0), event(2.0), event(3.0), tick(1)],
        [header(2), event(5.0), tick(1)],
    ]
    served = []

    async def subscribe(_request, send):
        served.append(len(served))
        if len(served) == 1:
            await asyncio.sleep(0.5)  # connected, but no header yet
        if len(served) <= len(streams):
            await send(*streams[len(served) - 1])

    ready, done = threading.Event(), threading.Event()

    def serve():
        async def main():
            server = LineServer(
                "127.0.0.1", control_ports[0], {}, {"subscribe": subscribe}
            )
            await server.start()
            ready.set()
            while not done.is_set():
                await asyncio.sleep(0.01)
            await server.close()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(10.0)
    view = LiveView(table, {"cmd": "subscribe"}, out_dir=tmp_path, interval=0.1)
    view.start()
    # A node is streamed once its header arrived, not once its socket took
    # the request: the fabric kills only a node whose life reaches its tee.
    assert not view.wait_live(time.monotonic() + 0.3, [0])
    deadline = time.monotonic() + 10.0
    while len(served) <= len(streams) and time.monotonic() < deadline:
        time.sleep(0.02)
    view.stop()
    done.set()
    thread.join(10.0)
    assert not thread.is_alive()
    assert len(served) > len(streams)
    tee = (tmp_path / "node-0.stream.jsonl").read_text().splitlines()
    assert tee == [
        header(1), event(1.0), event(2.0), event(3.0), tick(1),
        header(2), event(5.0), tick(1),
    ]
    assert view._nodes[0].events == 4
