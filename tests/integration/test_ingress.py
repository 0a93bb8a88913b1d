"""Client ingress end to end: gateway, backpressure, acks, crash safety.

Two layers:

* in-loop — a ``LocalCluster`` with ingress ports serves the newline-JSON
  client protocol: submits admit and ack, duplicates are idempotent, an
  over-budget burst gets explicit ``busy`` rejections, delivery acks
  stream with end-to-end latencies once the containing wave commits, and
  a node cut off from its quorum refuses load instead of queueing it;
* real processes — a ``tcp-node`` runner is SIGKILLed mid-run and
  restarted from its ``--state-dir``; transactions re-submitted to the
  recovered node are proposed under *fresh* block sequences and acked
  exactly once — batches flushed by the dead incarnation can never ack,
  because the mempool's in-flight map died with the process.
"""

import asyncio
import time

from repro.common.config import SystemConfig
from repro.mempool.admission import AdmissionConfig
from repro.obs.context import Observability
from repro.runtime.cluster import LocalCluster
from repro.runtime.fabric import Fabric
from repro.runtime.linerpc import LineClient
from repro.runtime.peers import allocate_port_block, make_peer_table
from repro.runtime.transport import RETAINED_EVENTS

#: Small budgets so a test's handful of txs reaches them.
FAST_INGRESS = AdmissionConfig(max_pending_txs=8, batch_txs=4, max_tx_bytes=256)


async def open_ack_stream(address):
    client = await LineClient.open(address)
    header = await client.call({"cmd": "ack"})
    assert header["streaming"] is True
    return client


async def read_acks(stream, want_txids, timeout=45.0):
    """Collect ack lines until every txid in ``want_txids`` appeared."""
    acks = []
    deadline = time.monotonic() + timeout
    seen = set()
    while not want_txids <= seen:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"acks missing for {want_txids - seen}"
        message = await asyncio.wait_for(stream.recv(), timeout=remaining)
        assert message is not None, "ack stream closed early"
        ack = message.get("ack")
        if ack is None:
            continue
        acks.append(ack)
        seen.add(ack["txid"])
    return acks


class TestGatewayInLoop:
    def test_submit_ack_backpressure_cycle(self, free_peers, free_port):
        peers = free_peers(4)
        ingress_ports = {pid: free_port() for pid in range(4)}
        obs = Observability()
        cluster = LocalCluster(
            SystemConfig(n=4, seed=5),
            peers=peers,
            ingress_ports=ingress_ports,
            ingress=FAST_INGRESS,
            observability=obs,
        )
        address = ("127.0.0.1", ingress_ports[0])

        async def scenario():
            await cluster.start()
            try:
                acks_stream = await open_ack_stream(address)
                client = await LineClient.open(address)

                # Plain submits: content-addressed ids, batch, commit, ack.
                txs = [f"ingress-{i}".encode() for i in range(3)]
                txids = set()
                for tx in txs:
                    response = await client.call({"cmd": "submit", "tx": tx.hex()})
                    assert response["ok"] and response["accepted"]
                    assert "reason" not in response
                    txids.add(response["txid"])

                # Idempotent retry: same bytes, same txid, no second copy.
                response = await client.call({"cmd": "submit", "tx": txs[0].hex()})
                assert response["accepted"]
                assert response["reason"] == "duplicate"
                assert response["txid"] in txids

                acks = await read_acks(acks_stream, txids)
                by_txid = {}
                for ack in acks:
                    by_txid.setdefault(ack["txid"], []).append(ack)
                assert set(by_txid) >= txids
                for txid in txids:
                    assert len(by_txid[txid]) == 1  # one ack per tx
                    assert by_txid[txid][0]["e2e"] >= 0.0

                # Batch submit.
                batch = [f"batch-{i}".encode().hex() for i in range(2)]
                response = await client.call({"cmd": "submit_batch", "txs": batch})
                assert response["accepted"] == 2 and not response["busy"]

                # Over budget in one synchronous burst: the tail must come
                # back busy-txs — explicit backpressure, never a drop.
                flood = [f"flood-{i}".encode().hex() for i in range(32)]
                response = await client.call({"cmd": "submit_batch", "txs": flood})
                assert response["busy"]
                busy = [r for r in response["results"] if r.get("busy")]
                assert busy and all(r["reason"] == "busy-txs" for r in busy)

                # Oversize is a permanent rejection, not backpressure.
                response = await client.call(
                    {"cmd": "submit", "tx": (b"x" * 300).hex()}
                )
                assert not response["accepted"]
                assert response["reason"] == "oversize"
                assert response["busy"] is False

                status = cluster.runners[0].status()["ingress"]
                assert status["delivered"] >= 3
                await client.close()
                await acks_stream.close()
            finally:
                await cluster.stop()

        asyncio.run(scenario())
        kinds = {event.kind for event in obs.bus.events}
        assert {"tx_submitted", "tx_rejected", "tx_delivered"} <= kinds
        # Each delivered block's acked txs are its tx_delivered's count.
        assert obs.bus.dropped == 0
        delivered = sum(event.get("count") for event in obs.bus.of_kind("tx_delivered", 0))
        assert delivered == cluster.runners[0].mempool.delivered_total >= 3


    def test_state_stays_bounded_under_sustained_ingress(self, free_peers, free_port):
        """Closed-loop clients on every node for 40+ waves: afterwards nothing
        a node holds has grown with the traffic it carried."""
        n, gc_depth, waves = 4, 8, 40
        config = SystemConfig(n=n, seed=11)
        ingress_ports = {pid: free_port() for pid in range(n)}
        obs = Observability()
        cluster = LocalCluster(
            config,
            peers=free_peers(n),
            ingress_ports=ingress_ports,
            ingress=FAST_INGRESS,
            observability=obs,
            gc_depth=gc_depth,
        )

        async def client_loop(pid):
            """Batches of ``batch_txs``, each awaited to its last ack."""
            address = ("127.0.0.1", ingress_ports[pid])
            acks_stream = await open_ack_stream(address)
            client = await LineClient.open(address)
            sent = 0
            while min(node.decided_wave for node in cluster.nodes) < waves:
                txs = [
                    f"sustained-{pid}-{sent + i}".encode().hex()
                    for i in range(FAST_INGRESS.batch_txs)
                ]
                sent += len(txs)
                response = await client.call({"cmd": "submit_batch", "txs": txs})
                assert response["accepted"] == len(txs), response
                await read_acks(
                    acks_stream, {result["txid"] for result in response["results"]}
                )
            await client.close()
            await acks_stream.close()
            return sent

        async def scenario():
            await cluster.start()
            try:
                sent = await asyncio.gather(*(client_loop(pid) for pid in range(n)))
                # What a node may still hold: ``gc_depth`` rounds of straggler
                # margin, the wave being built, the wave awaiting its leader's
                # commit, and one more for a leader the coin skipped.
                live_rounds = gc_depth + 3 * config.wave_length
                for pid, runner in enumerate(cluster.runners):
                    status = runner.status()["ingress"]
                    assert status["pending"] == 0 and status["in_flight"] == 0
                    assert status["delivered"] == sent[pid]
                    assert runner.node.store.vertex_count <= n * live_rounds
                    # Without compaction the store would hold every round.
                    assert runner.node.current_round > 2 * live_rounds
            finally:
                await cluster.stop()

        asyncio.run(scenario())
        assert len(obs.bus.events) <= RETAINED_EVENTS

    def test_isolated_node_refuses_instead_of_queueing(self, free_peers, free_port):
        """Backpressure follows the protocol, not a clock: a node cut off
        from its quorum proposes nothing, so it must hold at most its budget
        and say ``busy`` — not keep cutting blocks it cannot broadcast.
        (The timer-driven flusher failed this: ``in_flight`` grew by
        ``batch_txs`` per tick for as long as load was offered.)"""
        ingress = AdmissionConfig(max_pending_txs=16, batch_txs=4, max_tx_bytes=256)
        ingress_port = free_port()
        cluster = LocalCluster(
            SystemConfig(n=4, seed=23),
            peers=free_peers(4),
            ingress_ports={0: ingress_port},
            ingress=ingress,
        )
        address = ("127.0.0.1", ingress_port)

        async def scenario():
            await cluster.start()
            try:
                acks_stream = await open_ack_stream(address)
                client = await LineClient.open(address)
                node, mempool = cluster.nodes[0], cluster.runners[0].mempool
                cluster.networks[0].block_peers({1, 2, 3})
                # Frames already received may finish one more round; after
                # that node 0 has no quorum and its round stands still.
                await asyncio.sleep(0.3)
                stalled_round = node.current_round
                accepted, refused = set(), 0
                for burst in range(5):  # five times the budget
                    txs = [
                        f"isolated-{burst}-{i}".encode().hex()
                        for i in range(ingress.max_pending_txs)
                    ]
                    response = await client.call({"cmd": "submit_batch", "txs": txs})
                    for result in response["results"]:
                        if result["accepted"]:
                            accepted.add(result["txid"])
                        else:
                            assert result["busy"] and result["reason"] == "busy-txs"
                            refused += 1
                    await asyncio.sleep(0.05)
                    status = mempool.status()
                    assert status["pending"] <= ingress.max_pending_txs
                    assert status["in_flight"] == 0
                assert node.current_round == stalled_round
                assert len(accepted) == ingress.max_pending_txs
                assert refused == 4 * ingress.max_pending_txs

                cluster.networks[0].heal()
                acks = await read_acks(acks_stream, accepted)
                assert sorted(ack["txid"] for ack in acks) == sorted(accepted)
                status = mempool.status()
                assert status["delivered"] == len(accepted)
                assert status["pending"] == 0 and status["in_flight"] == 0
                assert cluster.check_total_order() > 0
                await client.close()
                await acks_stream.close()
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestCrashRecoveryIngress:
    def test_fresh_sequences_and_no_duplicate_acks(self, tmp_path):
        ports = allocate_port_block(12)
        table = make_peer_table(
            {pid: ("127.0.0.1", ports[3 * pid]) for pid in range(4)},
            SystemConfig(n=4, seed=7),
            control_ports={pid: ports[3 * pid + 1] for pid in range(4)},
            ingress_ports={pid: ports[3 * pid + 2] for pid in range(4)},
            gc_depth=6,
            ingress=FAST_INGRESS,
        )
        peers_path = tmp_path / "peers.json"
        peers_path.write_text(table.dumps(), encoding="utf-8")
        state_dirs = {pid: tmp_path / f"state-{pid}" for pid in range(4)}
        address = table.entry(1).ingress_address

        async def drive(payloads):
            """Submit ``payloads`` to node 1 and await one ack for each."""
            acks_stream = await open_ack_stream(address)
            txids = set()
            async with await LineClient.open(address) as client:
                for payload in payloads:
                    response = await client.call(
                        {"cmd": "submit", "tx": payload.hex()}
                    )
                    assert response["accepted"], response
                    txids.add(response["txid"])
            acks = await read_acks(acks_stream, txids)
            await acks_stream.close()
            return acks

        with Fabric(table, peers_path, tmp_path, 300.0, state_dirs) as fabric:
            fabric.spawn()
            assert fabric.wait_ready(time.monotonic() + 60.0)
            payloads = [f"crash-tx-{i}".encode() for i in range(6)]
            first_acks = asyncio.run(drive(payloads))
            max_sequence = max(ack["sequence"] for ack in first_acks)

            # SIGKILL node 1 and restart it from its journal.
            fabric.crash(1, "kill", 0.0, time.monotonic() + 90.0)

            # Re-submit the same bytes: the dead incarnation's tracking is
            # gone, so these are fresh admissions — proposed under fresh
            # sequences (restore_sequence never rewinds) and acked once.
            second_acks = asyncio.run(drive(payloads))

        assert {ack["txid"] for ack in second_acks} == {
            ack["txid"] for ack in first_acks
        }
        counts = {}
        for ack in second_acks:
            counts[ack["txid"]] = counts.get(ack["txid"], 0) + 1
        assert all(count == 1 for count in counts.values()), counts
        assert min(ack["sequence"] for ack in second_acks) > max_sequence
