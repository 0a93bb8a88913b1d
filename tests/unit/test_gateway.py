"""The ingress gateway's seam into the node: the round pulls the batches.

A real ``IngressGateway`` socket in front of node 0 of a *simulated*
deployment: requests travel over localhost TCP, the protocol runs on the
seeded scheduler, so what the node proposes — and when — is exact.
"""

import asyncio
import contextlib
import json

from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
from repro.mempool.admission import AdmissionConfig, Mempool
from repro.mempool.blocks import BlockSource
from repro.mempool.gateway import MAX_ACK_CAPACITY, IngressGateway
from repro.obs.context import Observability
from repro.runtime.linerpc import LineClient


@contextlib.asynccontextmanager
async def gateway_on_sim(port, ingress=None, node_kwargs=None, obs=None):
    """(deployment, node 0, its mempool, its gateway, a connected client)."""
    if obs is None:
        obs = Observability()
    deployment = DagRiderDeployment(
        SystemConfig(n=4, seed=20), node_kwargs=node_kwargs, observability=obs
    )
    node = deployment.nodes[0]
    mempool = Mempool(0, config=ingress, clock=lambda: node.now)
    gateway = IngressGateway(node, mempool, "127.0.0.1", port, obs=obs)
    await gateway.start()
    client = await LineClient.open(("127.0.0.1", port))
    try:
        yield deployment, node, mempool, gateway, client
    finally:
        await client.close()
        await gateway.close()


def own_blocks(node, proposer=0):
    """Transactions of each block ``proposer`` got delivered, in order."""
    return [
        entry.block.transactions
        for entry in node.ordered
        if entry.block.proposer == proposer
    ]


def test_generatorless_node_proposes_a_submitted_transaction(free_port):
    """Line 17's ``wait until``: a node with nothing to propose waits, and
    admission is what wakes it — no timer will."""

    async def scenario():
        kwargs = {0: {"block_source": BlockSource(0)}}
        async with gateway_on_sim(free_port(), node_kwargs=kwargs) as (
            deployment, node, mempool, _gateway, client,
        ):
            deployment.run(until=5.0)
            assert node.current_round == 0  # waiting for a block
            assert deployment.nodes[1].current_round > 1  # the quorum is not
            reply = await client.call({"cmd": "submit", "tx": b"wake".hex()})
            assert reply["accepted"]
            assert node.current_round == 1
            assert mempool.status()["pending"] == 0
            assert mempool.status()["in_flight"] == 1
            peer = deployment.nodes[1]
            deployment.run(
                max_events=200_000, stop_when=lambda: bool(own_blocks(peer))
            )
            assert own_blocks(peer) == [(b"wake",)]

    asyncio.run(scenario())


def test_a_bcast_blocks_go_ahead_of_client_transactions(free_port):
    async def scenario():
        async with gateway_on_sim(free_port()) as (
            deployment, node, mempool, _gateway, client,
        ):
            # Started and then frozen in round 1 (nothing is delivered while
            # the scheduler stands still), so the client transaction is
            # still pending when the explicit block arrives.
            deployment.run(until=0.0)
            assert node.current_round == 1
            await client.call({"cmd": "submit", "tx": b"client".hex()})
            explicit = node.a_bcast(b"explicit")
            assert mempool.status()["pending"] == 1
            deployment.run_until_ordered(12)
            proposed = own_blocks(node)
            assert proposed.index((b"explicit",)) < proposed.index((b"client",))
            # BlockSource numbers every block, whoever supplied it.
            sequences = [
                entry.block.sequence
                for entry in node.ordered
                if entry.block.proposer == 0
            ]
            assert sequences == sorted(set(sequences))
            assert explicit.sequence in sequences

    asyncio.run(scenario())


def test_no_block_exceeds_the_caps(free_port):
    ingress = AdmissionConfig(batch_txs=4, batch_bytes=100, max_pending_txs=64)
    txs = [bytes([65 + i]) * size for i, size in enumerate(
        [10, 10, 10, 10, 10, 60, 60, 30, 150, 5, 99, 1, 1, 100, 100, 20]
    )]

    async def scenario():
        async with gateway_on_sim(free_port(), ingress=ingress) as (
            deployment, node, mempool, _gateway, client,
        ):
            reply = await client.call(
                {"cmd": "submit_batch", "txs": [tx.hex() for tx in txs]}
            )
            assert reply["accepted"] == len(txs)
            deployment.run(
                max_events=500_000,
                stop_when=lambda: mempool.delivered_total == len(txs),
            )
            client_blocks = [
                block for block in own_blocks(node) if block[0] in txs
            ]
            # Everything once, in admission order, a round's block at a time.
            assert [tx for block in client_blocks for tx in block] == txs
            assert len(client_blocks) > 1
            for block in client_blocks:
                assert len(block) <= ingress.batch_txs
                assert len(block) == 1 or (
                    sum(map(len, block)) <= ingress.batch_bytes
                )
            assert mempool.status()["in_flight"] == 0

    asyncio.run(scenario())


def test_submit_batch_admits_nothing_it_then_refuses(free_port):
    """Regression: elements were admitted one by one, so a malformed third
    element answered ``{"ok": false}`` with no txids after the first two
    were already pending — they were then proposed, committed and acked."""
    obs = Observability()

    async def scenario():
        async with gateway_on_sim(free_port(), obs=obs) as (
            _deployment, _node, mempool, _gateway, client,
        ):
            for bad in ("zz", "", 7):
                reply = await client.call(
                    {"cmd": "submit_batch", "txs": ["aa", "bb", bad]}
                )
                assert reply["ok"] is False and "results" not in reply
            status = mempool.status()
            assert status["submitted"] == 0 and status["pending"] == 0
            reply = await client.call({"cmd": "submit_batch", "txs": ["aa", "bb"]})
            assert reply["accepted"] == 2

    asyncio.run(scenario())
    submitted = [e for e in obs.bus.events if e.kind == "tx_submitted"]
    assert [dict(e.fields)["count"] for e in submitted] == [2]


def test_ack_capacity_is_clamped_and_never_a_traceback(free_port):
    """Regression: the ring's size was whatever the client sent — ``1e12``
    made the bounded ring unbounded, ``1e999`` (``inf``) raised
    ``OverflowError`` past the errors the line server answers."""

    async def scenario():
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        port = free_port()
        async with gateway_on_sim(port) as (_d, _node, _mempool, gateway, _client):
            rings, writers = [], []
            for capacity in (b"1e12", b"1e999", b"NaN", b"-3"):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writers.append(writer)
                writer.write(b'{"cmd": "ack", "capacity": %s}\n' % capacity)
                line = await asyncio.wait_for(reader.readline(), 10.0)
                assert json.loads(line) == {"ok": True, "pid": 0, "streaming": True}
                (ring,) = set(gateway._ack_streams) - set(rings)
                rings.append(ring)
            assert [ring.capacity for ring in rings] == [
                MAX_ACK_CAPACITY, MAX_ACK_CAPACITY, 1, 1,
            ]
            for writer in writers:
                writer.close()
        return loop_errors

    assert asyncio.run(scenario()) == []
