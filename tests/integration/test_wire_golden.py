"""Wire-golden: the control and ingress sockets answer byte-for-byte as before.

The strings below were recorded at the commit *before* the two servers were
rebuilt on :mod:`repro.runtime.linerpc` (PR 14's parent), by running this
same request script against that tree. External clients (``bench/loadgen.py``)
and the ``node-<pid>.stream.jsonl`` tees depend on these bytes, so a change
here is a protocol change, not a refactor.

Values that are clocks or depend on asyncio timing (commit frontier, queue
depth, latencies, DAG positions) are masked with ``#`` before comparing;
everything else — key order, separators, error texts, the header → acks →
``dropped`` line order — is compared exactly.

One line differs from the parent on purpose: the gateway used to say
``unknown ingress command 'x'`` where the control socket said ``unknown
command 'x'``; with one server there is one text.

A ``subscribe`` stream was re-recorded when the observability plane
stopped keeping a second copy of each fact: it is the node's
``repro.obs.trace`` document written live (its request keeps ``interval``
only). The ``flight`` verb, which answered with the bus tail as a second
such document, is gone: the driver cuts its dumps from the streams.
"""

import asyncio
import re

from repro.common.config import SystemConfig
from repro.mempool.admission import AdmissionConfig
from repro.obs.context import Observability
from repro.runtime.cluster import LocalCluster
from repro.runtime.runner import ControlServer

#: The pipelined script arrives in one segment and is admitted without the
#: handler yielding to the loop, so no vertex is created in between: the
#: verdicts do not depend on timing, and the node's next vertex carries all
#: eight transactions — one block, one 8-ack delivery burst.
INGRESS = AdmissionConfig(max_pending_txs=8, batch_txs=8, max_tx_bytes=16)

_CLOCKS = re.compile(
    r'"(ordered|decided_wave|current_round|queue_depth|e2e|round|position'
    r'|sequence|port|t|dropped_events)"(: ?)-?[0-9.e-]+'
)


def mask(line: bytes) -> str:
    return _CLOCKS.sub(r'"\1"\2#', line.decode())


def tx(index: int) -> str:
    return f"golden-{index}".encode().hex()


CONTROL_SCRIPT = [
    b'{"cmd": "ping"}',
    b'{"cmd": "status"}',
    b'{"cmd": "slow", "delay": 0.25}',
    b'{"cmd": "slow"}',
    b'{"cmd": "partition", "peers": [3, 1]}',
    b'{"cmd": "heal"}',
    b'{"cmd": "bogus"}',
    b'{"cmd": "flight"}',
    b'{"nocmd": 1}',
    b"not json",
    b"[1, 2]",
    b'{"cmd": "stop"}',
]

CONTROL_GOLDEN = [
    '{"ok": true, "pid": 0, "ready": true}\n',
    '{"current_round": #, "decided_wave": #, "ingress": {"delivered": 8, '
    '"in_flight": 0, "pending": 0, "pending_bytes": 0, "rejected": 3, '
    '"submitted": 8}, "ok": true, "ordered": #, "pid": 0, "queue_depth": #, '
    '"ready": true}\n',
    '{"delay": 0.25, "ok": true, "pid": 0}\n',
    '{"delay": 0.0, "ok": true, "pid": 0}\n',
    '{"blocked": [1, 3], "ok": true, "pid": 0}\n',
    '{"healed": true, "ok": true, "pid": 0}\n',
    '{"error": "unknown command \'bogus\'", "ok": false}\n',
    '{"error": "unknown command \'flight\'", "ok": false}\n',
    '{"error": "unknown command None", "ok": false}\n',
    '{"error": "Expecting value: line 1 column 1 (char 0)", "ok": false}\n',
    '{"error": "request must be an object", "ok": false}\n',
    '{"ok": true, "pid": 0, "stopping": true}\n',
]

SUBSCRIBE_REQUEST = b'{"cmd": "subscribe", "interval": 0.05}\n'
SUBSCRIBE_HEADER = (
    '{"meta":{"coin_mode":"ideal","dropped_events":#,"host":"127.0.0.1",'
    '"interval":0.05,"n":4,"pid":0,"port":#,"seed":14},'
    '"schema":"repro.obs.trace","version":1}\n'
)

INGRESS_SCRIPT = [
    b'{"cmd": "submit", "tx": "%s"}' % tx(0).encode(),
    b'{"cmd": "submit", "tx": "%s"}' % tx(0).encode(),
    b'{"cmd": "submit", "tx": "zz"}',
    b'{"cmd": "submit"}',
    b'{"cmd": "submit", "tx": ""}',
    b'{"cmd": "submit", "tx": "%s"}' % (b"ab" * 17),
    b'{"cmd": "submit_batch", "txs": []}',
    b'{"cmd": "submit_batch", "txs": ["%s", "%s"]}'
    % (tx(1).encode(), tx(2).encode()),
    b'{"cmd": "submit_batch", "txs": [%s]}'
    % ", ".join(f'"{tx(i)}"' for i in range(3, 10)).encode(),
    b"not json",
    b"[1, 2]",
    b'{"cmd": "bogus"}',
]

INGRESS_GOLDEN = [
    '{"accepted": true, "ok": true, "pid": 0, '
    '"txid": "77abc86d5c37fe261ce84966b29ddcc9"}\n',
    '{"accepted": true, "ok": true, "pid": 0, "reason": "duplicate", '
    '"txid": "77abc86d5c37fe261ce84966b29ddcc9"}\n',
    '{"error": "tx is not valid hex", "ok": false}\n',
    '{"error": "tx must be a hex string", "ok": false}\n',
    '{"error": "tx must not be empty", "ok": false}\n',
    '{"accepted": false, "busy": false, "ok": true, "pid": 0, '
    '"reason": "oversize", "txid": "96354cae70598df2cdd39a8ef0fba7fe"}\n',
    '{"error": "txs must be a non-empty list of hex strings", "ok": false}\n',
    '{"accepted": 2, "busy": false, "ok": true, "pid": 0, "rejected": 0, '
    '"results": [{"accepted": true, "txid": "2442ffeede6ab0781f47fb14845f2683"}, '
    '{"accepted": true, "txid": "7fc3c2c1eb9394af89bee45c15f85978"}]}\n',
    '{"accepted": 5, "busy": true, "ok": true, "pid": 0, "rejected": 2, '
    '"results": [{"accepted": true, "txid": "336e4be6f30cfa46f61ef5b3323991e1"}, '
    '{"accepted": true, "txid": "899495bbab1c65f7145b3cd960010db2"}, '
    '{"accepted": true, "txid": "d7837a735e63d4506ca548bc37308f37"}, '
    '{"accepted": true, "txid": "9b531443d9d646ce4b32263a74ea384c"}, '
    '{"accepted": true, "txid": "d1e73bb4cd6444b01d2827587bf640ed"}, '
    '{"accepted": false, "busy": true, "reason": "busy-txs", '
    '"txid": "d93d69a1bf9d577d2b9953a99fab4936"}, '
    '{"accepted": false, "busy": true, "reason": "busy-txs", '
    '"txid": "b9e2abdb9e65c233bd4cd67f3f7e2d16"}]}\n',
    '{"error": "Expecting value: line 1 column 1 (char 0)", "ok": false}\n',
    '{"error": "request must be an object", "ok": false}\n',
    # The parent said "unknown ingress command 'bogus'" here (module docstring).
    '{"error": "unknown command \'bogus\'", "ok": false}\n',
]

ACK_REQUEST = b'{"cmd": "ack", "capacity": 4}\n'
#: Eight acks land in one delivery burst on a 4-slot ring: the oldest four
#: are evicted and the burst ends with the cumulative ``dropped`` marker.
ACK_GOLDEN = [
    '{"ok": true, "pid": 0, "streaming": true}\n',
    '{"ack": {"e2e": #, "position": #, "round": #, "sequence": #, '
    '"txid": "899495bbab1c65f7145b3cd960010db2"}}\n',
    '{"ack": {"e2e": #, "position": #, "round": #, "sequence": #, '
    '"txid": "d7837a735e63d4506ca548bc37308f37"}}\n',
    '{"ack": {"e2e": #, "position": #, "round": #, "sequence": #, '
    '"txid": "9b531443d9d646ce4b32263a74ea384c"}}\n',
    '{"ack": {"e2e": #, "position": #, "round": #, "sequence": #, '
    '"txid": "d1e73bb4cd6444b01d2827587bf640ed"}}\n',
    '{"dropped": 4}\n',
]


async def converse(port: int, script: list[bytes]) -> list[str]:
    """Pipeline the whole script in one write; one masked reply per line."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"\n".join(script) + b"\n")
    await writer.drain()
    replies = [
        mask(await asyncio.wait_for(reader.readline(), 10.0)) for _ in script
    ]
    writer.close()
    return replies


async def read_lines(reader: asyncio.StreamReader, count: int) -> list[str]:
    return [
        mask(await asyncio.wait_for(reader.readline(), 20.0))
        for _ in range(count)
    ]


def on_node_zero(free_peers, free_port, conversation):
    """Run ``conversation(control_port, ingress_port)`` against node 0 of a
    seeded 4-node cluster that also serves a control socket."""
    ingress_port, control_port = free_port(), free_port()
    cluster = LocalCluster(
        SystemConfig(n=4, seed=14),
        peers=free_peers(4),
        ingress_ports={0: ingress_port},
        ingress=INGRESS,
        observability=Observability(),
    )

    async def scenario():
        await cluster.start()
        control = ControlServer(cluster.runners[0], "127.0.0.1", control_port)
        await control.start()
        try:
            return await conversation(control_port, ingress_port)
        finally:
            await control.close()
            await cluster.stop()

    return asyncio.run(scenario())


def test_control_and_ingress_replies_are_byte_identical(free_peers, free_port):
    async def conversation(control_port, ingress_port):
        ack_reader, ack_writer = await asyncio.open_connection(
            "127.0.0.1", ingress_port
        )
        ack_writer.write(ACK_REQUEST)
        sub_reader, sub_writer = await asyncio.open_connection(
            "127.0.0.1", control_port
        )
        sub_writer.write(SUBSCRIBE_REQUEST)
        ack_lines = await read_lines(ack_reader, 1)
        sub_header = (await read_lines(sub_reader, 1))[0]
        ingress = await converse(ingress_port, INGRESS_SCRIPT)
        ack_lines += await read_lines(ack_reader, 5)
        control_lines = await converse(control_port, CONTROL_SCRIPT)
        # ``stop`` ends the subscription with one last tick, then EOF.
        tail = await asyncio.wait_for(sub_reader.read(), 10.0)
        ack_writer.close()
        sub_writer.close()
        return control_lines, sub_header, tail, ingress, ack_lines

    control, sub_header, sub_tail, ingress, acks = on_node_zero(
        free_peers, free_port, conversation
    )
    assert control == CONTROL_GOLDEN
    assert sub_header == SUBSCRIBE_HEADER
    last = sub_tail.decode().splitlines()[-1]
    assert re.match(r'\{"metrics":\{"dropped":\d+,"links":\{', last) and '"status":{' in last
    assert last.endswith('},"schema":"repro.obs.metrics","version":1}')
    assert ingress == INGRESS_GOLDEN
    assert acks == ACK_GOLDEN


def test_oversize_request_line_is_answered_on_both_sockets(free_peers, free_port):
    """Regression: a 70 KB line used to kill the handler task in both servers
    (``readline`` raised outside their ``try``): EOF with no reply, and
    ``Unhandled exception in client_connected_cb`` in the loop's log."""
    oversize = b'{"cmd": "ping", "pad": "%s"}\n' % (b"x" * 70_000)

    async def conversation(control_port, ingress_port):
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        replies = []
        for port in (control_port, ingress_port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(oversize)
            await writer.drain()
            replies.append(await asyncio.wait_for(reader.read(), 10.0))
            writer.close()
        # Both servers are still serving new connections.
        alive = await converse(control_port, [b'{"cmd": "ping"}'])
        alive += await converse(ingress_port, [b'{"cmd": "submit", "tx": "00"}'])
        return replies, alive, loop_errors

    replies, alive, loop_errors = on_node_zero(free_peers, free_port, conversation)
    refused = b'{"error": "request line too long", "ok": false}\n'
    assert replies == [refused, refused]  # one reply, then the connection closes
    assert alive[0] == '{"ok": true, "pid": 0, "ready": true}\n'
    assert '"accepted": true' in alive[1]
    assert loop_errors == []
