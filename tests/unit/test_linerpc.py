"""The line-RPC substrate, tested directly (not through a cluster)."""

import asyncio
import json
import threading

import pytest

from repro.obs.stream import EventRing
from repro.runtime import linerpc
from repro.runtime.linerpc import LineClient, LineServer, LineStream, call, encode


class Harness:
    """A started :class:`LineServer` with a few representative verbs."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.release = asyncio.Event()  # ends the "ticks" stream
        self.ring: EventRing[str] = EventRing(4)
        self.ring_ready = asyncio.Event()
        self.server = LineServer(
            "127.0.0.1",
            port,
            verbs={
                "echo": lambda request: {"ok": True, "echo": request.get("value")},
                "double": lambda request: {"ok": True, "n": 2 * int(request["n"])},
            },
            streams={
                "ticks": self._ticks,
                "ring": self._ring,
                "hang": self._hang,
            },
        )

    async def _ticks(self, request, send):
        if request.get("refuse"):
            raise ValueError("not today")
        await send(encode({"ok": True, "streaming": True}))
        await self.release.wait()
        await send(encode({"tick": "final"}))

    async def _ring(self, request, send):
        """The ack-stream shape: burst the ring, then the drop marker."""
        await send(encode({"ok": True, "streaming": True}))
        reported = 0
        while True:
            await self.ring_ready.wait()
            self.ring_ready.clear()
            lines = self.ring.drain()
            if self.ring.dropped > reported:
                reported = self.ring.dropped
                lines.append(encode({"dropped": reported}))
            await send(*lines)

    async def _hang(self, request, send):
        await send(encode({"ok": True, "streaming": True}))
        await asyncio.Event().wait()


def run(free_port, scenario):
    """Run ``scenario(harness)`` against a live server; always close it."""

    async def main():
        harness = Harness(free_port())
        await harness.server.start()
        try:
            return await scenario(harness)
        finally:
            harness.release.set()
            await harness.server.close()

    return asyncio.run(main())


async def raw(port):
    return await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)


async def readline(reader, timeout=5.0):
    return await asyncio.wait_for(reader.readline(), timeout)


class TestRequestResponse:
    def test_bad_requests_get_error_replies_and_the_connection_survives(
        self, free_port
    ):
        async def scenario(harness):
            reader, writer = await raw(harness.port)
            replies = []
            for line in (
                b"not json\n",
                b"[1, 2]\n",
                b'{"cmd": "nope"}\n',
                b'{"cmd": ["unhashable"]}\n',
                b'{"cmd": "double", "n": "x"}\n',  # handler ValueError
                b'{"cmd": "double", "n": null}\n',  # handler TypeError
                b'{"cmd": "double", "n": 21}\n',  # ...and still usable
            ):
                writer.write(line)
                await writer.drain()
                replies.append(json.loads(await readline(reader)))
            writer.close()
            return replies

        replies = run(free_port, scenario)
        assert [reply["ok"] for reply in replies] == [False] * 6 + [True]
        assert replies[0]["error"].startswith("Expecting value")
        assert replies[1]["error"] == "request must be an object"
        assert replies[2]["error"] == "unknown command 'nope'"
        assert "invalid literal" in replies[4]["error"]
        assert replies[6] == {"ok": True, "n": 42}

    def test_replies_are_sorted_key_json_lines(self, free_port):
        async def scenario(harness):
            reader, writer = await raw(harness.port)
            writer.write(b'{"value": {"b": 1, "a": 2}, "cmd": "echo"}\n')
            line = await readline(reader)
            writer.close()
            return line

        assert run(free_port, scenario) == (
            b'{"echo": {"a": 2, "b": 1}, "ok": true}\n'
        )

    def test_pipelined_requests_are_answered_in_order(self, free_port):
        async def scenario(harness):
            reader, writer = await raw(harness.port)
            writer.write(
                b"".join(
                    b'{"cmd": "double", "n": %d}\n' % n for n in range(200)
                )
            )
            await writer.drain()
            answers = [json.loads(await readline(reader))["n"] for _ in range(200)]
            writer.close()
            return answers

        assert run(free_port, scenario) == [2 * n for n in range(200)]

    def test_oversize_line_is_refused_and_the_server_stays_up(self, free_port):
        async def scenario(harness):
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            reader, writer = await raw(harness.port)
            pad = "x" * (linerpc.MAX_REQUEST_LINE + 4096)
            writer.write(json.dumps({"cmd": "echo", "pad": pad}).encode() + b"\n")
            await writer.drain()
            reply = json.loads(await readline(reader))
            eof = await readline(reader)
            writer.close()
            async with await LineClient.open(("127.0.0.1", harness.port)) as client:
                after = await client.call({"cmd": "echo", "value": 1})
            return reply, eof, after, loop_errors

        reply, eof, after, loop_errors = run(free_port, scenario)
        assert reply == {"ok": False, "error": "request line too long"}
        assert eof == b""  # the connection is closed: the stream is unframed
        assert after == {"ok": True, "echo": 1}
        assert loop_errors == []

    def test_a_line_at_the_limit_is_served(self, free_port):
        async def scenario(harness):
            async with await LineClient.open(("127.0.0.1", harness.port)) as client:
                frame = len(encode({"cmd": "echo", "value": ""})) + 1
                value = "v" * (linerpc.MAX_REQUEST_LINE - frame)
                return await client.call({"cmd": "echo", "value": value}), value

        reply, value = run(free_port, scenario)
        assert reply == {"ok": True, "echo": value}


class TestStreamingVerbs:
    def test_stream_takes_the_connection_over_until_it_returns(self, free_port):
        async def scenario(harness):
            reader, writer = await raw(harness.port)
            # A request pipelined behind a streaming verb is never read.
            writer.write(b'{"cmd": "ticks"}\n{"cmd": "echo"}\n')
            await writer.drain()
            header = await readline(reader)
            harness.release.set()
            rest = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            return header, rest

        header, rest = run(free_port, scenario)
        assert header == b'{"ok": true, "streaming": true}\n'
        assert rest == b'{"tick": "final"}\n'

    def test_stream_that_declines_leaves_the_connection_in_request_mode(
        self, free_port
    ):
        async def scenario(harness):
            async with await LineClient.open(("127.0.0.1", harness.port)) as client:
                refused = await client.call({"cmd": "ticks", "refuse": True})
                return refused, await client.call({"cmd": "echo", "value": "still"})

        refused, after = run(free_port, scenario)
        assert refused == {"ok": False, "error": "not today"}
        assert after == {"ok": True, "echo": "still"}

    def test_slow_reader_loses_history_not_the_stream(self, free_port):
        """Ring overflow while the reader is away: newest kept + ``dropped``."""

        async def scenario(harness):
            reader, writer = await raw(harness.port)
            writer.write(b'{"cmd": "ring"}\n')
            await readline(reader)  # header
            for n in range(10):  # capacity 4: 0..5 are evicted
                harness.ring.append(encode({"n": n}))
            harness.ring_ready.set()
            burst = [json.loads(await readline(reader)) for _ in range(5)]
            harness.ring.append(encode({"n": 10}))
            harness.ring_ready.set()
            after = json.loads(await readline(reader))
            writer.close()
            return burst, after

        burst, after = run(free_port, scenario)
        assert burst == [{"n": 6}, {"n": 7}, {"n": 8}, {"n": 9}, {"dropped": 6}]
        assert after == {"n": 10}  # no new drops: no new marker


class TestDrainingClose:
    def test_close_lets_a_stream_flush_its_final_line(self, free_port):
        async def scenario(harness):
            reader, writer = await raw(harness.port)
            writer.write(b'{"cmd": "ticks"}\n')
            await readline(reader)
            # The stop that triggers close() is the one the stream ends on.
            harness.release.set()
            await harness.server.close()
            rest = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            return rest

        assert run(free_port, scenario) == b'{"tick": "final"}\n'

    def test_close_cancels_what_outlives_the_grace(self, free_port, monkeypatch):
        monkeypatch.setattr(linerpc, "CLOSE_GRACE", 0.2)

        async def scenario(harness):
            loop = asyncio.get_running_loop()
            hang_reader, hang_writer = await raw(harness.port)
            hang_writer.write(b'{"cmd": "hang"}\n')
            await readline(hang_reader)
            _idle_reader, idle_writer = await raw(harness.port)  # never sends
            started = loop.time()
            await harness.server.close()
            elapsed = loop.time() - started
            eof = await asyncio.wait_for(hang_reader.read(), 5.0)
            with pytest.raises(OSError):
                await raw(harness.port)  # no longer listening
            hang_writer.close()
            idle_writer.close()
            return elapsed, eof

        elapsed, eof = run(free_port, scenario)
        assert 0.2 <= elapsed < 1.5
        assert eof == b""

    def test_close_is_idempotent_and_start_is_not(self, free_port):
        async def scenario(harness):
            with pytest.raises(RuntimeError):
                await harness.server.start()
            await harness.server.close()
            await harness.server.close()

        run(free_port, scenario)


class TestSyncClients:
    """``call`` and ``LineStream`` block, so the server runs in a thread."""

    @pytest.fixture
    def served(self, free_port):
        ready = threading.Event()
        box = {}

        def serve():
            async def main():
                harness = Harness(free_port())
                await harness.server.start()
                box["harness"] = harness
                box["loop"] = asyncio.get_running_loop()
                box["stop"] = asyncio.Event()
                ready.set()
                await box["stop"].wait()
                harness.release.set()
                await harness.server.close()

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(5.0)
        yield box
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(5.0)

    def test_call_round_trip_and_error_reply(self, served):
        address = ("127.0.0.1", served["harness"].port)
        assert call(address, {"cmd": "double", "n": 4}) == {"ok": True, "n": 8}
        assert call(address, {"cmd": "nope"})["ok"] is False

    def test_call_to_nobody_raises_oserror(self, free_port):
        with pytest.raises(OSError):
            call(("127.0.0.1", free_port()), {"cmd": "echo"}, timeout=1.0)

    def test_line_stream_yields_raw_lines_until_eof(self, served):
        harness = served["harness"]
        stream = LineStream(("127.0.0.1", harness.port), {"cmd": "ticks"})
        lines = iter(stream)
        assert next(lines) == '{"ok": true, "streaming": true}\n'
        served["loop"].call_soon_threadsafe(harness.release.set)
        assert list(lines) == ['{"tick": "final"}\n']

    def test_line_stream_close_from_another_thread_ends_iteration(self, served):
        stream = LineStream(("127.0.0.1", served["harness"].port), {"cmd": "hang"})
        lines = iter(stream)
        next(lines)
        threading.Timer(0.1, stream.close).start()
        try:
            assert list(lines) == []
        except (OSError, ValueError):
            pass  # a cut socket may also surface as an error; both end the read
