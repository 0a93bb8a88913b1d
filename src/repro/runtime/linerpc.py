"""Line RPC: newline-delimited JSON over TCP, one server and its clients.

The runner's control socket and the transaction ingress socket are both a
:class:`LineServer` with a verb table; the fabric driver, the live view and
the ingress tests use the clients below (docs/runtime.md "Line RPC").

A request is one JSON object per line, verb under ``"cmd"``; the reply is
one ``json.dumps(..., sort_keys=True)`` line, in request order. Whatever
cannot be served — malformed JSON, a non-object, an unknown verb, a handler
raising ``ValueError``/``TypeError`` over a bad field — is answered
``{"error": "<text>", "ok": false}`` and the connection stays usable. A
*streaming* verb takes the connection over: it gets an awaitable
``send(*lines)`` (one write, one ``drain``) and the connection ends when it
returns; raising ``ValueError`` before sending declines with the error reply.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
from typing import Any, Awaitable, Callable, Iterator, Mapping

#: Longest request line a server reads; a longer one gets an error reply
#: and the connection closed (the rest of the line is unframed).
MAX_REQUEST_LINE = 64 * 1024
#: Longest response line an async client reads (a ``submit_batch`` verdict
#: carries one result object per transaction).
MAX_RESPONSE_LINE = 1 << 20
#: Seconds :meth:`LineServer.close` lets handlers finish (a stream's final
#: flush shares the stop that triggers the close) before cancelling them.
CLOSE_GRACE = 2.0

Address = tuple[str, int]
Verb = Callable[[dict[str, Any]], Mapping[str, object]]
Send = Callable[..., Awaitable[None]]
StreamVerb = Callable[[dict[str, Any], Send], Awaitable[None]]


def encode(message: Mapping[str, object]) -> str:
    """One wire line (without its newline): sorted keys, default separators."""
    return json.dumps(message, sort_keys=True)


def _decode(line: str | bytes, what: str) -> dict[str, Any]:
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ValueError(f"{what} must be an object")
    return message


class LineServer:
    """Accept loop, request dispatch and draining shutdown for one socket."""

    def __init__(
        self,
        host: str,
        port: int,
        verbs: Mapping[str, Verb],
        streams: Mapping[str, StreamVerb],
    ) -> None:
        self.host = host
        self.port = port
        self._verbs = verbs
        self._streams = streams
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task[None]] = set()
        self._closing = False

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError(f"line server {self.host}:{self.port} already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_REQUEST_LINE
        )

    async def close(self) -> None:
        """Stop accepting, let handlers finish within the grace, cancel the rest."""
        self._closing = True
        if self._server is None:
            return
        self._server.close()
        handlers = [task for task in self._handlers if not task.done()]
        if handlers:
            # ``Server.wait_closed`` ignores connection handlers (Python
            # 3.11) or waits on them forever (3.12), so the drain is ours:
            # streams flush their last lines, everything else is cancelled.
            await asyncio.wait(handlers, timeout=CLOSE_GRACE)
            for task in handlers:
                task.cancel()
        await self._server.wait_closed()
        self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)

        async def send(*lines: str) -> None:
            writer.write(("\n".join(lines) + "\n").encode())
            await writer.drain()

        try:
            while not self._closing:
                try:
                    line = await reader.readline()
                except ValueError:  # longer than MAX_REQUEST_LINE
                    await send(encode({"ok": False, "error": "request line too long"}))
                    break
                if not line:
                    break
                try:
                    request = _decode(line, "request")
                    verb = request.get("cmd")
                    if verb in self._streams:
                        await self._streams[verb](request, send)
                        break
                    if verb not in self._verbs:
                        raise ValueError(f"unknown command {verb!r}")
                    response = self._verbs[verb](request)
                except (ValueError, TypeError) as exc:
                    response = {"ok": False, "error": str(exc)}
                await send(encode(response))
        except (ConnectionError, OSError):
            pass
        finally:
            self._handlers.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()


# ------------------------------------------------------------------ clients


def call(
    address: Address, request: Mapping[str, object], timeout: float = 10.0
) -> dict[str, Any]:
    """One blocking request/response round trip on a fresh connection."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall((encode(request) + "\n").encode())
        with sock.makefile("r", encoding="utf-8") as lines:
            line = lines.readline()
    if not line:
        raise ConnectionError(f"no response from {address}")
    return _decode(line, "response")


class LineStream:
    """Blocking client of a streaming verb: iterate the raw response lines
    (verbatim, so a caller can tee them) until EOF; :meth:`close`, from any
    thread, ends a blocked iteration."""

    def __init__(
        self, address: Address, request: Mapping[str, object], timeout: float = 10.0
    ) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        try:
            self._sock.sendall((encode(request) + "\n").encode())
        except OSError:
            self._sock.close()
            raise
        self._sock.settimeout(None)

    def __iter__(self) -> Iterator[str]:
        with self._sock, self._sock.makefile("r", encoding="utf-8") as lines:
            yield from lines

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()


class LineClient:
    """Asyncio client: lock-step :meth:`call` or pipelined send/recv."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, address: Address) -> "LineClient":
        return cls(*await asyncio.open_connection(*address, limit=MAX_RESPONSE_LINE))

    async def send(self, request: Mapping[str, object]) -> None:
        self._writer.write((encode(request) + "\n").encode())
        await self._writer.drain()

    async def recv(self) -> dict[str, Any] | None:
        """The next response line, or None once the server hung up."""
        line = await self._reader.readline()
        return _decode(line, "response") if line else None

    async def call(self, request: Mapping[str, object]) -> dict[str, Any] | None:
        await self.send(request)
        return await self.recv()

    async def close(self) -> None:
        self._writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await self._writer.wait_closed()

    async def __aenter__(self) -> "LineClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
