"""No orphan listeners: the host dies with its parent's pipe, or by kill()."""

from __future__ import annotations

import asyncio

from bench.rt import HostProcess

SPEC = {"n": 4, "seed": 5, "gc_depth": 8, "trace": False}


def test_host_stops_when_its_stdin_closes() -> None:
    async def scenario() -> int:
        host = HostProcess(SPEC)
        await host.start()
        assert host.process is not None and host.process.stdin is not None
        host.process.stdin.close()  # what the host sees when the parent dies
        return await asyncio.wait_for(host.process.wait(), 20.0)

    assert asyncio.run(scenario()) == 0


def test_kill_reaps_and_a_second_host_boots_right_after() -> None:
    async def scenario() -> tuple[int | None, bool]:
        first = HostProcess(SPEC)
        await first.start()
        await first.kill()
        await first.kill()  # idempotent
        assert first.process is not None
        second = HostProcess(SPEC)
        ready = await second.start()
        await second.stop()
        return first.process.returncode, ready["ready"]

    returncode, ready = asyncio.run(scenario())
    assert returncode == -9 and ready
