"""AsyncScheduler adapter (the runtime's clock surface)."""

import asyncio

from repro.runtime.transport import AsyncScheduler


def run(coro):
    return asyncio.run(coro)


class TestAsyncScheduler:
    def test_now_starts_near_zero_and_advances(self):
        async def main():
            sched = AsyncScheduler(asyncio.get_running_loop())
            first = sched.now
            await asyncio.sleep(0.05)
            return first, sched.now

        first, later = run(main())
        assert first < 0.01
        assert later >= first + 0.04

    def test_call_later_fires(self):
        async def main():
            sched = AsyncScheduler(asyncio.get_running_loop())
            fired = []
            sched.call_later(0.02, lambda: fired.append(sched.now))
            await asyncio.sleep(0.1)
            return fired

        fired = run(main())
        assert len(fired) == 1
        assert fired[0] >= 0.015
