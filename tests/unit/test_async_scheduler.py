"""AsyncScheduler adapter (the runtime's clock surface)."""

import asyncio
import time

from repro.runtime.transport import AsyncScheduler


def run(coro):
    return asyncio.run(coro)


class TestAsyncScheduler:
    def test_now_is_the_hosts_monotonic_clock(self):
        """No per-boot epoch: two schedulers (two nodes, or two lives of
        one node) on a host read one time axis, the loop's monotonic time."""

        async def main():
            loop = asyncio.get_running_loop()
            before = time.monotonic()
            first = AsyncScheduler(loop).now
            await asyncio.sleep(0.05)
            return before, first, AsyncScheduler(loop).now, loop.time()

        before, first, later, loop_time = run(main())
        assert before <= first
        assert first + 0.04 <= later <= loop_time

    def test_call_later_fires(self):
        async def main():
            sched = AsyncScheduler(asyncio.get_running_loop())
            start = sched.now
            fired = []
            sched.call_later(0.02, lambda: fired.append(sched.now - start))
            await asyncio.sleep(0.1)
            return fired

        fired = run(main())
        assert len(fired) == 1
        assert fired[0] >= 0.015
