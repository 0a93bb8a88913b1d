"""Per-rule fixture tests for the determinism lint.

Each rule gets three snippets: one seeded violation it must catch, one
clean equivalent it must not flag, and one suppressed violation an inline
``# repro-lint: ignore[CODE]`` comment must silence. Scope tests assert the
per-package applicability (DET002 only in simulated-time packages,
ASYNC001–003 only in the asyncio packages, runtime/ and mempool/).
"""

import pytest

from repro.lint import RULES, lint_source


def codes(violations):
    return [v.code for v in violations]


def check(source, module="repro.sim.fixture"):
    """Active (unsuppressed) violations for one snippet."""
    active, _ = lint_source(source, module=module)
    return active


def check_suppressed(source, module="repro.sim.fixture"):
    active, suppressed = lint_source(source, module=module)
    return active, suppressed


class TestRegistry:
    def test_all_rules_registered(self):
        assert {r.code for r in RULES} == {
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "ASYNC001",
            "ASYNC002",
            "ASYNC003",
            "EXC001",
        }

    def test_rules_have_summaries(self):
        assert all(r.summary for r in RULES)


class TestDet001GlobalRandom:
    def test_import_random_flagged(self):
        assert "DET001" in codes(check("import random\n"))

    def test_from_random_import_flagged(self):
        assert "DET001" in codes(check("from random import randrange\n"))

    def test_module_call_flagged(self):
        source = "import random\nx = random.random()\n"
        assert codes(check(source)).count("DET001") == 2  # import + call

    def test_seeded_rng_clean(self):
        source = (
            "from repro.common.rng import derive_rng\n"
            "rng = derive_rng(1, 'net')\n"
            "x = rng.random()\n"
        )
        assert check(source) == []

    def test_common_rng_module_exempt(self):
        assert check("import random\n", module="repro.common.rng") == []

    def test_suppression_silences(self):
        source = "import random  # repro-lint: ignore[DET001] typing-only fixture\n"
        active, suppressed = check_suppressed(source)
        assert active == []
        assert codes(suppressed) == ["DET001"]


class TestDet002WallClock:
    def test_time_monotonic_flagged(self):
        source = "import time\n\ndef f():\n    return time.monotonic()\n"
        assert codes(check(source)) == ["DET002"]

    def test_aliased_import_flagged(self):
        source = "from time import monotonic as clock\n\ndef f():\n    return clock()\n"
        assert codes(check(source)) == ["DET002"]

    def test_datetime_now_flagged(self):
        source = (
            "from datetime import datetime\n\ndef f():\n    return datetime.now()\n"
        )
        assert codes(check(source)) == ["DET002"]

    @pytest.mark.parametrize(
        "package", ["dag", "core", "broadcast", "baselines", "obs"]
    )
    def test_applies_across_simulated_time_packages(self, package):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert codes(check(source, module=f"repro.{package}.fixture")) == ["DET002"]

    def test_obs_package_in_scope(self):
        # Events are stamped with sim time so traces stay bit-reproducible;
        # a wall-clock read inside the observability layer must be flagged.
        source = (
            "import time\n\n"
            "def stamp(event):\n"
            "    return time.perf_counter()\n"
        )
        assert codes(check(source, module="repro.obs.fixture")) == ["DET002"]

    def test_perf_package_in_scope(self):
        # perf/ pins exact counts and owns no stopwatch (bench/ measures
        # time): a clock read there would make BENCH_sim.json host-dependent.
        source = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert codes(check(source, module="repro.perf.fixture")) == ["DET002"]

    def test_scheduler_clock_clean(self):
        source = "def f(scheduler):\n    return scheduler.now\n"
        assert check(source) == []

    def test_suppression_silences(self):
        source = (
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # repro-lint: ignore[DET002] logging only\n"
        )
        active, suppressed = check_suppressed(source)
        assert active == []
        assert codes(suppressed) == ["DET002"]


class TestDet003SetOrderEscape:
    def test_for_over_set_literal_flagged(self):
        source = "for x in {1, 2, 3}:\n    print(x)\n"
        assert codes(check(source)) == ["DET003"]

    def test_list_of_set_call_flagged(self):
        source = "def f(items):\n    return list(set(items))\n"
        assert codes(check(source)) == ["DET003"]

    def test_comprehension_over_set_flagged(self):
        source = "def f(items):\n    return [x for x in set(items)]\n"
        assert codes(check(source)) == ["DET003"]

    def test_join_over_set_flagged(self):
        source = "def f(items):\n    return ','.join({str(i) for i in items})\n"
        assert codes(check(source)) == ["DET003"]

    def test_set_algebra_flagged(self):
        source = "def f(a, b):\n    return list(set(a) - set(b))\n"
        assert codes(check(source)) == ["DET003"]

    def test_sorted_wrapper_clean(self):
        source = (
            "def f(items):\n"
            "    for x in sorted(set(items)):\n"
            "        print(x)\n"
            "    return sorted({i for i in items})\n"
        )
        assert check(source) == []

    def test_membership_and_len_clean(self):
        # Non-iterating set use is the whole point of sets; never flagged.
        source = "def f(items, x):\n    s = set(items)\n    return x in s, len(s)\n"
        assert check(source) == []

    def test_set_typed_local_iteration_flagged(self):
        source = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    for x in s:\n"
            "        print(x)\n"
        )
        assert codes(check(source)) == ["DET003"]

    def test_set_typed_local_list_escape_flagged(self):
        source = "def f(items):\n    s = {i for i in items}\n    return list(s)\n"
        assert codes(check(source)) == ["DET003"]

    def test_set_typed_local_sorted_clean(self):
        source = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    return sorted(s)\n"
        )
        assert check(source) == []

    def test_local_with_non_set_rebinding_clean(self):
        # One non-set assignment makes the local's type statically unknown.
        source = (
            "def f(items, flag):\n"
            "    s = set(items)\n"
            "    if flag:\n"
            "        s = load(items)\n"
            "    return list(s)\n"
        )
        assert check(source) == []

    def test_in_place_set_algebra_keeps_local_flagged(self):
        source = (
            "def f(items, extra):\n"
            "    s = set(items)\n"
            "    s |= extra\n"
            "    return list(s)\n"
        )
        assert codes(check(source)) == ["DET003"]

    def test_non_set_aug_assign_clean(self):
        source = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    s += [1]\n"
            "    return list(s)\n"
        )
        assert check(source) == []

    def test_parameter_never_set_typed(self):
        source = "def f(s):\n    return list(s)\n"
        assert check(source) == []

    def test_nested_scope_locals_not_confused(self):
        # The inner function's `s` is a parameter, not the outer set local.
        source = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    def g(s):\n"
            "        return list(s)\n"
            "    return g(sorted(s))\n"
        )
        assert check(source) == []

    def test_set_typed_local_suppression_silences(self):
        source = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    # repro-lint: ignore[DET003] all elements identical\n"
            "    return list(s)\n"
        )
        active, suppressed = check_suppressed(source)
        assert active == []
        assert codes(suppressed) == ["DET003"]

    def test_suppression_silences(self):
        source = (
            "def f(items):\n"
            "    # repro-lint: ignore[DET003] all elements identical\n"
            "    return list(set(items))\n"
        )
        active, suppressed = check_suppressed(source)
        assert active == []
        assert codes(suppressed) == ["DET003"]


class TestDet004IdentityOrder:
    def test_sorted_key_id_flagged(self):
        assert codes(check("def f(items):\n    return sorted(items, key=id)\n")) == [
            "DET004"
        ]

    def test_sort_lambda_id_flagged(self):
        source = "def f(items):\n    items.sort(key=lambda v: id(v))\n"
        assert codes(check(source)) == ["DET004"]

    def test_ordered_id_comparison_flagged(self):
        source = "def f(a, b):\n    return id(a) < id(b)\n"
        assert codes(check(source)) == ["DET004"]

    def test_id_as_mapping_key_flagged(self):
        source = "def f(d, v):\n    d[id(v)] = v\n"
        assert codes(check(source)) == ["DET004"]

    def test_stable_key_clean(self):
        source = (
            "def f(items, a, b):\n"
            "    items.sort(key=lambda v: v.name)\n"
            "    return sorted(items, key=str), a is b\n"
        )
        assert check(source) == []

    def test_suppression_silences(self):
        source = (
            "def f(items):\n"
            "    return sorted(items, key=id)  "
            "# repro-lint: ignore[DET004] debug dump only\n"
        )
        active, suppressed = check_suppressed(source)
        assert active == []
        assert codes(suppressed) == ["DET004"]


class TestAsync001Blocking:
    RUNTIME = "repro.runtime.fixture"

    def test_time_sleep_in_coroutine_flagged(self):
        source = "import time\n\nasync def f():\n    time.sleep(1)\n"
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC001"]

    def test_subprocess_run_flagged(self):
        source = "import subprocess\n\nasync def f():\n    subprocess.run(['ls'])\n"
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC001"]

    def test_open_in_coroutine_flagged(self):
        source = "async def f(path):\n    return open(path).read()\n"
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC001"]

    def test_nested_coroutine_flagged(self):
        source = (
            "import time\n\n"
            "async def outer():\n"
            "    async def inner():\n"
            "        time.sleep(1)\n"
            "    await inner()\n"
        )
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC001"]

    def test_asyncio_sleep_clean(self):
        source = "import asyncio\n\nasync def f():\n    await asyncio.sleep(1)\n"
        assert check(source, module=self.RUNTIME) == []

    def test_sync_closure_skipped(self):
        # A sync def inside a coroutine may run in an executor; not flagged.
        source = (
            "import time\n\n"
            "async def f(loop):\n"
            "    def blocking():\n"
            "        time.sleep(1)\n"
            "    await loop.run_in_executor(None, blocking)\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_sync_function_out_of_scope(self):
        assert check("import time\n\ndef f():\n    time.sleep(1)\n",
                     module=self.RUNTIME) == []

    def test_other_packages_out_of_scope(self):
        source = "import time\n\nasync def f():\n    time.sleep(1)\n"
        assert check(source, module="repro.perf.fixture") == []

    def test_mempool_gateway_in_scope(self):
        source = "import time\n\nasync def f():\n    time.sleep(1)\n"
        assert codes(check(source, module="repro.mempool.gateway")) == ["ASYNC001"]

    def test_suppression_silences(self):
        source = (
            "import time\n\n"
            "async def f():\n"
            "    time.sleep(0)  # repro-lint: ignore[ASYNC001] yields, test shim\n"
        )
        active, suppressed = check_suppressed(source, module=self.RUNTIME)
        assert active == []
        assert codes(suppressed) == ["ASYNC001"]


class TestAsync002AwaitStraddlingWrite:
    RUNTIME = "repro.runtime.fixture"

    def test_stale_read_write_across_await_flagged(self):
        source = (
            "class C:\n"
            "    async def f(self):\n"
            "        snapshot = self.count\n"
            "        await self.flush()\n"
            "        self.count = snapshot + 1\n"
        )
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC002"]

    def test_single_statement_rmw_across_await_flagged(self):
        source = (
            "class C:\n"
            "    async def f(self):\n"
            "        self.count = await merge(self.count)\n"
        )
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC002"]

    def test_read_in_branch_write_after_flagged(self):
        source = (
            "class C:\n"
            "    async def f(self, flag):\n"
            "        if flag:\n"
            "            stale = self.cursor\n"
            "            await self.flush()\n"
            "            self.cursor = stale + 1\n"
        )
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC002"]

    def test_write_re_reading_attr_clean(self):
        # The shipped redelivery pattern: the write derives from a *fresh*
        # read of the attribute, so no update can be lost.
        source = (
            "class C:\n"
            "    async def f(self, seq):\n"
            "        redelivery = seq <= self.ever_written\n"
            "        await self.write(seq)\n"
            "        self.ever_written = max(self.ever_written, seq)\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_no_await_between_read_and_write_clean(self):
        source = (
            "class C:\n"
            "    async def f(self):\n"
            "        snapshot = self.count\n"
            "        self.count = snapshot + 1\n"
            "        await self.flush()\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_plain_overwrite_after_await_clean(self):
        # A write whose value never came from the attribute is a plain
        # overwrite, not a lost update.
        source = (
            "class C:\n"
            "    async def f(self):\n"
            "        await self.server.wait_closed()\n"
            "        self.server = None\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_subscript_store_clean(self):
        # In-place container mutation is rebind-free; out of scope.
        source = (
            "class C:\n"
            "    async def f(self, src):\n"
            "        seen = self.cursor[src]\n"
            "        await self.flush()\n"
            "        self.cursor[src] = seen + 1\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_nested_async_def_is_a_fresh_frame(self):
        source = (
            "class C:\n"
            "    async def f(self):\n"
            "        snapshot = self.count\n"
            "        async def g():\n"
            "            await self.flush()\n"
            "        self.count = snapshot + 1\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_other_packages_out_of_scope(self):
        source = (
            "class C:\n"
            "    async def f(self):\n"
            "        snapshot = self.count\n"
            "        await self.flush()\n"
            "        self.count = snapshot + 1\n"
        )
        assert check(source, module="repro.core.fixture") == []
        assert codes(check(source, module="repro.mempool.gateway")) == ["ASYNC002"]

    def test_suppression_silences(self):
        source = (
            "class C:\n"
            "    async def f(self):\n"
            "        snapshot = self.count\n"
            "        await self.flush()\n"
            "        # repro-lint: ignore[ASYNC002] single-writer coroutine\n"
            "        self.count = snapshot + 1\n"
        )
        active, suppressed = check_suppressed(source, module=self.RUNTIME)
        assert active == []
        assert codes(suppressed) == ["ASYNC002"]


class TestAsync003FireAndForgetTask:
    RUNTIME = "repro.runtime.fixture"

    def test_unsupervised_binding_flagged(self):
        source = (
            "class C:\n"
            "    def start(self, loop):\n"
            "        self.task = loop.create_task(self.run())\n"
        )
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC003"]

    def test_discarded_reference_flagged(self):
        source = "def start(loop, coro):\n    loop.create_task(coro)\n"
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC003"]

    def test_ensure_future_flagged(self):
        source = (
            "import asyncio\n"
            "def start(coro):\n"
            "    fut = asyncio.ensure_future(coro)\n"
        )
        assert codes(check(source, module=self.RUNTIME)) == ["ASYNC003"]

    def test_done_callback_on_binding_clean(self):
        source = (
            "class C:\n"
            "    def start(self, loop):\n"
            "        self.task = loop.create_task(self.run())\n"
            "        self.task.add_done_callback(self.on_done)\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_chained_done_callback_clean(self):
        source = (
            "def start(loop, coro, cb):\n"
            "    loop.create_task(coro).add_done_callback(cb)\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_awaited_spawn_clean(self):
        source = (
            "import asyncio\n"
            "async def run(coro):\n"
            "    await asyncio.create_task(coro)\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_returned_task_clean(self):
        source = "def start(loop, coro):\n    return loop.create_task(coro)\n"
        assert check(source, module=self.RUNTIME) == []

    def test_task_handed_to_gather_clean(self):
        source = (
            "import asyncio\n"
            "async def run(loop, a, b):\n"
            "    await asyncio.gather(loop.create_task(a), loop.create_task(b))\n"
        )
        assert check(source, module=self.RUNTIME) == []

    def test_other_packages_out_of_scope(self):
        source = "def start(loop, coro):\n    loop.create_task(coro)\n"
        assert check(source, module="repro.perf.fixture") == []
        assert codes(check(source, module="repro.mempool.gateway")) == ["ASYNC003"]

    def test_suppression_silences(self):
        source = (
            "def start(loop, coro):\n"
            "    loop.create_task(coro)  "
            "# repro-lint: ignore[ASYNC003] test harness, loop dies with it\n"
        )
        active, suppressed = check_suppressed(source, module=self.RUNTIME)
        assert active == []
        assert codes(suppressed) == ["ASYNC003"]


class TestExc001SwallowedFaults:
    def test_bare_except_flagged(self):
        source = "try:\n    f()\nexcept:\n    handle()\n"
        assert codes(check(source)) == ["EXC001"]

    def test_except_exception_pass_flagged(self):
        source = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert codes(check(source)) == ["EXC001"]

    def test_except_base_exception_ellipsis_flagged(self):
        source = "try:\n    f()\nexcept BaseException:\n    ...\n"
        assert codes(check(source)) == ["EXC001"]

    def test_named_exception_clean(self):
        source = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert check(source) == []

    def test_handled_catch_all_clean(self):
        source = (
            "try:\n"
            "    f()\n"
            "except Exception as exc:\n"
            "    log(exc)\n"
            "    raise\n"
        )
        assert check(source) == []

    def test_suppression_silences(self):
        source = (
            "try:\n"
            "    f()\n"
            "except Exception:  # repro-lint: ignore[EXC001] best-effort close\n"
            "    pass\n"
        )
        active, suppressed = check_suppressed(source)
        assert active == []
        assert codes(suppressed) == ["EXC001"]


class TestSuppressionMechanics:
    def test_multi_code_suppression(self):
        source = (
            "import random  # repro-lint: ignore[DET001,DET002] fixture\n"
        )
        active, suppressed = check_suppressed(source)
        assert active == []
        assert codes(suppressed) == ["DET001"]

    def test_wrong_code_does_not_silence(self):
        source = "import random  # repro-lint: ignore[DET002] wrong code\n"
        active, _ = check_suppressed(source)
        assert codes(active) == ["DET001"]

    def test_standalone_comment_covers_next_statement(self):
        source = (
            "# repro-lint: ignore[DET003] singleton set\n"
            "values = list({1})\n"
        )
        active, suppressed = check_suppressed(source)
        assert active == []
        assert codes(suppressed) == ["DET003"]

    def test_violation_positions_reported(self):
        active = check("import random\n")
        violation = active[0]
        assert (violation.line, violation.code) == (1, "DET001")
        assert violation.snippet == "import random"
