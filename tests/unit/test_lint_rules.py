"""Per-rule fixture tests for the determinism lint.

Each rule gets seeded violations it must catch and clean equivalents it
must not flag. Scope tests assert the per-package applicability (DET002
only in simulated-time packages; ASYNC003 in every module, top-level ones
included).
"""

import pytest

from repro.lint.engine import lint_source
from repro.lint.registry import RULES


def codes(violations):
    return [v.code for v in violations]


def check(source, module="repro.sim.fixture"):
    return lint_source(source, module=module)


class TestRegistry:
    def test_all_rules_registered(self):
        assert {r.code for r in RULES} == {
            "DET001",
            "DET002",
            "DET003",
            "ASYNC003",
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

    def test_top_level_module_in_scope(self):
        source = (
            "import asyncio\n"
            "async def main(coro):\n"
            "    asyncio.create_task(coro)\n"
        )
        assert codes(check(source, module="repro.__main__")) == ["ASYNC003"]


class TestViolation:
    def test_violation_positions_reported(self):
        [violation] = check("import random\n")
        assert (violation.line, violation.code) == (1, "DET001")
        assert violation.snippet == "import random"
