"""Scenario schema: strict upfront validation of chaos scenario files."""

import pytest

from repro.common.errors import ConfigurationError
from repro.runtime.scenario import load_scenario, parse_scenario, parse_step


def minimal(**overrides):
    raw = {
        "name": "smoke",
        "steps": [{"kind": "crash", "pid": 1}],
    }
    raw.update(overrides)
    return raw


class TestParseScenario:
    def test_defaults_fill_in(self):
        scenario = parse_scenario(minimal())
        assert scenario.name == "smoke"
        assert (scenario.n, scenario.seed, scenario.coin) == (4, 7, "ideal")
        assert scenario.waves == 5
        step = scenario.steps[0]
        assert (step.kind, step.pid, step.signal) == ("crash", 1, "kill")
        assert step.at_wave == 1

    def test_explicit_fields_override(self):
        scenario = parse_scenario(
            minimal(n=5, seed=13, coin="threshold", waves=2, timeout=30.0)
        )
        assert scenario.n == 5 and scenario.seed == 13
        assert scenario.coin == "threshold"
        assert scenario.waves == 2 and scenario.timeout == 30.0

    def test_gc_depth_defaults_on(self):
        from repro.runtime.scenario import DEFAULT_SCENARIO_GC_DEPTH

        assert parse_scenario(minimal()).gc_depth == DEFAULT_SCENARIO_GC_DEPTH

    def test_gc_depth_overrides_and_opts_out(self):
        assert parse_scenario(minimal(gc_depth=3)).gc_depth == 3
        assert parse_scenario(minimal(gc_depth=None)).gc_depth is None

    @pytest.mark.parametrize("bad", [0, -1, True, "deep"])
    def test_bad_gc_depth_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="gc_depth"):
            parse_scenario(minimal(gc_depth=bad))

    @pytest.mark.parametrize(
        "broken",
        [
            {"name": ""},  # empty name
            {"name": 7},  # non-string name
            {"n": 3},  # below the 3f+1 floor for f=1
            {"n": "four"},
            {"coin": "quantum"},
            {"waves": 0},
            {"timeout": 0.5},
            {"steps": "crash"},
            {"bogus": True},  # unknown top-level key
        ],
    )
    def test_invalid_documents_rejected(self, broken):
        with pytest.raises(ConfigurationError):
            parse_scenario(minimal(**broken))

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_scenario(["not", "an", "object"])

    @pytest.mark.parametrize(
        "key,value",
        [("seed", 7.9), ("waves", 2.5), ("seed", True), ("waves", None), ("timeout", None)],
    )
    def test_counts_are_not_truncated(self, key, value):
        """``"seed": 7.9`` ran as seed 7 and ``"waves": 2.5`` as 2; a null
        escaped as a bare ``TypeError`` from ``int``/``float``."""
        with pytest.raises(ConfigurationError, match=key):
            parse_scenario(minimal(**{key: value}))


class TestParseStep:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            parse_step({"kind": "crash", "pid": 0, "restart": 1}, 0, 4)

    @pytest.mark.parametrize(
        "broken",
        [
            {"kind": "explode", "pid": 0},
            {"kind": "crash"},  # crash needs a pid
            {"kind": "crash", "pid": 4},  # out of range for n=4
            {"kind": "crash", "pid": True},  # bool is not a pid
            {"kind": "crash", "pid": 0, "signal": "hup"},
            {"kind": "crash", "pid": 0, "at_wave": 0},
            {"kind": "slow", "pid": 0, "delay": 1.5},  # above MAX_PEER_DELAY
            {"kind": "slow", "pid": 0, "delay": -0.1},
        ],
    )
    def test_invalid_steps_rejected(self, broken):
        with pytest.raises(ConfigurationError):
            parse_step(broken, 0, 4)

    @pytest.mark.parametrize(
        "step",
        [
            {"kind": "slow", "pid": 0, "delay": float("inf")},
            {"kind": "slow", "pid": 0, "delay": float("nan")},
            {"kind": "slow", "pid": 0, "duration": float("inf")},
            {"kind": "crash", "pid": 0, "restart_after": float("nan")},
            {"kind": "partition", "groups": [[0, 1, 2], [3]], "heal_after": 1e999},
        ],
    )
    def test_non_finite_numbers_rejected(self, step):
        """``1e999`` in a JSON file decodes to ``inf``; a slow step with it
        used to stall its node's links for good."""
        with pytest.raises(ConfigurationError, match="finite"):
            parse_step(step, 0, 4)

    @pytest.mark.parametrize("at_wave", [1.5, True, None])
    def test_at_wave_must_be_an_integer(self, at_wave):
        """``"at_wave": 1.5`` fired the step at wave 1."""
        with pytest.raises(ConfigurationError, match="at_wave"):
            parse_step({"kind": "crash", "pid": 0, "at_wave": at_wave}, 0, 4)

    def test_slow_delay_bound_is_inclusive(self):
        from repro.runtime.transport import MAX_PEER_DELAY

        step = parse_step({"kind": "slow", "pid": 0, "delay": MAX_PEER_DELAY}, 0, 4)
        assert step.delay == MAX_PEER_DELAY

    def test_partition_groups_must_cover_every_pid_once(self):
        good = parse_step(
            {"kind": "partition", "groups": [[0, 1], [2, 3]]}, 0, 4
        )
        assert good.groups == ((0, 1), (2, 3))
        for groups in (
            [[0, 1]],  # only one group
            [[0, 1], [2]],  # pid 3 missing
            [[0, 1], [1, 2, 3]],  # pid 1 twice
            [[0, 1], [2, 9]],  # out of range
            [[0, 1], []],  # empty group
        ):
            with pytest.raises(ConfigurationError):
                parse_step({"kind": "partition", "groups": groups}, 0, 4)

    def test_partition_group_member_is_not_a_bool(self):
        """``true`` is no pid: it used to pass as pid 1 because
        ``True == 1`` and ``isinstance(True, int)``."""
        with pytest.raises(ConfigurationError, match="group member True"):
            parse_step({"kind": "partition", "groups": [[0, True], [2, 3]]}, 0, 4)


class TestLoadScenario:
    def test_loads_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            '{"name": "j", "steps": [{"kind": "crash", "pid": 2}]}',
            encoding="utf-8",
        )
        scenario = load_scenario(str(path))
        assert scenario.name == "j" and scenario.steps[0].pid == 2

    def test_invalid_json_reports_the_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="bad.json"):
            load_scenario(str(path))

    def test_repo_scenario_file_is_valid(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        scenario = load_scenario(str(repo / "scenarios" / "crash-restart.json"))
        assert scenario.name == "crash-restart"
        assert scenario.steps[0].kind == "crash"

    def test_repo_partition_slow_scenario_is_valid(self):
        # Slow one node, then cut a minority off: the two faults nothing
        # else runs end to end across real processes.
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        scenario = load_scenario(str(repo / "scenarios" / "partition-slow.json"))
        assert scenario.name == "partition-slow"
        slow, partition = scenario.steps
        assert (slow.kind, slow.pid, slow.delay, slow.duration) == ("slow", 2, 0.05, 2.0)
        assert slow.at_wave == 1
        assert partition.kind == "partition" and partition.at_wave == 2
        assert partition.groups == ((0, 1, 2), (3,)) and partition.heal_after == 2.0

    def test_repo_stall_probe_scenario_is_valid(self):
        # The committed stall-probe scenario splits n=4 into 2+2: neither
        # side holds a commit quorum (3), so the quorum frontier goes flat
        # until the heal — the shape the fabric's stall detector keys on.
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        scenario = load_scenario(str(repo / "scenarios" / "stall-probe.json"))
        assert scenario.name == "stall-probe"
        step = scenario.steps[0]
        assert step.kind == "partition"
        assert step.groups == ((0, 1), (2, 3))
        assert step.heal_after > 0
