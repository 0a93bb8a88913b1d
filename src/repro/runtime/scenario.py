"""Declarative chaos scenarios for the fabric driver.

A scenario is a JSON document describing a run shape (``n``,
``seed``, ``coin``, target ``waves``) plus an ordered list of fault steps
the driver executes against *real runner processes* — real ``SIGKILL``,
real re-exec with ``--state-dir``, real TCP partitions over each node's
control socket:

.. code-block:: json

    {
      "name": "crash-restart",
      "n": 4,
      "seed": 7,
      "waves": 5,
      "steps": [
        {"kind": "crash", "pid": 1, "at_wave": 1,
         "signal": "kill", "restart_after": 0.5}
      ]
    }

Step kinds:

* ``crash`` — kill runner ``pid`` (``signal``: ``kill`` = SIGKILL, ``term``
  = SIGTERM) once any surviving node's decided wave reaches ``at_wave``,
  wait ``restart_after`` seconds, then respawn it from its state dir,
  require the cross-host digest prefix check to pass after recovery, and
  wait until the restarted node commits a wave past the one it recovered
  to;
* ``partition`` — split the cluster into ``groups`` (each node blocks every
  pid outside its group) for ``heal_after`` seconds, then heal;
* ``slow`` — add ``delay`` seconds (at most
  :data:`repro.runtime.transport.MAX_PEER_DELAY`) before every frame ``pid``
  writes, for ``duration`` seconds.

Validation is strict and upfront — a typo'd scenario fails before any
process is spawned, not twenty seconds into a run. :func:`run_scenario`
executes the validated steps against a :class:`repro.runtime.fabric.Fabric`,
so the step vocabulary — parse and dispatch — lives in this one module.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.errors import ConfigurationError, FabricError
from repro.core.node import COIN_MODES
from repro.runtime.transport import MAX_PEER_DELAY

if TYPE_CHECKING:  # pragma: no cover - typing only (fabric imports this module)
    from repro.runtime.fabric import Fabric
    from repro.runtime.live import LiveView

STEP_KINDS = ("crash", "partition", "slow")
CRASH_SIGNALS = ("kill", "term")


@dataclass(frozen=True)
class ScenarioStep:
    """One fault-injection step of a scenario."""

    kind: str
    pid: int | None = None
    groups: tuple[tuple[int, ...], ...] = ()
    at_wave: int = 1
    signal: str = "kill"
    restart_after: float = 0.5
    heal_after: float = 2.0
    delay: float = 0.05
    duration: float = 2.0


#: Scenario runs bound node memory by default: delivered waves are
#: compacted keeping this many rounds of straggler margin (and snapshots
#: piggyback on each compaction, exercising the recovery path the
#: scenarios exist to test). ``"gc_depth": null`` opts a scenario out.
DEFAULT_SCENARIO_GC_DEPTH = 8


@dataclass(frozen=True)
class Scenario:
    """A named run shape plus its ordered fault steps."""

    name: str
    n: int = 4
    seed: int = 7
    coin: str = "ideal"
    waves: int = 5
    timeout: float = 120.0
    gc_depth: int | None = DEFAULT_SCENARIO_GC_DEPTH
    steps: tuple[ScenarioStep, ...] = field(default=())


def _require_number(
    raw: dict[str, Any],
    key: str,
    where: str,
    minimum: float = 0.0,
    maximum: float = math.inf,
    integer: bool = False,
) -> None:
    """Refuse a present ``key`` that is not a finite number in range (an
    ``integer`` key also refuses a float: ``2.5`` waves is not 2)."""
    if key not in raw:
        return
    value = raw[key]
    if not isinstance(value, int if integer else (int, float)) or isinstance(value, bool):
        expected = "an integer" if integer else "a number"
        raise ConfigurationError(f"{where}: {key} must be {expected}, got {value!r}")
    if not math.isfinite(value) or not minimum <= value <= maximum:
        raise ConfigurationError(
            f"{where}: {key} must be finite and in [{minimum}, {maximum}], got {value}"
        )


def parse_step(raw: dict[str, Any], index: int, n: int) -> ScenarioStep:
    """Validate and freeze one step object."""
    where = f"step {index}"
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where}: must be an object, got {raw!r}")
    kind = raw.get("kind")
    if kind not in STEP_KINDS:
        raise ConfigurationError(
            f"{where}: kind must be one of {STEP_KINDS}, got {kind!r}"
        )
    known = {
        "kind", "pid", "groups", "at_wave", "signal",
        "restart_after", "heal_after", "delay", "duration",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")
    _require_number(raw, "at_wave", where, 1, integer=True)
    for key in ("restart_after", "heal_after", "duration"):
        _require_number(raw, key, where)
    _require_number(raw, "delay", where, 0.0, MAX_PEER_DELAY)

    pid = raw.get("pid")
    if kind in ("crash", "slow"):
        if not isinstance(pid, int) or isinstance(pid, bool) or not 0 <= pid < n:
            raise ConfigurationError(
                f"{where}: {kind} needs a pid in [0, {n}), got {pid!r}"
            )
    signal = raw.get("signal", "kill")
    if signal not in CRASH_SIGNALS:
        raise ConfigurationError(
            f"{where}: signal must be one of {CRASH_SIGNALS}, got {signal!r}"
        )

    groups: tuple[tuple[int, ...], ...] = ()
    if kind == "partition":
        raw_groups = raw.get("groups")
        if not isinstance(raw_groups, list) or len(raw_groups) < 2:
            raise ConfigurationError(
                f"{where}: partition needs >= 2 groups, got {raw_groups!r}"
            )
        seen: set[int] = set()
        built = []
        for group in raw_groups:
            if not isinstance(group, list) or not group:
                raise ConfigurationError(
                    f"{where}: each group must be a non-empty pid list"
                )
            for member in group:
                if type(member) is not int or not 0 <= member < n:
                    raise ConfigurationError(
                        f"{where}: group member {member!r} outside [0, {n})"
                    )
                if member in seen:
                    raise ConfigurationError(
                        f"{where}: pid {member} appears in two groups"
                    )
                seen.add(member)
            built.append(tuple(sorted(group)))
        if seen != set(range(n)):
            raise ConfigurationError(
                f"{where}: groups must cover every pid 0..{n - 1} exactly once"
            )
        groups = tuple(built)

    return ScenarioStep(
        kind=kind,
        pid=pid if isinstance(pid, int) and not isinstance(pid, bool) else None,
        groups=groups,
        at_wave=raw.get("at_wave", 1),
        signal=signal,
        restart_after=float(raw.get("restart_after", 0.5)),
        heal_after=float(raw.get("heal_after", 2.0)),
        delay=float(raw.get("delay", 0.05)),
        duration=float(raw.get("duration", 2.0)),
    )


def parse_scenario(raw: dict[str, Any], origin: str = "<scenario>") -> Scenario:
    """Validate a decoded scenario document into a :class:`Scenario`."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{origin}: scenario must be an object")
    known = {"name", "n", "seed", "coin", "waves", "timeout", "gc_depth", "steps"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(f"{origin}: unknown keys {sorted(unknown)}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"{origin}: scenario needs a non-empty name")
    n = raw.get("n", 4)
    if not isinstance(n, int) or isinstance(n, bool) or n < 4:
        raise ConfigurationError(f"{origin}: n must be an int >= 4, got {n!r}")
    coin = raw.get("coin", "ideal")
    if coin not in COIN_MODES:
        raise ConfigurationError(f"{origin}: unknown coin mode {coin!r}")
    _require_number(raw, "seed", origin, 0, integer=True)
    _require_number(raw, "waves", origin, 1, integer=True)
    _require_number(raw, "timeout", origin, 1.0)
    gc_depth = raw.get("gc_depth", DEFAULT_SCENARIO_GC_DEPTH)
    if gc_depth is not None and (
        not isinstance(gc_depth, int) or isinstance(gc_depth, bool) or gc_depth < 1
    ):
        raise ConfigurationError(
            f"{origin}: gc_depth must be an int >= 1 or null, got {gc_depth!r}"
        )
    raw_steps = raw.get("steps", [])
    if not isinstance(raw_steps, list):
        raise ConfigurationError(f"{origin}: steps must be a list")
    steps = tuple(
        parse_step(step, index, n) for index, step in enumerate(raw_steps)
    )
    # A SIGKILLed node can only come back because of its state dir; the
    # fabric always spawns scenario runs with --state-dir, so any pid is
    # fair game — but crashing more than f nodes at once would stall the
    # run, and steps are sequential, so one-at-a-time is safe by shape.
    return Scenario(
        name=name,
        n=n,
        seed=raw.get("seed", 7),
        coin=coin,
        waves=raw.get("waves", 5),
        timeout=float(raw.get("timeout", 120.0)),
        gc_depth=gc_depth,
        steps=steps,
    )


def load_scenario(path: str) -> Scenario:
    """Load and validate a JSON scenario file."""
    with open(path, "r", encoding="utf-8") as stream:
        try:
            raw = json.load(stream)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(raw, origin=path)


# ---------------------------------------------------------------- execution


def _crash_step(
    step: ScenarioStep, fabric: "Fabric", deadline: float, live: "LiveView"
) -> None:
    """Kill one runner, restart it from its state dir, verify consistency,
    and wait for its first commit past the wave it recovered to."""
    pid = step.pid
    assert pid is not None
    # Kill only a life the view streams: its tee then holds it to the kill.
    if not live.wait_live(deadline, [pid]):
        raise FabricError(f"node {pid}: no subscribe stream to trace its life")
    fabric.crash(pid, step.signal, step.restart_after, deadline)
    live.note(f"fabric: scenario: sent SIG{step.signal.upper()} to node {pid}")
    status = fabric.status(pid)
    recovered_at = status["decided_wave"]
    recovery = status.get("recovery", {})
    live.note(
        f"fabric: scenario: node {pid} recovered in {fabric.boot_latency[pid]:.2f}s "
        f"(snapshot {recovery.get('snapshot_vertices', 0)} + "
        f"wal {recovery.get('replayed_vertices', 0)} vertices, "
        f"{recovery.get('replayed_commits', 0)} commits)"
    )
    # The hard guarantee: a recovered node's log must still be a prefix
    # match with every peer — recovery may not rewrite history.
    prefix = fabric.check_consistency()
    live.note(f"fabric: scenario: post-recovery prefix OK ({prefix} entries)")
    # Consistency alone passes for a node that recovered and then froze;
    # the run's wave target is usually behind the cluster by now, so only
    # a commit of the node's own proves it rejoined the protocol.
    if not fabric.wait_wave(recovered_at + 1, deadline, every=True, pids=[pid]):
        raise FabricError(f"node {pid} recovered but committed nothing")
    live.note(
        f"fabric: scenario: node {pid} committed wave "
        f"{fabric.status(pid)['decided_wave']} past its recovery point "
        f"(wave {recovered_at})"
    )


def run_scenario(
    scenario: Scenario, fabric: "Fabric", deadline: float, live: "LiveView"
) -> None:
    """Execute the scenario's steps in order against the live cluster.

    A step that cannot run in time raises :class:`FabricError`, a
    post-recovery order violation ``ConsistencyError``. Progress goes
    through the live view's scroll-safe ``note`` and each step is named
    in its banner, so even the silent stretches — waiting for a wave, a
    ``restart_after`` or ``heal_after`` sleep — show what the driver is
    doing.
    """
    for index, step in enumerate(scenario.steps):
        label = f"scenario step {index + 1}/{len(scenario.steps)}: {step.kind}"
        live.set_banner(f"{label} (waiting for wave {step.at_wave})")
        if not fabric.wait_wave(step.at_wave, deadline, every=False):
            raise FabricError(
                f"scenario: step {index} ({step.kind}) timed out "
                f"waiting for wave {step.at_wave}"
            )
        live.set_banner(label)
        live.note(f"fabric: scenario: step {index}: {step.kind}")
        if step.kind == "crash":
            _crash_step(step, fabric, deadline, live)
        elif step.kind == "partition":
            for group in step.groups:
                others = [p for p in range(scenario.n) if p not in group]
                for pid in group:
                    fabric.partition(pid, others)
            live.note(f"fabric: scenario: partitioned {list(step.groups)}")
            time.sleep(step.heal_after)
            fabric.heal()
            live.note("fabric: scenario: partition healed")
        elif step.kind == "slow":
            assert step.pid is not None
            fabric.slow(step.pid, step.delay)
            live.note(
                f"fabric: scenario: node {step.pid} slowed by "
                f"{step.delay * 1000:.0f}ms/frame"
            )
            time.sleep(step.duration)
            fabric.slow(step.pid, 0.0)
    live.set_banner("scenario done; waiting for targets")
