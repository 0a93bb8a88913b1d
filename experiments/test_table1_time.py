"""Table 1, column "Expected Time Complexity".

Paper (§3): time complexity is the expected number of time units to deliver
O(n) values proposed by different correct processes **starting from any
point in the execution** — a steady-state quantity, defined against a
worst-case scheduler. DAG-Rider achieves O(1) (each commit's causal history
carries >= 2f+1 distinct sources, and commits are at most a constant
expected number of waves apart); VABA/Dumbo-based SMRs need O(log n)
because outputting n slots in sequential order waits for the *slowest* of n
concurrent geometric view counts (Ben-Or & El-Yaniv [6]).

The geometric mechanism only bites under adversarial scheduling, so both
systems run under the same adversary class: per protocol unit (an SMR slot
/ a DAG-Rider wave) the adversary delays f victim processes' messages. A
slot whose elected leader is a victim burns extra views; a wave whose coin
lands on a victim is skipped — with probability ≈ 1/3 each, exactly the
worst-case schedules the two bounds are stated against.

Measured, warm-started:

* DAG-Rider — time units per commit (averaged over several inter-commit
  intervals);
* SMRs — time units to output n further sequential slots, plus the
  max-of-geometrics variable itself (the largest view count any slot used).
"""

from __future__ import annotations

from repro.baselines.smr import SlotMessage, SmrNode
from repro.broadcast.bracha import BrachaMessage
from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.common.types import wave_of_round
from repro.core.harness import DagRiderDeployment
from repro.dag.vertex import Vertex
from repro.sim.adversary import GroupVictimDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler

NS = [4, 7, 10, 13, 16]
SEEDS = [1, 2, 3, 4, 5]
PENALTY = 8.0
COMMIT_WINDOW = 6  # inter-commit intervals averaged per DAG-Rider run


def _wave_group(message):
    if isinstance(message, BrachaMessage) and isinstance(message.payload, Vertex):
        if message.payload.round >= 1:
            return wave_of_round(message.payload.round)
    return None


def _slot_group(message):
    return message.slot if isinstance(message, SlotMessage) else None


def _victim_adversary(n: int, seed: int, group_of):
    return GroupVictimDelay(
        UniformDelay(derive_rng(seed, "d"), 0.1, 1.0),
        n=n,
        victims=(n - 1) // 3,
        seed=seed,
        group_of=group_of,
        penalty=PENALTY,
    )


def dagrider_steady_time_units(n: int, seed: int) -> float:
    """Warm per-commit time under the per-wave victim adversary."""
    deployment = DagRiderDeployment(
        SystemConfig(n=n, seed=seed),
        adversary=_victim_adversary(n, seed, _wave_group),
    )
    node = deployment.correct_nodes[0]

    deployment.scheduler.run(
        max_events=8_000_000, stop_when=lambda: len(node.ordering.commits) >= 1
    )
    assert node.ordering.commits, "no first commit"
    warm_time = deployment.scheduler.now

    target = 1 + COMMIT_WINDOW
    deployment.scheduler.run(
        max_events=8_000_000,
        stop_when=lambda: len(node.ordering.commits) >= target,
    )
    assert len(node.ordering.commits) >= target
    elapsed = (deployment.scheduler.now - warm_time) / COMMIT_WINDOW
    return deployment.metrics.time_units(elapsed)


def smr_steady(n: int, seed: int, protocol: str) -> tuple[float, int]:
    """Warm time for n more sequential outputs + the max views any slot took."""
    config = SystemConfig(n=n, seed=seed)
    sched = Scheduler()
    network = Network(sched, config, _victim_adversary(n, seed, _slot_group))
    nodes = [
        SmrNode(pid, network, protocol=protocol, max_slots=2 * n, window=n)
        for pid in range(n)
    ]
    for node in nodes:
        sched.call_at(0.0, node.start)

    sched.run(
        max_events=12_000_000,
        stop_when=lambda: all(node.output_count >= n for node in nodes),
    )
    assert all(node.output_count >= n for node in nodes)
    warm_time = sched.now
    sched.run(
        max_events=12_000_000,
        stop_when=lambda: all(node.output_count >= 2 * n for node in nodes),
    )
    assert all(node.output_count >= 2 * n for node in nodes)
    elapsed = sched.now - warm_time

    max_views = 0
    for node in nodes:
        for slot in node._slots.values():
            max_views = max(max_views, getattr(slot, "views_used", 0))
    return network.metrics.time_units(elapsed), max_views


def test_table1_time_complexity(report):
    def experiment():
        rows = {"DAG-Rider": [], "VABA SMR": [], "Dumbo SMR": []}
        views = {"VABA SMR": [], "Dumbo SMR": []}
        for n in NS:
            rows["DAG-Rider"].append(
                sum(dagrider_steady_time_units(n, s) for s in SEEDS) / len(SEEDS)
            )
            for name, protocol in (("VABA SMR", "vaba"), ("Dumbo SMR", "dumbo")):
                samples = [smr_steady(n, s, protocol) for s in SEEDS]
                rows[name].append(sum(t for t, _ in samples) / len(SEEDS))
                views[name].append(sum(v for _, v in samples) / len(SEEDS))
        return rows, views

    rows, views = experiment()

    header = f"{'system':<12}{'paper':>12}" + "".join(f"{n:>10}" for n in NS)
    lines = [header, "-" * len(header)]
    claims = {"DAG-Rider": "O(1)", "VABA SMR": "O(log n)", "Dumbo SMR": "O(log n)"}
    for name, values in rows.items():
        growth = values[-1] / values[0]
        lines.append(
            f"{name:<12}{claims[name]:>12}"
            + "".join(f"{v:>10.1f}" for v in values)
            + f"   growth x{growth:.2f}"
        )
    lines.append("")
    for name, values in views.items():
        lines.append(
            f"{name:<12}{'max views':>12}"
            + "".join(f"{v:>10.1f}" for v in values)
            + "   (max of n geometrics -> log n)"
        )
    lines.append(
        "\n(steady-state §3 time units under a per-unit f-victim adversary:"
        "\nper DAG-Rider commit — each carries O(n) distinct-source values —"
        "\nvs per n sequential SMR slot outputs; warm-started, mean over "
        f"{len(SEEDS)} seeds)"
    )
    report("Table 1 / Expected Time Complexity", "\n".join(lines))

    dag = rows["DAG-Rider"]
    # O(1): DAG-Rider's steady inter-commit time is flat-ish in n — one
    # commit delivers O(n) distinct-source values no matter the n. (The
    # residual drift is the shared substrate's quorum-order-statistics
    # effect, which also raises the SMR rows.)
    assert max(dag) / min(dag) < 2.5
    for name in ("VABA SMR", "Dumbo SMR"):
        # §3 compares time per O(n) ordered values: a DAG-Rider commit vs n
        # sequential SMR slots. DAG-Rider wins at every measured n...
        for dag_value, smr_value in zip(dag, rows[name]):
            assert smr_value > dag_value
        # ...and the SMRs' O(log n) mechanism is present: the max-of-n-
        # geometrics view count exceeds the single-view median and does not
        # shrink with n (the log n *curve* needs n beyond a laptop sweep).
        assert views[name][-1] >= views[name][0]
        assert views[name][-1] > 1.5
