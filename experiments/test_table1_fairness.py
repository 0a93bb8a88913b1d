"""Table 1, column "Eventual Fairness".

Paper: DAG-Rider's Validity guarantees *all* proposals by correct processes
are eventually ordered (weak edges pull slow vertices into committed causal
histories). VABA/Dumbo SMR decide one party's batch per slot; a correct but
slow party's promotion never wins, so its proposals are never ordered — no
eventual fairness. HoneyBadger-style ACS similarly votes the slow party's
RBC out of each slot.

Measured: with one correct process 8x slower than the rest, the fraction of
ordered values originating at the slow process.
"""

from __future__ import annotations

from repro.baselines.smr import SmrNode
from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.core.harness import DagRiderDeployment
from repro.sim.adversary import SlowProcessDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler

SLOW = 3
SEEDS = [1, 2, 3]


def slow_adversary(seed: int):
    return SlowProcessDelay(
        UniformDelay(derive_rng(seed, "d"), 0.1, 1.0), slow={SLOW}, penalty=8.0
    )


def dagrider_share(seed: int) -> tuple[int, int]:
    deployment = DagRiderDeployment(
        SystemConfig(n=4, seed=seed), adversary=slow_adversary(seed)
    )
    assert deployment.run_until_ordered(60, max_events=1_500_000)
    entries = deployment.correct_nodes[0].ordered
    return sum(1 for e in entries if e.source == SLOW), len(entries)


def smr_share(seed: int, protocol: str, slots: int = 10) -> tuple[int, int]:
    config = SystemConfig(n=4, seed=seed)
    sched = Scheduler()
    network = Network(sched, config, slow_adversary(seed))
    nodes = [
        SmrNode(pid, network, protocol=protocol, max_slots=slots)
        for pid in range(4)
    ]
    for node in nodes:
        sched.call_at(0.0, node.start)
    sched.run(
        max_events=4_000_000,
        stop_when=lambda: all(node.output_count >= slots for node in nodes),
    )
    blocks = nodes[0].ordered_blocks()
    return sum(1 for b in blocks if b.proposer == SLOW), len(blocks)


def test_table1_fairness(report):
    def experiment():
        rows = {}
        rows["DAG-Rider"] = [dagrider_share(s) for s in SEEDS]
        rows["VABA SMR"] = [smr_share(s, "vaba") for s in SEEDS]
        rows["Dumbo SMR"] = [smr_share(s, "dumbo") for s in SEEDS]
        rows["HoneyBadger ACS"] = [smr_share(s, "honeybadger", slots=6) for s in SEEDS]
        return rows

    rows = experiment()

    def fraction(samples):
        slow_total = sum(s for s, _ in samples)
        total = sum(t for _, t in samples)
        return slow_total / max(1, total), slow_total

    claims = {
        "DAG-Rider": "yes",
        "VABA SMR": "no",
        "Dumbo SMR": "no",
        "HoneyBadger ACS": "no",
    }
    lines = [
        f"{'system':<18}{'paper fairness':>16}{'slow-proposer share':>22}{'slow values':>14}",
        "-" * 70,
    ]
    fractions = {}
    for name, samples in rows.items():
        frac, count = fraction(samples)
        fractions[name] = (frac, count)
        lines.append(f"{name:<18}{claims[name]:>16}{frac:>22.3f}{count:>14}")
    lines.append(
        "\n(one correct process 8x slower; share of ordered values it "
        f"authored across {len(SEEDS)} seeds — fair share would be 0.25)"
    )
    report("Table 1 / Eventual Fairness", "\n".join(lines))

    dag_frac, dag_count = fractions["DAG-Rider"]
    assert dag_count > 0, "DAG-Rider censored the slow process"
    for baseline in ("VABA SMR", "Dumbo SMR", "HoneyBadger ACS"):
        frac, _ = fractions[baseline]
        assert frac < dag_frac, f"{baseline} unexpectedly fair"
    # The slow process gets a nontrivial share under DAG-Rider.
    assert dag_frac > 0.05
