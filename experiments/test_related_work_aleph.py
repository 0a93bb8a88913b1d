"""Related work (§7): DAG-Rider vs an Aleph-style DAG protocol.

The paper's §7 contrast with Aleph [24]:

* Aleph "us[es] a more efficient binary agreement protocol to agree on
  whether to commit every vertex in a round. They do not amortize
  complexity and have O(n³) per decision" — its *ordering layer* costs n
  binary agreements (O(n²) messages each) per DAG round, while DAG-Rider's
  ordering layer sends **zero** messages (one locally-computed coin per
  wave);
* Aleph does "not satisfy Validity" — a slow correct process's units are
  voted out instead of being pulled in by weak edges.

Both run on the same Bracha DAG-construction substrate here, so the
measured difference is purely the ordering layer.
"""

from __future__ import annotations

from repro.baselines.aleph import build_aleph_cluster
from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.core.harness import DagRiderDeployment
from repro.sim.adversary import SlowProcessDelay, UniformDelay
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler

SEED = 4
TARGET = 30


def aleph_run(n: int, adversary=None) -> dict:
    config = SystemConfig(n=n, seed=SEED)
    sched = Scheduler()
    adversary = adversary or UniformDelay(derive_rng(SEED, "d"))
    network = Network(sched, config, adversary)
    nodes = build_aleph_cluster(config, network)
    for node in nodes:
        sched.call_at(0.0, node.start)
    sched.run(
        max_events=4_000_000,
        stop_when=lambda: all(len(node.ordered) >= TARGET for node in nodes),
    )
    ordering_bits = sum(
        bits
        for tag, bits in network.metrics.bits_by_tag.items()
        if tag.startswith("aleph.")
    )
    delivered = min(len(node.ordered) for node in nodes)
    return {
        "ordering_bits_per_value": ordering_bits / max(1, delivered),
        "total_bits_per_value": network.metrics.correct_bits_total / max(1, delivered),
        "delivered": delivered,
        "nodes": nodes,
    }


def dagrider_run(n: int, adversary=None) -> dict:
    config = SystemConfig(n=n, seed=SEED)
    deployment = DagRiderDeployment(config, adversary=adversary)
    deployment.run_until_ordered(TARGET, max_events=4_000_000)
    node = deployment.correct_nodes[0]
    ordering_bits = deployment.metrics.bits_by_tag.get("CoinShareMessage", 0)
    delivered = min(len(x.ordered) for x in deployment.correct_nodes)
    return {
        "ordering_bits_per_value": ordering_bits / max(1, delivered),
        "total_bits_per_value": deployment.metrics.correct_bits_total
        / max(1, delivered),
        "delivered": delivered,
        "nodes": deployment.correct_nodes,
    }


def test_related_work_aleph(report):
    def experiment():
        results = {}
        for n in (4, 7):
            results[("DAG-Rider", n)] = dagrider_run(n)
            results[("Aleph-style", n)] = aleph_run(n)
        # Validity contrast under a slow correct process.
        slow = SlowProcessDelay(
            UniformDelay(derive_rng(SEED, "s"), 0.1, 1.0), slow={3}, penalty=30.0
        )
        results["aleph-slow"] = aleph_run(4, adversary=slow)
        results["dag-slow"] = dagrider_run(
            4,
            adversary=SlowProcessDelay(
                UniformDelay(derive_rng(SEED, "s2"), 0.1, 1.0), slow={3}, penalty=8.0
            ),
        )
        return results

    results = experiment()

    lines = [
        f"{'system':<14}{'n':>3}{'ordering-layer bits/value':>28}{'total bits/value':>20}",
        "-" * 66,
    ]
    for (name, n) in (("DAG-Rider", 4), ("Aleph-style", 4), ("DAG-Rider", 7), ("Aleph-style", 7)):
        row = results[(name, n)]
        lines.append(
            f"{name:<14}{n:>3}{row['ordering_bits_per_value']:>28,.0f}"
            f"{row['total_bits_per_value']:>20,.0f}"
        )
    slow_share = sum(
        1 for e in results["aleph-slow"]["nodes"][0].ordered if e.source == 3
    )
    dag_share = sum(
        1 for e in results["dag-slow"]["nodes"][0].ordered if e.source == 3
    )
    lines += [
        "",
        f"validity (slow correct p3): Aleph ordered {slow_share} of its values,",
        f"DAG-Rider ordered {dag_share} (weak edges vs per-unit votes).",
        "(same Bracha DAG substrate for both; Aleph's ordering layer pays n",
        " binary agreements per round — §7's 'O(n^3) per decision, no",
        " amortization' — where DAG-Rider's ordering layer is silent)",
    ]
    report("§7 related work / DAG-Rider vs Aleph-style ordering", "\n".join(lines))

    for n in (4, 7):
        assert results[("DAG-Rider", n)]["ordering_bits_per_value"] == 0
        assert results[("Aleph-style", n)]["ordering_bits_per_value"] > 0
    assert slow_share == 0  # Aleph: validity gap
    assert dag_share > 0  # DAG-Rider: eventual fairness
