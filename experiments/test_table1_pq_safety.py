"""Table 1, column "Post-Quantum Safety".

Paper: DAG-Rider's safety has information-theoretic guarantees — it relies
on the coin's unpredictability (a computational assumption) only for
liveness. We model a quantum/unbounded adversary as one that *predicts every
coin flip* and uses the knowledge for maximum damage: it delays each
predicted wave leader's first-round vertex so the commit rule keeps missing.

Measured: under prediction, DAG-Rider's commit rate per completed wave drops
(liveness damage) while every safety property — total order, integrity,
agreement on content — still holds on every seed.
"""

from __future__ import annotations

from repro.broadcast.bracha import BrachaMessage
from repro.coin.ideal import IdealCoin
from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.core.harness import DagRiderDeployment
from repro.dag.vertex import Vertex
from repro.sim.adversary import LeaderSuppressionAdversary, UniformDelay

SEEDS = [1, 2, 3, 4, 5]


def wave_of(message):
    if isinstance(message, BrachaMessage) and isinstance(message.payload, Vertex):
        if message.payload.round % 4 == 1:
            return message.payload.round // 4 + 1
    return None


def run(seed: int, predict: bool, max_wave: int | None = None) -> dict:
    config = SystemConfig(n=4, seed=seed)
    base = UniformDelay(derive_rng(seed, "d"), 0.1, 1.0)
    adversary = base
    if predict:
        adversary = LeaderSuppressionAdversary(
            base,
            leader_oracle=IdealCoin(config.seed, config.n).oracle,
            wave_of=wave_of,
            penalty=20.0,
            max_wave=max_wave,
        )
    deployment = DagRiderDeployment(config, adversary=adversary)
    deployment.run(max_events=60_000)
    deployment.check_total_order()
    deployment.check_integrity()
    waves_completed = min(
        node.current_round // 4 for node in deployment.correct_nodes
    )
    waves_committed = min(node.decided_wave for node in deployment.correct_nodes)
    return {
        "completed": waves_completed,
        "committed": waves_committed,
        "ordered": min(len(n.ordered) for n in deployment.correct_nodes),
    }


def test_pq_safety(report):
    def experiment():
        return {
            "benign": [run(seed, predict=False) for seed in SEEDS],
            "predicting": [run(seed, predict=True) for seed in SEEDS],
            "window": [run(seed, predict=True, max_wave=3) for seed in SEEDS],
        }

    results = experiment()

    def rate(rows):
        completed = sum(r["completed"] for r in rows)
        committed = sum(r["committed"] for r in rows)
        return committed / max(1, completed)

    benign_rate = rate(results["benign"])
    predict_rate = rate(results["predicting"])
    window_rate = rate(results["window"])
    lines = [
        f"{'adversary':<26}{'commits / completed wave':>26}{'safety':>10}",
        "-" * 62,
        f"{'benign (random)':<26}{benign_rate:>26.2f}{'OK':>10}",
        f"{'predicts every coin':<26}{predict_rate:>26.2f}{'OK':>10}",
        f"{'predicts waves 1-3 only':<26}{window_rate:>26.2f}{'OK':>10}",
        "",
        "(an unbounded adversary that predicts every coin flip halts commits",
        " entirely — exactly the paper's point that unpredictability is needed",
        " for *liveness* — yet total order and integrity held on every seed:",
        " safety never rests on the coin, hence post-quantum safety. Once the",
        " prediction window ends, commits resume. VABA/Dumbo place signatures",
        " on their safety path instead.)",
    ]
    report("Table 1 / Post-Quantum Safety", "\n".join(lines))

    assert benign_rate > 0.8
    # Full prediction is a total liveness denial...
    assert predict_rate == 0.0
    # ...a bounded prediction window is survived...
    assert window_rate > 0.0
    assert all(r["committed"] >= 1 for r in results["window"])
    # ...and safety held everywhere (check_total_order would have raised).
