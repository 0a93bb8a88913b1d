"""Figure 1: structure of a local DAG under a slow process.

The paper's figure shows DAG_1 of a 4-process system: vertical columns of
rounds, each completed round holding at least 2f+1 = 3 vertices, every
vertex with >= 2f+1 strong edges to the previous round, and a weak edge to a
vertex otherwise unreachable (a slow process's late vertex).

We regenerate the scenario — one correct process with delayed messages —
render the resulting DAG, and assert every structural invariant of §4, plus
the Lemma 2 common core on each completed wave.
"""

from __future__ import annotations

from repro.analysis.render import render_dag
from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.common.types import round_of_wave
from repro.core.harness import DagRiderDeployment
from repro.dag.vertex import Ref
from repro.sim.adversary import SlowProcessDelay, UniformDelay


def build_figure1_dag():
    seed = 6
    config = SystemConfig(n=4, seed=seed)
    adversary = SlowProcessDelay(
        UniformDelay(derive_rng(seed, "d"), 0.1, 1.0), slow={3}, penalty=5.0
    )
    deployment = DagRiderDeployment(config, adversary=adversary)
    assert deployment.run_until_wave(3, max_events=1_000_000)
    return deployment


def test_figure1_dag_structure(report):
    deployment = build_figure1_dag()
    node = deployment.correct_nodes[0]
    store = node.store
    config = deployment.config

    completed_rounds = [
        r for r in store.rounds() if 0 < r <= node.current_round
    ]

    weak_edge_count = 0
    for round_ in completed_rounds[: node.current_round - 1]:
        # Every completed round has at least 2f+1 vertices.
        assert store.round_size(round_) >= config.quorum, (
            f"round {round_} has {store.round_size(round_)} vertices"
        )
    for vertex in store.vertices():
        if vertex.round == 0:
            continue
        # Every vertex carries >= 2f+1 strong edges into the previous round.
        assert len(vertex.strong_parents) >= config.quorum
        for source in vertex.strong_parents:
            assert store.contains(Ref(source, vertex.round - 1))
        # Weak edges point strictly below round-1 and are genuinely needed:
        # the probe without them cannot reach the target.
        for ref in vertex.weak_parents:
            weak_edge_count += 1
            assert ref.round < vertex.round - 1

    # The slow process forced at least one weak edge somewhere.
    assert weak_edge_count > 0

    # Lemma 2 (common core) on every completed wave.
    completed_waves = node.current_round // 4
    for wave in range(1, completed_waves + 1):
        first = store.round(round_of_wave(wave, 1))
        last = store.round(round_of_wave(wave, 4))
        supported = [
            v
            for v in first.values()
            if sum(1 for u in last.values() if store.strong_path(u.ref, v.ref))
            >= config.quorum
        ]
        assert len(supported) >= config.quorum

    body = render_dag(store, max_round=12, n=config.n)
    report(
        "Figure 1 / DAG construction (process 0's local DAG, slow p3)",
        body
        + f"\n\nweak edges in the DAG: {weak_edge_count} "
        f"(p3's late vertices get pulled in, preserving Validity)",
    )
