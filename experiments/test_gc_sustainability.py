"""Extension: DAG garbage collection keeps long runs sustainable.

The paper keeps the DAG forever (fine for analysis); its descendants
(Narwhal/Bullshark) garbage-collect delivered rounds because an unbounded
DAG grows without bound in memory (one vertex per process per round, and
ancestor bitsets that grow linearly in total vertices). This experiment
quantifies that: the same workload with and without `gc_depth`, comparing
retained vertices for one event budget — and asserts the GC
run delivers the *identical* log.
"""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment

SEED = 5
EVENTS = 150_000


def run(gc_depth: int | None) -> dict:
    deployment = DagRiderDeployment(
        SystemConfig(n=4, seed=SEED), default_node_kwargs={"gc_depth": gc_depth}
    )
    deployment.run(max_events=EVENTS)
    deployment.check_total_order()
    node = deployment.correct_nodes[0]
    return {
        "rounds": node.current_round,
        "retained": node.store.vertex_count,
        "collected": node.store.collected_count,
        "log": [(e.round, e.source, e.block.digest) for e in node.ordered],
    }


def test_gc_sustainability(report):
    results = {gc: run(gc) for gc in (None, 8)}

    no_gc, with_gc = results[None], results[8]
    lines = [
        f"{'configuration':<16}{'rounds':>8}{'retained vertices':>19}{'collected':>11}",
        "-" * 54,
        f"{'no GC (paper)':<16}{no_gc['rounds']:>8}{no_gc['retained']:>19}{no_gc['collected']:>11}",
        f"{'gc_depth=8':<16}{with_gc['rounds']:>8}{with_gc['retained']:>19}{with_gc['collected']:>11}",
        "",
        f"identical delivery logs: {no_gc['log'] == with_gc['log']}",
        "(same event budget; GC bounds the working set so memory stays",
        " flat in long runs — the deviation Narwhal/Bullshark standardized)",
    ]
    report("Extension / DAG garbage collection", "\n".join(lines))

    assert no_gc["log"] == with_gc["log"]
    assert with_gc["retained"] < no_gc["retained"] / 10
    assert with_gc["rounds"] >= no_gc["rounds"]  # GC never slows progress