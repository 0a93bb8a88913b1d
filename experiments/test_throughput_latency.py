"""Extension: throughput/latency trade-off across batch sizes and transports.

Not a table in the paper — DAG-Rider's descendants (Narwhal/Bullshark)
report exactly this curve, and §6.2's amortization argument predicts its
shape: batching raises throughput (transactions per time unit) at roughly
constant commit latency, because blocks ride the same DAG vertices whatever
their size; the broadcast instantiation only shifts the constant.
"""

from __future__ import annotations

from repro.analysis.latency import inter_commit_times, throughput
from repro.analysis.stats import summarize
from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment

N = 4
SEED = 8
BATCHES = [1, 4, 16, 64]


def measure(broadcast: str, batch_size: int) -> dict:
    deployment = DagRiderDeployment(
        SystemConfig(n=N, seed=SEED),
        broadcast=broadcast,
        batch_size=batch_size,
        tx_bytes=64,
    )
    assert deployment.run_until_wave(5, max_events=3_000_000)
    node = deployment.correct_nodes[0]
    horizon = deployment.scheduler.now
    gaps = inter_commit_times(node.ordering.commits)
    tu = deployment.metrics.max_correct_delay or 1.0
    return {
        "throughput": throughput(node.ordered, horizon) * tu,  # txs per TU
        "latency": summarize(gaps).mean / tu if gaps else float("inf"),
    }


def test_throughput_latency(report):
    def experiment():
        return {
            (broadcast, batch): measure(broadcast, batch)
            for broadcast in ("bracha", "avid")
            for batch in BATCHES
        }

    results = experiment()

    lines = [
        f"{'transport':<10}{'batch':>7}{'txs / time unit':>18}{'commit latency (TU)':>22}",
        "-" * 58,
    ]
    for (broadcast, batch), row in results.items():
        lines.append(
            f"{broadcast:<10}{batch:>7}{row['throughput']:>18.1f}{row['latency']:>22.2f}"
        )
    lines.append(
        "\n(n=4, 64-byte txs; throughput scales ~linearly with batch size at"
        "\nnear-constant commit latency — the §6.2 'blocks ride the same"
        "\nvertices' effect that Narwhal/Bullshark later exploited)"
    )
    report("Extension / throughput vs batch size", "\n".join(lines))

    for broadcast in ("bracha", "avid"):
        series = [results[(broadcast, b)] for b in BATCHES]
        # Throughput grows strongly with batching...
        assert series[-1]["throughput"] > series[0]["throughput"] * (BATCHES[-1] / 4)
        # ...while commit latency stays within a small factor.
        finite = [row["latency"] for row in series if row["latency"] != float("inf")]
        assert max(finite) / min(finite) < 2.0
