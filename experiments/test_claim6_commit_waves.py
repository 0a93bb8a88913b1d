"""Claim 6 / §6.2: expected waves until the commit rule fires <= 3/2 + eps.

The paper's argument: by Lemma 2 each wave's common core covers >= 2f+1 of
3f+1 first-round vertices, and the coin is flipped only after the wave
completes, so the (unpredicted) leader lands in the core with probability
>= 2/3. The number of waves between commits is then geometric with success
probability >= 2/3 — expectation <= 3/2.

Measured: the distribution of wave gaps between consecutive commits across
many seeds and several n, under benign random scheduling.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.stats import summarize
from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment

SEEDS = range(12)
NS = [4, 7, 10]
WAVES = 8


def gaps_for(n: int) -> list[int]:
    gaps: list[int] = []
    for seed in SEEDS:
        deployment = DagRiderDeployment(SystemConfig(n=n, seed=seed))
        assert deployment.run_until_wave(WAVES, max_events=4_000_000)
        node = deployment.correct_nodes[0]
        previous = 0
        for record in node.ordering.commits:
            gaps.append(record.wave - previous)
            previous = record.wave
    return gaps


def test_claim6_commit_wave_gaps(report):
    results = {n: gaps_for(n) for n in NS}

    lines = [
        f"{'n':<6}{'samples':>9}{'mean gap':>10}{'paper bound':>13}{'P(gap=1)':>10}{'max':>6}",
        "-" * 54,
    ]
    for n, gaps in results.items():
        summary = summarize(gaps)
        histogram = Counter(gaps)
        p1 = histogram[1] / len(gaps)
        lines.append(
            f"{n:<6}{summary.count:>9}{summary.mean:>10.2f}{'<= 1.5+eps':>13}"
            f"{p1:>10.2f}{int(summary.maximum):>6}"
        )
    all_gaps = [g for gaps in results.values() for g in gaps]
    overall = summarize(all_gaps)
    histogram = Counter(all_gaps)
    dist = "  ".join(f"gap={k}: {v}" for k, v in sorted(histogram.items()))
    lines.append(f"\ndistribution over all runs: {dist}")
    lines.append(
        f"overall mean {overall.mean:.2f} "
        f"(+/- {overall.ci95_half_width():.2f} at 95%)"
    )
    report("Claim 6 / waves per commit (geometric, expectation <= 3/2)", "\n".join(lines))

    # The paper's bound holds with sampling slack on every n.
    for n, gaps in results.items():
        mean = sum(gaps) / len(gaps)
        assert mean <= 1.5 + 0.35, f"n={n}: mean wave gap {mean:.2f} too high"
    # Success probability per wave is at least ~2/3.
    assert histogram[1] / len(all_gaps) >= 0.55
