"""Chain quality (paper §3).

Claim: for every prefix of the ordered log of size (2f+1)·r, at least
(f+1)·r values were broadcast by correct processes — i.e. Byzantine
processes can author at most f/(2f+1) of any prefix.

We measure the worst prefix across three fault profiles: no faults, f
silent Byzantine proposers, and f equivocating proposers, at n = 4 and 7.
"""

from __future__ import annotations

from repro.analysis.chain_quality import chain_quality_report
from repro.common.config import SystemConfig
from repro.core.faulty import EquivocatingNode, SilentNode
from repro.core.harness import DagRiderDeployment

SEEDS = [1, 2, 3]


def measure(n: int, fault: str) -> dict:
    f = (n - 1) // 3
    byzantine = frozenset(range(n - f, n)) if fault != "none" else frozenset()
    # "stealth" = Byzantine processes that behave protocol-correctly: the
    # worst case for chain quality, since their proposals flow in freely —
    # the bound caps their share at f/(2f+1) of any prefix.
    factory = {
        "none": None,
        "silent": SilentNode,
        "equivocate": EquivocatingNode,
        "stealth": None,
    }[fault]
    worst = 1.0
    violations = 0
    total = 0
    for seed in SEEDS:
        config = SystemConfig(n=n, seed=seed, byzantine=byzantine)
        factories = {pid: factory for pid in byzantine} if factory else None
        deployment = DagRiderDeployment(config, node_factories=factories)
        deployment.run_until_ordered(40, max_events=1_500_000)
        deployment.check_total_order()
        for node in deployment.correct_nodes:
            sources = [entry.source for entry in node.ordered]
            rep = chain_quality_report(sources, byzantine, f)
            worst = min(worst, rep.worst_prefix_fraction)
            violations += rep.violations
            total += rep.total
    return {"worst": worst, "violations": violations, "total": total, "f": f}


def test_chain_quality(report):
    cases = [
        (4, "none"),
        (4, "silent"),
        (4, "equivocate"),
        (4, "stealth"),
        (7, "silent"),
        (7, "stealth"),
    ]
    results = {case: measure(*case) for case in cases}

    lines = [
        f"{'n':<4}{'fault':<12}{'bound (f+1)/(2f+1)':>20}{'worst prefix':>14}{'violations':>12}",
        "-" * 62,
    ]
    for (n, fault), row in results.items():
        bound = (row["f"] + 1) / (2 * row["f"] + 1)
        lines.append(
            f"{n:<4}{fault:<12}{bound:>20.3f}{row['worst']:>14.3f}{row['violations']:>12}"
        )
    lines.append(
        f"\n(worst correct-source fraction over every (2f+1)-aligned prefix, "
        f"{len(SEEDS)} seeds x all correct nodes)"
    )
    report("§3 chain quality", "\n".join(lines))

    for (n, fault), row in results.items():
        assert row["violations"] == 0, f"chain quality violated at n={n}, {fault}"
        bound = (row["f"] + 1) / (2 * row["f"] + 1)
        assert row["worst"] >= bound - 1e-9
