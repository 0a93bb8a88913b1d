"""Cells: one deterministic simulator configuration each.

A cell fixes everything that affects the run — system size, broadcast
instantiation, batch size, target wave, and a seed derived from the suite's
base seed and the cell name — so the same cell always replays the same
execution, whichever worker process it lands on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.common.rng import derive_seed


@dataclass(frozen=True)
class BenchCell:
    """One simulator configuration the sweep turns into exact counts.

    Attributes:
        name: Unique cell id, used as the JSON key and the seed label.
        n: System size (``f`` follows as ``(n - 1) // 3``).
        broadcast: Reliable-broadcast instantiation (a Table 1 row).
        batch_size: Transactions per proposed block.
        seed: Master seed for this cell's deployment (all randomness in a
            run derives from it).
        tx_bytes: Payload bytes per transaction.
        wave_target: Run until every correct node decided this wave.
        max_events: Event budget; the run fails if the target is not
            reached within it.
        fault: Optional fault injected by the runner; ``"crash_restart"``
            runs one process as a :class:`repro.core.faulty.RecoveringNode`,
            an in-memory crash and rejoin.
    """

    name: str
    n: int
    broadcast: str
    batch_size: int
    seed: int
    tx_bytes: int = 64
    wave_target: int = 3
    max_events: int = 4_000_000
    fault: str | None = None

    def params(self) -> dict[str, object]:
        """The cell as a plain JSON-ready dict (includes the seed)."""
        return asdict(self)


def batch_nlogn(n: int) -> int:
    """The paper's Θ(n log n) batch prescription for the amortized rows."""
    return max(1, round(n * math.log2(n)))


def _cell(
    base_seed: int, n: int, broadcast: str, batch_size: int, suffix: str = "", **kw
) -> BenchCell:
    name = f"{broadcast}-n{n}-b{batch_size}{suffix}"
    return BenchCell(
        name=name,
        n=n,
        broadcast=broadcast,
        batch_size=batch_size,
        seed=derive_seed(base_seed, "bench-cell", name),
        **kw,
    )


def table1_cells(base_seed: int = 1) -> list[BenchCell]:
    """The Table-1 grid: every broadcast row over the paper-scale ``n``s.

    Batch sizes follow ``experiments/test_table1_communication.py``: Θ(n)
    for Bracha and gossip (the quadratic/n-log-n rows), Θ(n log n) for AVID
    (the amortized-linear row).
    """
    cells = []
    for n in (4, 7, 10, 13):
        cells.append(_cell(base_seed, n, "bracha", n))
        cells.append(_cell(base_seed, n, "gossip", n))
        cells.append(_cell(base_seed, n, "avid", batch_nlogn(n)))
    return cells


def table1_large_cells(base_seed: int = 1) -> list[BenchCell]:
    """The scaled grid: n=25/50/100 rows plus crash-recovery cells.

    Wave targets shrink and event budgets grow with ``n`` — a single wave
    at n=100 is millions of delivery events — so every cell stays
    completable on CI-class hardware while still exercising the committee
    sizes the successor papers evaluate (Bullshark's ~50, arXiv
    2209.05633). The ``-crash`` cells run process 1 as a
    :class:`repro.core.faulty.RecoveringNode` (down for 30 simulated time
    units from round 3), measuring the recovery path's cost on the same
    deterministic footing.
    """
    budgets = {
        25: dict(wave_target=2, max_events=2_000_000),
        50: dict(wave_target=1, max_events=6_000_000),
        100: dict(wave_target=1, max_events=25_000_000),
    }
    cells = []
    for n, budget in budgets.items():
        cells.append(_cell(base_seed, n, "bracha", n, **budget))
        cells.append(_cell(base_seed, n, "gossip", n, **budget))
        cells.append(_cell(base_seed, n, "avid", batch_nlogn(n), **budget))
    for n in (13, 25):
        budget = budgets.get(n, dict(wave_target=2, max_events=2_000_000))
        cells.append(
            _cell(
                base_seed, n, "bracha", n, suffix="-crash",
                fault="crash_restart", **budget,
            )
        )
        cells.append(
            _cell(
                base_seed, n, "avid", batch_nlogn(n), suffix="-crash",
                fault="crash_restart", **budget,
            )
        )
    return cells


def smoke_cells(base_seed: int = 1) -> list[BenchCell]:
    """A tiny grid for CI smoke runs and the determinism cross-check."""
    return [
        _cell(base_seed, 4, "bracha", 4),
        _cell(base_seed, 4, "avid", batch_nlogn(4)),
        _cell(base_seed, 7, "bracha", 7),
    ]


def all_cells(base_seed: int = 1) -> list[BenchCell]:
    """Everything the committed ``BENCH_sim.json`` trajectory records."""
    return table1_cells(base_seed) + table1_large_cells(base_seed)


#: Named suites the CLI exposes.
SUITES = {
    "table1": table1_cells,
    "table1-large": table1_large_cells,
    "all": all_cells,
    "smoke": smoke_cells,
}


def suite_cells(suite: str, base_seed: int = 1) -> list[BenchCell]:
    """Cells of a named suite; raises ``KeyError`` for unknown names."""
    return SUITES[suite](base_seed)
