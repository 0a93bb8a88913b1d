"""Run one cell and return its exact counts.

A cell's result is ``{"params", "metrics"}`` and nothing else: quantities
(events, bits, commits, transactions) that are identical for the same cell
on any machine, in any worker process, and under any change that preserves
simulator semantics. Time and memory are ``bench/``'s job; per-wave and
per-tag breakdowns come from ``python -m repro.obs record <cell>`` +
``summarize``, which read the bundle and wire snapshot
:func:`run_cell_traced` returns.
"""

from __future__ import annotations

from repro.common.config import SystemConfig
from repro.common.rng import derive_rng
from repro.core.faulty import RecoveringNode
from repro.core.harness import DagRiderDeployment
from repro.obs.context import Observability
from repro.perf.cells import BenchCell
from repro.sim.adversary import SlowProcessDelay, UniformDelay

#: Process slot that runs the fault variant in ``fault="crash_restart"`` cells.
CRASH_PID = 1

#: Simulated rounds/time the crash cells' recovering node is configured with.
CRASH_ROUND = 3
CRASH_DOWNTIME = 30.0


class CellFailure(RuntimeError):
    """A cell did not reach its wave target within its event budget."""


def _build(
    cell: BenchCell, observability: Observability, slow: tuple[int, float] | None
) -> DagRiderDeployment:
    adversary = None
    if slow is not None:
        # Same base delay stream as the default deployment (same seed, same
        # label), so the only difference from a clean run is the penalty —
        # diffing the two traces isolates exactly what the slow peer cost.
        pid, penalty = slow
        adversary = SlowProcessDelay(
            UniformDelay(derive_rng(cell.seed, "delays")), {pid}, penalty
        )
    node_factories = None
    node_kwargs = None
    if cell.fault == "crash_restart":
        # An in-memory crash: one process goes down mid-run and rejoins
        # after replaying the backlog its reliable links held (a real
        # process death is the runtime scenario matrix's SIGKILL).
        node_factories = {CRASH_PID: RecoveringNode}
        node_kwargs = {
            CRASH_PID: {"crash_round": CRASH_ROUND, "downtime": CRASH_DOWNTIME}
        }
    elif cell.fault is not None:
        raise ValueError(f"unknown cell fault {cell.fault!r}")
    return DagRiderDeployment(
        SystemConfig(n=cell.n, seed=cell.seed),
        adversary=adversary,
        broadcast=cell.broadcast,
        batch_size=cell.batch_size,
        tx_bytes=cell.tx_bytes,
        node_factories=node_factories,
        node_kwargs=node_kwargs,
        observability=observability,
    )


def run_cell(cell: BenchCell) -> dict:
    """Execute ``cell`` and return its ``{"params", "metrics"}`` record.

    Top-level and picklable so :mod:`repro.perf.sweep` can ship it to
    ``ProcessPoolExecutor`` workers.
    """
    return run_cell_traced(cell)[0]


def run_cell_traced(
    cell: BenchCell, slow: tuple[int, float] | None = None
) -> tuple[dict, Observability, dict[str, object]]:
    """Like :func:`run_cell`, returning the observability bundle and the
    §3 wire-accounting snapshot too.

    The bundle's bus holds the full protocol event trace (exportable with
    :func:`repro.obs.export.dump_trace`). Pass ``slow=(pid, penalty)`` to
    run the cell under :class:`repro.sim.adversary.SlowProcessDelay` over
    the same base delay stream — the clean-vs-perturbed trace diff then
    shows which waves paid for the slow process.
    """
    observability = Observability()
    deployment = _build(cell, observability, slow)
    if not deployment.run_until_wave(cell.wave_target, max_events=cell.max_events):
        raise CellFailure(
            f"cell {cell.name} missed wave {cell.wave_target} "
            f"within {cell.max_events} events"
        )
    deployment.check_total_order()
    deployment.check_integrity()
    metrics = deployment.metrics
    nodes = deployment.correct_nodes
    result = {
        "params": cell.params(),
        "metrics": {
            "events": deployment.scheduler.events_processed,
            "sim_time": deployment.scheduler.now,
            "total_bits": metrics.total_bits,
            "correct_bits": metrics.correct_bits_total,
            "messages": metrics.messages_total,
            "commits": min(len(node.ordered) for node in nodes),
            "delivered": sum(len(node.ordered) for node in nodes),
            "transactions": deployment.total_transactions_ordered(),
            "decided_wave": min(node.decided_wave for node in nodes),
        },
    }
    return result, observability, metrics.snapshot()
