"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload rt-open-n4 --seed 7 --seconds 10 --trace 0

prints one line per metric (name, value, unit) and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1`` (which
also writes ``trace-<workload>.json`` under ``--out``). A failed correctness
check exits non-zero and prints no result. ``bench/suite.py`` runs every
workload and compares sets of runs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic_ns

ROOT = Path(__file__).resolve().parent.parent
# The script's own directory would shadow the standard library's ``trace``
# with bench/trace.py; import the benchmark as the package ``bench`` instead.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench import BenchFailure, child_env, rt  # noqa: E402
from bench.ledger import check_bypassed_layers  # noqa: E402
from bench.workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    REFERENCE_PROBE_NS,
    SIM_EXACT,
    WORKLOADS,
    RtWorkload,
    SimWorkload,
)

#: ``setup_s`` on ``sim-*`` is the fastest of at least this many spawns (the
#: fastest, not the median: see ``reference_wall_s``).
SIM_SETUP_SAMPLES = 8


def _sim_child(
    workload: SimWorkload,
    seed: int,
    setup_only: bool = False,
    trace_file: Path | None = None,
) -> dict:
    """One repetition (or one set-up) in a fresh process."""
    spec = {
        "workload": workload.name, "seed": seed, "setup_only": setup_only,
        "trace": trace_file is not None,
        "trace_file": str(trace_file) if trace_file is not None else None,
    }
    spawn_ns = monotonic_ns()
    done = subprocess.run(
        [sys.executable, "-m", "bench.sim_child", json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=170,
    )
    if done.returncode != 0:
        raise BenchFailure(f"{workload.name}: sim child exited {done.returncode}")
    result = json.loads(done.stdout)
    result["setup_s"] = (result["ready_ns"] - spawn_ns) / 1e9
    return result


def _same_exact(reps: list[dict], what: str) -> None:
    first = reps[0]["exact"]
    for rep in reps[1:]:
        for name in SIM_EXACT:
            if rep["exact"][name] != first[name]:
                raise BenchFailure(
                    f"{name} differs {what}: {first[name]!r} vs {rep['exact'][name]!r}"
                )


def reference_wall_s(rep: dict) -> float:
    """A repetition's wall clock at the reference sandbox's full speed.

    The sandbox's CPU runs in two modes — full speed, and about 1.8x slower
    while a neighbour holds the sibling hardware thread — that alternate
    every few hundred milliseconds to seconds, so a plain wall clock reads
    anything between the two. Each slice of the run is scaled by what the
    speed probes on either side of it read, relative to the frozen
    ``REFERENCE_PROBE_NS`` (which also makes runs on different machines
    comparable by ratio).
    """
    slices, probes = rep["slices_ns"], rep["probes_ns"]
    return sum(
        duration * REFERENCE_PROBE_NS / ((probes[i] + probes[i + 1]) / 2)
        for i, duration in enumerate(slices)
    ) / 1e9


def run_sim(workload: SimWorkload, seed: int, seconds: float, traced: bool, out: Path) -> dict:
    """Repeat the fixed-work unit, one fresh process each, for ``seconds``."""
    reps: list[dict] = []
    traced_reps: list[dict] = []
    trace_file = out / f"trace-{workload.name}.json"
    budget_ns = int(seconds * 1e9)
    start_ns = monotonic_ns()
    while not reps or monotonic_ns() - start_ns < budget_ns:
        reps.append(_sim_child(workload, seed))
        if traced:
            # A traced repetition beside each untraced one: the same seed, so
            # the exact counts must match, and the ratio of the two wall
            # clocks is the tracing overhead.
            traced_reps.append(_sim_child(workload, seed, trace_file=trace_file))
    _same_exact(reps + traced_reps, "between repetitions of one seed, traced or not")
    attempted = reps[0]["attempted"]
    failed = max(rep["failed"] for rep in reps + traced_reps)
    exact = reps[0]["exact"]
    # The probes take out most of a disturbance, not all of a heavy one, and
    # what is left only ever adds: the fastest repetition is the estimate.
    wall_s = min(reference_wall_s(rep) for rep in reps)
    if traced:
        layers = {
            metric.name: statistics.median([rep["layers"][metric.name] for rep in traced_reps])
            for metric in PER_LAYER
        }
        layers["trace.overhead_frac"] = (
            min(reference_wall_s(rep) for rep in traced_reps) / wall_s - 1.0
        )
        check_bypassed_layers(workload, layers)
        return {
            "metrics": layers, "attempted": attempted, "failed": failed,
            "notes": {"repetitions": len(traced_reps), "trace_file": str(trace_file)},
        }
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SIM_SETUP_SAMPLES:
        setups.append(_sim_child(workload, seed, setup_only=True)["setup_s"])
    metrics = {
        "tx_per_s": exact["committed_txs"] / wall_s,
        "ack_p50_ms": exact["ack_p50_ms"],
        "ack_p95_ms": exact["ack_p95_ms"],
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "within_limit_frac": (attempted - failed) / attempted,
        "setup_s": min(setups),
    }
    notes = {
        "repetitions": len(reps),
        "setup_s_samples": setups,
        "reference_wall_s": wall_s,
        "plain_wall_s_per_repetition": [rep["wall_s"] for rep in reps],
        "ack_samples": exact["ack_samples"],
        "exact": {name: exact[name] for name in SIM_EXACT},
    }
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, out: Path) -> dict:
    workload = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(workload, SimWorkload):
        return run_sim(workload, seed, seconds, traced, out)
    assert isinstance(workload, RtWorkload)
    return asyncio.run(rt.run_workload(workload, seed, seconds, traced, out))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out")
    args = parser.parse_args()
    args.out = args.out.resolve()  # the children run from the repository root
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.out
        )
    except BenchFailure as exc:
        print(f"{args.workload}: no result: {exc}", file=sys.stderr)
        return 1
    if result["notes"].get("invalid"):
        print(f"{args.workload}: {result['notes']['invalid']}", file=sys.stderr)
    catalogue = PER_LAYER if args.trace else END_TO_END
    (args.out / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({key: result[key] for key in ("metrics", "attempted", "failed", "notes")})
    )
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, value in result["notes"].items():
        print(f"# {key}: {value}")
    for metric in catalogue:
        print(f"{metric.name:<32}{result['metrics'][metric.name]:>18.6f} {metric.unit}")
    print(f"{'attempted':<32}{result['attempted']:>18d} count")
    print(f"{'failed':<32}{result['failed']:>18d} count")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric.name: {
                        "value": result["metrics"][metric.name], "unit": metric.unit,
                    }
                    for metric in catalogue
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
