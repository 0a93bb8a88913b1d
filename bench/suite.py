"""Run every workload, and compare sets of runs.

    python3 bench/suite.py [--seed N] [--workloads RE] [--trace] [--quick] --out DIR
    python3 bench/suite.py --agree 2          # two sets of the same code
    python3 bench/suite.py --compare A.json B.json

A set is one ``bench/run.py`` invocation per workload (each its own
process), written to ``DIR/set-<k>.json``. ``--agree`` and ``--compare``
print, per workload and end-to-end metric, both values, how much worse the
second is as a share of the first, and the bound; they exit non-zero when a
metric is worse beyond its bound or a count that must repeat exactly on
``sim-*`` differs. ``--compare`` is the parent-versus-change tool: run one
set on each commit with the same ``--seed`` and compare the two files.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench.workloads import END_TO_END, WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 10.0
QUICK_SECONDS = 3.0


def run_one(name: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    """One ``run.py`` process; returns its result file's content."""
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{name}: run.py exited {done.returncode}")
    sys.stdout.write(done.stdout)
    return json.loads((out / f"result-{name}-trace{trace}.json").read_text())


def run_set(names: list[str], seed: int, seconds: float, trace: bool, out: Path) -> dict:
    results: dict[str, dict] = {}
    for name in names:
        results[name] = {"end_to_end": run_one(name, seed, seconds, 0, out)}
        if trace:
            results[name]["per_layer"] = run_one(name, seed, seconds, 1, out)
    return results


def worse_by(metric, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric.better == "lower" else -change


def compare(first: dict, second: dict) -> bool:
    """Print the comparison; True when everything agrees within bounds."""
    agreed = True
    print(f"{'workload':<16}{'metric':<20}{'first':>14}{'second':>14}{'worse by':>10}{'bound':>8}")
    for name in first:
        if name not in second:
            continue
        a, b = first[name]["end_to_end"], second[name]["end_to_end"]
        for side in (a, b):
            if side["notes"].get("invalid"):
                agreed = False
                print(f"{name:<16}invalid run: {side['notes']['invalid']}")
        for metric in END_TO_END:
            x, y = a["metrics"][metric.name], b["metrics"][metric.name]
            worse = worse_by(metric, x, y)
            verdict = ""
            if worse > metric.bound:
                agreed = False
                verdict = "  BEYOND BOUND"
            print(
                f"{name:<16}{metric.name:<20}{x:>14.4f}{y:>14.4f}"
                f"{worse:>+10.3f}{metric.bound:>8.2f}{verdict}"
            )
        exact_a = a["notes"].get("exact", {})
        exact_b = b["notes"].get("exact", {})
        for key in exact_a:
            if exact_a[key] != exact_b.get(key):
                agreed = False
                print(f"{name:<16}{key:<20} exact count differs: "
                      f"{exact_a[key]!r} vs {exact_b.get(key)!r}")
    return agreed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=".", help="regex over workload names")
    parser.add_argument("--trace", action="store_true", help="also run the traced ledger")
    parser.add_argument("--quick", action="store_true", help=f"{QUICK_SECONDS:g}-second runs")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out")
    parser.add_argument("--agree", type=int, nargs="?", const=2, metavar="K")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return 0 if compare(first, second) else 1

    names = [name for name in WORKLOADS if re.search(args.workloads, name)]
    seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    args.out.mkdir(parents=True, exist_ok=True)
    sets = []
    for k in range(args.agree or 1):
        results = run_set(names, args.seed, seconds, args.trace, args.out)
        (args.out / f"set-{k}.json").write_text(json.dumps(results, indent=1))
        sets.append(results)
    agreed = all(compare(sets[0], later) for later in sets[1:])
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
