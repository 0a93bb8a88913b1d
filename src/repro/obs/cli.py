"""``python -m repro.obs`` — record, summarize, filter, diff, stitch traces.

Typical acceptance-style session::

    python -m repro.obs record bracha-n4-b4 --out clean.jsonl
    python -m repro.obs record bracha-n4-b4 --out slow.jsonl --slow 0:1.5
    python -m repro.obs diff clean.jsonl slow.jsonl
    python -m repro.obs causal fabric-out/merged.trace.jsonl

``diff`` follows Unix ``diff`` conventions: exit status 0 when the traces
match (two clean same-seed runs), 1 when they differ (the report then
pinpoints the redelivery/chaos event kinds and the waves whose commit
latency moved). ``causal`` joins a merged multi-host trace into
per-vertex causal chains with per-edge latency percentiles and a
cross-host clock-skew report (:mod:`repro.obs.causal`); it exits 1 when
no chains could be stitched — an empty result means the trace carries no
delivered vertices, which is itself a finding. Any command exits 2, as
diff(1) does on trouble, when a file cannot be read or is not a trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.obs.analyze import diff_traces, filter_events, retention_note, summarize
from repro.obs.causal import stitch
from repro.obs.export import Trace, TraceFormatError, dump_trace, dumps_trace, load_trace


def _parse_slow(spec: str) -> tuple[int, float]:
    try:
        pid_text, penalty_text = spec.split(":", 1)
        return int(pid_text), float(penalty_text)
    except ValueError:
        raise SystemExit(f"--slow expects PID:PENALTY (e.g. 0:1.5), got {spec!r}")


def _find_cell(name: str, base_seed: int) -> "object":
    from repro.perf.cells import suite_cells

    for suite in ("table1", "smoke"):
        for cell in suite_cells(suite, base_seed):
            if cell.name == name:
                return cell
    raise SystemExit(f"unknown cell {name!r}; see repro.perf.cells for the suites")


def _cmd_record(args: argparse.Namespace) -> int:
    # Lazy import: repro.perf pulls in the whole simulator stack, which the
    # read-only subcommands (summarize/filter/diff) never need.
    from repro.perf.runner import run_cell_traced

    cell = _find_cell(args.cell, args.base_seed)
    slow = _parse_slow(args.slow) if args.slow else None
    result, observability, wire = run_cell_traced(cell, slow=slow)
    meta: dict[str, object] = dict(result["params"])
    if slow is not None:
        meta["slow_pid"], meta["slow_penalty"] = slow
    out = args.out or f"{cell.name}.trace.jsonl"
    dump_trace(out, observability.bus.events, meta=meta, metrics={"wire": wire})
    print(f"wrote {len(observability.bus.events)} events to {out}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    print(summarize(trace.events, meta=trace.meta, metrics=trace.metrics))
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    events = filter_events(
        trace.events,
        kinds=args.kind or None,
        pids=args.pid or None,
        tmin=args.tmin,
        tmax=args.tmax,
    )
    text = dumps_trace(events, meta=trace.meta, metrics=trace.metrics)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(events)} of {len(trace.events)} events to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    trace_a: Trace = load_trace(args.trace_a)
    trace_b: Trace = load_trace(args.trace_b)
    diff = diff_traces(trace_a.events, trace_b.events, time_tolerance=args.tolerance)
    print(diff.render())
    return 0 if diff.empty else 1


def _cmd_causal(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    report = stitch(trace.events, clocks=_clocks(trace.meta))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        note = retention_note(trace.meta, len(trace.events))
        if note is not None:
            print(note)
        print(report.render(limit=args.limit))
    return 0 if report.stitched_chains else 1


def _clocks(meta: dict[str, object]) -> dict[int, str] | None:
    """A merged trace's ``clocks`` (pid → host); None when it has none."""
    clocks = meta.get("clocks")
    if not isinstance(clocks, dict):
        return None
    try:
        return {int(pid): str(host) for pid, host in clocks.items()}
    except ValueError:
        raise TraceFormatError(f"meta clocks keys must be pids, got {sorted(clocks)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Record, summarize, filter, and diff protocol traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run a repro.perf cell with observability on and export its trace"
    )
    record.add_argument("cell", help="cell name, e.g. bracha-n4-b4 (table1/smoke suites)")
    record.add_argument("--out", help="output path (default: <cell>.trace.jsonl)")
    record.add_argument(
        "--base-seed", type=int, default=1, help="suite base seed (default 1)"
    )
    record.add_argument(
        "--slow",
        metavar="PID:PENALTY",
        help="perturb the run: add PENALTY sim-time to every delivery to PID "
        "(same base delay stream as the clean run, so diffs isolate the penalty)",
    )
    record.set_defaults(func=_cmd_record)

    summ = sub.add_parser("summarize", help="print a human-readable trace summary")
    summ.add_argument("trace", help="trace file (JSONL)")
    summ.set_defaults(func=_cmd_summarize)

    filt = sub.add_parser("filter", help="select events by kind/pid/time window")
    filt.add_argument("trace", help="trace file (JSONL)")
    filt.add_argument("--kind", action="append", help="keep this kind (repeatable)")
    filt.add_argument("--pid", action="append", type=int, help="keep this pid (repeatable)")
    filt.add_argument("--tmin", type=float, help="keep events at or after this time")
    filt.add_argument("--tmax", type=float, help="keep events at or before this time")
    filt.add_argument("--out", help="write the filtered trace here (default: stdout)")
    filt.set_defaults(func=_cmd_filter)

    diff = sub.add_parser(
        "diff", help="compare two traces (exit 1 when they differ, like diff(1))"
    )
    diff.add_argument("trace_a", help="baseline trace (JSONL)")
    diff.add_argument("trace_b", help="new trace (JSONL)")
    diff.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="ignore wave ready/latency shifts up to this many time units "
        "(default 0.0: exact, for deterministic simulator traces)",
    )
    diff.set_defaults(func=_cmd_diff)

    causal = sub.add_parser(
        "causal",
        help="stitch a merged multi-host trace into per-vertex causal chains "
        "(exit 1 when nothing could be stitched)",
    )
    causal.add_argument("trace", help="trace file (JSONL), e.g. merged.trace.jsonl")
    causal.add_argument(
        "--json", action="store_true", help="emit the report as JSON instead of text"
    )
    causal.add_argument(
        "--limit",
        type=int,
        default=0,
        help="also print up to N per-vertex lines (default 0: edge table only)",
    )
    causal.set_defaults(func=_cmd_causal)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result: int = args.func(args)
    except BrokenPipeError:
        # ``... | head`` closed stdout mid-report; exit quietly like diff(1)
        # (detach stdout so the interpreter's flush-at-exit stays silent).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, TraceFormatError) as error:
        print(f"repro.obs: {error}", file=sys.stderr)
        return 2
    return result
