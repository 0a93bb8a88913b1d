"""Unit tests for the observability layer (``repro.obs``).

Covers the pieces the rest of the repo leans on: typed events with sorted
scalar fields, the clock-injected bus, LIFO span nesting, the versioned
JSONL export round-trip, the trace summarize/diff analysis, and that the
event catalog in docs/observability.md lists exactly what the code emits.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.obs.analyze import diff_traces, filter_events, kind_counts, summarize, wave_stats
from repro.obs.bus import EventBus
from repro.obs.context import Observability
from repro.obs.events import Event, make_fields
from repro.obs.export import TraceFormatError, dumps_trace, loads_trace
from repro.obs.spans import PHASE_COMMIT_WALK, PHASE_DELIVER, PIPELINE_PHASES, SpanTracker

HEADER = '{"meta": {}, "schema": "repro.obs.trace", "version": 1}\n'


class TestEvent:
    def test_fields_sorted_regardless_of_kwarg_order(self):
        bus = EventBus()
        a = bus.emit_at(1.0, 0, "x", beta=2, alpha=1)
        b = bus.emit_at(1.0, 0, "x", alpha=1, beta=2)
        assert a == b
        assert a.fields == (("alpha", 1), ("beta", 2))

    def test_get_returns_field_or_default(self):
        event = Event(0.0, 3, "commit", make_fields({"wave": 4}))
        assert event.get("wave") == 4
        assert event.get("missing", -1) == -1

    def test_detail_is_plain_dict(self):
        event = Event(0.0, 0, "x", make_fields({"b": 2, "a": 1}))
        assert event.detail == {"a": 1, "b": 2}

    def test_non_scalar_field_rejected(self):
        with pytest.raises(TypeError, match="non-scalar"):
            make_fields({"bad": [1, 2, 3]})

    def test_scalars_accepted(self):
        fields = make_fields({"i": 1, "f": 0.5, "s": "x", "b": True, "n": None})
        assert dict(fields) == {"i": 1, "f": 0.5, "s": "x", "b": True, "n": None}


class TestEventBus:
    def test_default_clock_stamps_zero(self):
        bus = EventBus()
        assert bus.emit(0, "tick").time == 0.0

    def test_injected_clock_stamps_emits(self):
        times = iter([1.5, 2.5])
        bus = EventBus(clock=lambda: next(times))
        assert bus.emit(0, "a").time == 1.5
        assert bus.emit(0, "b").time == 2.5

    def test_of_kind_and_kinds(self):
        bus = EventBus()
        bus.emit(0, "a")
        bus.emit(1, "a")
        bus.emit(0, "b")
        assert len(bus.of_kind("a")) == 2
        assert len(bus.of_kind("a", pid=1)) == 1
        assert bus.kinds() == {"a", "b"}
        assert len(bus) == 3

    def test_subscribers_called_synchronously(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        event = bus.emit(0, "x", k=1)
        assert seen == [event]

    def test_retain_last_keeps_the_newest_and_counts_the_rest(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        early = [bus.emit(0, "early", i=i) for i in range(3)]
        assert bus.dropped == 0  # unbounded: nothing ever falls off
        bus.retain_last(5)
        assert list(bus) == early and bus.dropped == 0
        late = [bus.emit(i % 2, "late", i=i) for i in range(10)]
        # The window holds the newest five; views and len work on it.
        assert list(bus) == late[-5:]
        assert len(bus) == 5 and bus.dropped == 8
        assert bus.kinds() == {"late"}
        assert bus.of_kind("late", pid=1) == [e for e in late[-5:] if e.pid == 1]
        assert bus.of_kind("early") == []
        # Subscribers are not readers of the window: they saw everything.
        assert seen == early + late

    def test_retain_last_trims_a_longer_log(self):
        bus = EventBus()
        events = [bus.emit(0, "x", i=i) for i in range(6)]
        bus.retain_last(4)
        assert list(bus) == events[-4:] and bus.dropped == 2
        with pytest.raises(ValueError):
            bus.retain_last(0)

    def test_attach_clock_bounds_the_bus_only_when_asked(self):
        class FakeScheduler:
            now = 1.0

        simulated = Observability()
        simulated.attach_clock(FakeScheduler())
        runtime = Observability()
        runtime.attach_clock(FakeScheduler(), retain=2)
        for obs in (simulated, runtime):
            for i in range(4):
                obs.emit(0, "x", i=i)
        assert len(simulated.bus) == 4 and simulated.bus.dropped == 0
        assert len(runtime.bus) == 2 and runtime.bus.dropped == 2

    def test_observability_attach_clock_first_wins(self):
        class FakeScheduler:
            def __init__(self, now):
                self.now = now

        obs = Observability()
        obs.attach_clock(FakeScheduler(5.0))
        obs.attach_clock(FakeScheduler(99.0))  # second binding ignored
        assert obs.bus.now == 5.0


class TestSpans:
    def test_nesting_depth_and_elapsed(self):
        times = iter([0.0, 1.0, 3.0, 6.0])
        bus = EventBus(clock=lambda: next(times))
        spans = SpanTracker(bus)
        outer = spans.begin(0, PHASE_COMMIT_WALK)
        inner = spans.begin(0, PHASE_DELIVER)
        assert spans.depth(0) == 2
        assert spans.end(0, inner) == 2.0  # 3.0 - 1.0
        assert spans.end(0, outer) == 6.0  # 6.0 - 0.0
        begins = bus.of_kind("span_begin")
        assert [event.get("depth") for event in begins] == [0, 1]

    def test_lifo_violation_raises(self):
        spans = SpanTracker(EventBus())
        outer = spans.begin(0, "a")
        spans.begin(0, "b")
        with pytest.raises(ValueError, match="must nest"):
            spans.end(0, outer)

    def test_end_without_open_span_raises(self):
        spans = SpanTracker(EventBus())
        with pytest.raises(ValueError, match="no open span"):
            spans.end(0, 0)

    def test_spans_independent_per_pid(self):
        spans = SpanTracker(EventBus())
        a = spans.begin(0, "x")
        b = spans.begin(1, "x")
        spans.end(0, a)  # pid 1's span is not "innermost" for pid 0
        spans.end(1, b)
        assert spans.depth(0) == 0 and spans.depth(1) == 0

    def test_context_manager_closes_on_exit(self):
        bus = EventBus()
        spans = SpanTracker(bus)
        with spans.span(0, "phase"):
            assert spans.depth(0) == 1
        assert spans.depth(0) == 0
        assert bus.kinds() == {"span_begin", "span_end"}

    def test_pipeline_phases_ordered(self):
        assert PIPELINE_PHASES == (
            "broadcast", "dag_insert", "wave_leader", "commit_walk", "deliver",
        )


class TestExport:
    def _sample_events(self):
        bus = EventBus()
        bus.emit_at(1.0, 0, "wave_ready", wave=1)
        bus.emit_at(2.0, 0, "commit", wave=1, delivered=3)
        bus.emit_at(2.0, 1, "plain")
        return bus.events

    def test_round_trip_preserves_everything(self):
        events = self._sample_events()
        meta = {"cell": "x", "seed": 7}
        metrics = {"links": {"retries": 1}}
        trace = loads_trace(dumps_trace(events, meta=meta, metrics=metrics))
        assert trace.events == events
        assert trace.meta == meta
        assert trace.metrics == metrics

    def test_a_restarted_nodes_tee_loads_every_life(self, tmp_path):
        """A tee holds one document per process life, on one host clock:
        the loader reads both lives' events in order and keeps each life's
        header and last metrics record, and the CLI reads such a file."""
        from repro.common.config import SystemConfig
        from repro.core.harness import DagRiderDeployment
        from repro.obs.cli import main as obs_main

        obs = Observability()
        DagRiderDeployment(SystemConfig(n=4, seed=2), observability=obs).run_until_wave(3)
        events = [event for event in obs.bus.events if event.pid == 0]
        half = len(events) // 2
        path = tmp_path / "node-0.stream.jsonl"
        path.write_text(
            dumps_trace(events[:half], {"pid": 0, "dropped_events": 0}, {"dropped": 1})
            + dumps_trace(events[half:], {"pid": 0, "dropped_events": 2}, {"dropped": 0})
        )
        trace = loads_trace(path.read_text())
        assert trace.events == events
        assert [life.meta["dropped_events"] for life in trace.lives] == [0, 2]
        assert trace.meta == trace.lives[0].meta
        assert trace.metrics == trace.lives[1].metrics == {"dropped": 0}
        assert [life.missing for life in trace.lives] == [1, 2]

        out = tmp_path / "commits.jsonl"
        assert obs_main(["summarize", str(path)]) == 0
        assert obs_main(["causal", str(path)]) == 0
        assert obs_main(["filter", str(path), "--kind", "commit", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert sum('"schema":"repro.obs.trace"' in line for line in lines) == 1
        assert len(loads_trace(out.read_text()).events) == sum(
            event.kind == "commit" for event in events
        )

    def test_serialization_is_byte_stable(self):
        events = self._sample_events()
        assert dumps_trace(events) == dumps_trace(list(events))

    def test_rejects_foreign_schema(self):
        with pytest.raises(TraceFormatError, match="schema"):
            loads_trace('{"schema": "something.else", "version": 1}\n')

    def test_rejects_unknown_version(self):
        with pytest.raises(TraceFormatError, match="version"):
            loads_trace('{"schema": "repro.obs.trace", "version": 99}\n')

    def test_rejects_empty_file(self):
        with pytest.raises(TraceFormatError, match="empty"):
            loads_trace("")

    def test_rejects_malformed_event_line(self):
        text = (
            '{"meta": {}, "schema": "repro.obs.trace", "version": 1}\n'
            '{"pid": 0, "t": 1.0}\n'  # no "kind"
        )
        with pytest.raises(TraceFormatError, match="missing key"):
            loads_trace(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[1]\n", 1),
            (HEADER + "42\n", 2),
            (HEADER + '{"t": 0, "pid": null, "kind": "x"}\n', 2),
            (HEADER + "\n" + "not json\n", 3),
        ],
        ids=["header-not-object", "event-not-object", "null-pid", "not-json"],
    )
    def test_rejects_malformed_line_with_its_number(self, text, line):
        with pytest.raises(TraceFormatError, match=f"^line {line}: "):
            loads_trace(text)


class TestAnalysis:
    def _trace(self, commit_time=2.0, delivered=3):
        bus = EventBus()
        bus.emit_at(1.0, 0, "wave_ready", wave=1)
        bus.emit_at(1.1, 1, "wave_ready", wave=1)
        bus.emit_at(commit_time, 0, "commit", wave=1, delivered=delivered)
        bus.emit_at(commit_time + 0.5, 1, "commit", wave=1, delivered=delivered)
        return bus.events

    def test_kind_counts_sorted(self):
        counts = kind_counts(self._trace())
        assert list(counts) == ["commit", "wave_ready"]
        assert counts == {"commit": 2, "wave_ready": 2}

    def test_filter_events(self):
        events = self._trace()
        assert len(filter_events(events, kinds=["commit"])) == 2
        assert len(filter_events(events, pids=[0])) == 2
        assert len(filter_events(events, tmin=1.05, tmax=2.0)) == 2

    def test_wave_stats(self):
        stats = wave_stats(self._trace())
        entry = stats[1]
        assert entry.ready_time == 1.0  # earliest wave_ready anywhere
        assert entry.first_commit == 2.0
        assert entry.last_commit == 2.5
        assert entry.latency == pytest.approx(1.5)
        assert entry.committers == 2
        assert entry.delivered == 6

    def test_summarize_says_when_the_trace_is_a_suffix(self):
        events = self._trace()
        whole = summarize(events, meta={"dropped_events": 0})
        assert "older dropped" not in whole
        windowed = summarize(events, meta={"dropped_events": 7})
        assert "trace is the last 4 events; 7 older dropped" in windowed
        # A subscribe tee's last tick says what its ring lost on the way.
        assert "holes" not in summarize(events, metrics={"dropped": 0})
        holed = summarize(events, metrics={"dropped": 3})
        assert "stream has holes: 3 events lost to ring overflow" in holed

    def test_summarize_mentions_kinds_and_waves(self):
        text = summarize(self._trace(), meta={"cell": "x"})
        assert "cell=x" in text
        assert "wave_ready" in text
        assert "committers" in text

    def test_diff_identical_traces(self):
        diff = diff_traces(self._trace(), self._trace())
        assert diff.identical and diff.empty
        assert "identical" in diff.render()

    def test_diff_reports_kind_only_in_b(self):
        events_b = list(self._trace())
        events_b.append(Event(3.0, 0, "link_redelivery", make_fields({"seq": 1})))
        diff = diff_traces(self._trace(), events_b)
        assert diff.kind_deltas["link_redelivery"] == (0, 1)
        assert "[only in B]" in diff.render()

    def test_diff_reports_wave_latency_change(self):
        diff = diff_traces(self._trace(), self._trace(commit_time=4.0))
        assert not diff.empty
        (change,) = diff.wave_changes
        assert change.wave == 1
        assert "latency" in change.changed

    def test_diff_tolerance_suppresses_small_shifts(self):
        diff = diff_traces(
            self._trace(), self._trace(commit_time=2.01), time_tolerance=0.1
        )
        assert diff.empty

    def test_diff_reports_delivered_change_exactly(self):
        diff = diff_traces(
            self._trace(), self._trace(delivered=4), time_tolerance=10.0
        )
        (change,) = diff.wave_changes
        assert change.changed["delivered"] == (6, 8)


REPO = Path(__file__).resolve().parents[2]


def emitted_kinds() -> set[str]:
    """Event kinds passed to ``emit`` as literals under ``src/repro``,
    outside ``obs/`` (which defines the method) and ``lint/``."""
    kinds: set[str] = set()
    package = REPO / "src" / "repro"
    for path in package.rglob("*.py"):
        if path.relative_to(package).parts[0] in ("obs", "lint"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            literals = [
                arg.value
                for arg in node.args[:2]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ]
            if literals and node.func.attr == "emit":
                kinds.add(literals[0])
    return kinds


def catalog(heading: str) -> set[str]:
    """Backticked first-column names of the tables under ``## heading``."""
    text = (REPO / "docs" / "observability.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([\w.]+)`", section, re.MULTILINE))


class TestCatalogs:
    def test_event_catalog_is_what_the_code_emits(self):
        assert catalog("Event catalog") == emitted_kinds()
