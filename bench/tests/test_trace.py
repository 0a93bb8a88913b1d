"""Span arithmetic, and that wrappers exist only while tracing."""

from __future__ import annotations

import pytest

from bench import trace
from bench.trace import Tracer, self_times


def test_self_time_is_duration_minus_direct_children() -> None:
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]
    spans = [(0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 15, 25), (3, 0, 50, 90)]
    assert self_times(spans) == {0: 100 - 30 - 40, 1: 30 - 10, 2: 10, 3: 40}
    assert sum(self_times(spans).values()) == 100  # adds up to the root


def test_wrappers_accumulate_the_same_self_times(monkeypatch: pytest.MonkeyPatch) -> None:
    clock = iter([0, 10, 15, 25, 40, 50, 90, 100])
    monkeypatch.setattr(trace, "monotonic_ns", lambda: next(clock))
    tracer = Tracer()
    a1 = tracer.wrap("x/a1", lambda: None)
    a = tracer.wrap("x/a", lambda: a1())
    b = tracer.wrap("y/b", lambda: None)
    root = tracer.wrap("x/root", lambda: (a(), b()), extract=lambda: (1, 0))
    root()
    functions = tracer.dump()["functions"]
    assert {name: entry["self_ns"] for name, entry in functions.items()} == {
        "x/a1": 10, "x/a": 20, "y/b": 40, "x/root": 30,
    }
    assert tracer.bucket_ns() == {"x": 60, "y": 40}
    # Children inherit the root's identifier, and every span names its parent.
    dump = tracer.dump()
    assert dump["span_fields"] == ["id", "parent", "name", "ident", "start_ns", "end_ns"]
    spans = {dump["span_names"][span[2]]: span for span in dump["spans"]}
    assert {span[3] for span in spans.values()} == {(1, 0)}
    assert spans["x/a1"][1] == spans["x/a"][0]
    assert spans["x/a"][1] == spans["y/b"][1] == spans["x/root"][0]
    recorded = [(span[0], span[1], span[4], span[5]) for span in spans.values()]
    assert sum(self_times(recorded).values()) == 100


def test_span_chains_are_kept_for_the_first_identifiers_only() -> None:
    tracer = Tracer()
    fn = tracer.wrap("x/f", lambda ident: None, extract=lambda ident: ident)
    for round_ in range(trace.SAMPLE_LIMIT + 50):
        fn((round_, 0))
    assert len(tracer.spans) == trace.SAMPLE_LIMIT
    assert tracer.calls[0] == trace.SAMPLE_LIMIT + 50


def test_install_rebinds_and_restore_puts_back() -> None:
    import repro.codec
    import repro.runtime.transport
    from repro.codec.registry import encode_message
    from repro.dag.store import DagStore

    original_add = DagStore.__dict__["add"]
    assert not hasattr(original_add, "__wrapped__")  # nothing installed by import
    tracer = Tracer()
    trace.install(tracer)
    try:
        assert DagStore.__dict__["add"].__wrapped__ is original_add
        for module in (repro.codec, repro.codec.registry, repro.runtime.transport):
            assert module.encode_message.__wrapped__ is encode_message
    finally:
        tracer.restore()
    assert DagStore.__dict__["add"] is original_add
    for module in (repro.codec, repro.codec.registry, repro.runtime.transport):
        assert module.encode_message is encode_message
