"""Unit tests for the live telemetry plane.

Covers the bounded event ring (overflow drops oldest + counts), the
control socket's ``subscribe`` verb (a ``repro.obs.trace`` document
written live: header, the bus's window, each event as it is emitted, one
metrics record per tick) and
``flight`` verb (the bus tail as a trace) served by a ``NodeRunner``
whose data socket is never bound, and the stall detector (a frozen
quorum trips it; a slow-but-progressing one does not).
"""

import asyncio
import json
from types import SimpleNamespace

import pytest

from repro.common.config import SystemConfig
from repro.obs.bus import EventBus
from repro.obs.context import Observability
from repro.obs.export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    event_line,
    loads_trace,
    metrics_line,
    record_event,
)
from repro.obs.stream import DEFAULT_STREAM_CAPACITY, EventRing, StallDetector
from repro.runtime import runner as runner_module
from repro.runtime.live import LiveView
from repro.runtime.peers import make_peer_table
from repro.runtime.runner import FLIGHT_EVENTS, ControlServer, NodeRunner


def table4():
    config = SystemConfig(n=4, seed=9)
    peers = {pid: ("127.0.0.1", 1 + pid) for pid in range(4)}
    return make_peer_table(peers, config)


async def unbooted_runner(obs):
    """A runner that never binds its data socket: the control verbs under
    test here read its observability bundle and its unstarted node.

    A runner is built inside a running loop. The bus clock is pinned at
    0.0 first; the first binding wins, so event times stay 0.0 and a
    retention window the test set stays in place."""
    obs.attach_clock(SimpleNamespace(now=0.0))
    return NodeRunner(table4(), 0, observability=obs)


class TestEventRing:
    def test_overflow_drops_oldest_and_counts(self):
        bus = EventBus()
        ring = EventRing(3)
        for index in range(5):
            ring.append(bus.emit_at(float(index), 0, "tick", seq=index))
        assert ring.dropped == 2
        assert [event.get("seq") for event in ring.drain()] == [2, 3, 4]

    def test_drain_empties_but_keeps_drop_count(self):
        bus = EventBus()
        ring = EventRing(2)
        for index in range(4):
            ring.append(bus.emit_at(float(index), 0, "tick", seq=index))
        drained = ring.drain()
        assert [event.get("seq") for event in drained] == [2, 3]
        assert len(ring) == 0
        assert ring.dropped == 2
        assert ring.drain() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventRing(0)


class TestStreamSubscriber:
    """The ``subscribe`` verb on one connection."""

    @staticmethod
    def subscribed(port, script, before=lambda obs: None, interval=0.05):
        """Run ``script(runner, stream)`` once the stream's header arrived.
        ``stream.line()`` reads the next line; ``stream.events_until(kind)``
        reads the event lines up to and including the first of ``kind``,
        skipping metrics records; ``stream.tick()`` reads up to the next
        metrics record and returns it."""

        async def scenario():
            obs = Observability()
            before(obs)
            runner = await unbooted_runner(obs)
            control = ControlServer(runner, "127.0.0.1", port)
            await control.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                json.dumps({"cmd": "subscribe", "interval": interval}).encode() + b"\n"
            )

            async def line():
                return json.loads(await asyncio.wait_for(reader.readline(), 10.0))

            async def events_until(kind):
                events = []
                while not events or events[-1]["kind"] != kind:
                    record = await line()
                    if record.get("schema") != METRICS_SCHEMA:
                        events.append(record)
                return events

            async def tick():
                while (record := await line()).get("schema") != METRICS_SCHEMA:
                    pass
                return record["metrics"]

            stream = SimpleNamespace(
                line=line, events_until=events_until, tick=tick, writer=writer
            )
            try:
                header = await line()
                assert header["schema"] == TRACE_SCHEMA
                assert header["meta"]["pid"] == 0
                assert header["meta"]["interval"] == interval
                # The stream replays the bus's window: it lacks only what
                # fell off the bus, none of it on an unbounded bus.
                assert header["meta"]["dropped_events"] == obs.bus.dropped == 0
                return await script(runner, stream)
            finally:
                writer.close()
                await control.close()

        return asyncio.run(scenario())

    def test_receives_events_after_subscribe(self, free_port):
        """An event emitted after the subscription arrives after the
        window, which holds the one emitted before it."""

        async def script(runner, stream):
            runner.observability.emit(0, "after", seq=1)
            return await stream.events_until("after"), await stream.tick()

        events, tick = self.subscribed(
            free_port(), script, before=lambda obs: obs.emit(0, "before")
        )
        assert events == [
            {"kind": "before", "pid": 0, "t": 0.0},
            {"f": {"seq": 1}, "kind": "after", "pid": 0, "t": 0.0},
        ]
        # A tick is the runner's metrics record plus its status, absolute.
        assert tick["seq"] >= 1 and tick["dropped"] == 0
        assert tick["status"]["pid"] == 0 and tick["status"]["ready"] is True
        assert set(tick) == {"dropped", "links", "seq", "status", "t"}

    def test_an_event_is_written_as_it_happens_not_at_the_tick(self, free_port):
        async def script(runner, stream):
            runner.observability.emit(0, "now")
            return await asyncio.wait_for(stream.line(), 0.5)

        line = self.subscribed(free_port(), script, interval=5.0)
        assert line == {"kind": "now", "pid": 0, "t": 0.0}

    def test_bursts_smaller_than_the_ring_lose_nothing(self, free_port, monkeypatch):
        """Three bursts of five into an 8-slot ring within one 5 s tick:
        each burst is written before the next, so all fifteen arrive."""
        monkeypatch.setattr(runner_module, "DEFAULT_STREAM_CAPACITY", 8)

        async def script(runner, stream):
            for burst in range(3):
                for index in range(5):
                    runner.observability.emit(0, "burst", seq=5 * burst + index)
                await asyncio.sleep(0.05)
            runner.observability.emit(0, "last")
            events = await stream.events_until("last")
            runner.request_stop()  # the final record, without waiting 5 s
            return events, await stream.tick()

        events, tick = self.subscribed(free_port(), script, interval=5.0)
        assert [line["f"]["seq"] for line in events[:-1]] == list(range(15))
        assert tick["dropped"] == 0 and tick["seq"] == 1

    def test_overflow_counted_via_dropped_property(self, free_port, monkeypatch):
        monkeypatch.setattr(runner_module, "DEFAULT_STREAM_CAPACITY", 2)

        async def script(runner, stream):
            for index in range(5):  # one burst, with no write in between
                runner.observability.emit(0, "tick", seq=index)
            events = await stream.events_until("stream_drop")
            return events, await stream.tick(), await stream.tick()

        events, tick, later = self.subscribed(free_port(), script)
        assert [line["f"]["seq"] for line in events[:-1]] == [3, 4]
        # The hole is stamped into the node's own event log as well.
        assert (events[-1]["kind"], events[-1]["f"]) == (
            "stream_drop", {"dropped": 3, "total": 3}
        )
        assert tick["dropped"] == 3
        assert later["dropped"] == 3  # cumulative, not per tick

    def test_close_detaches_from_bus(self, free_port):
        async def script(runner, stream):
            bus = runner.observability.bus
            attached = list(bus._subscribers)
            stream.writer.close()
            for _ in range(200):
                if not bus._subscribers:
                    break
                await asyncio.sleep(0.05)
            return attached, list(bus._subscribers)

        attached, after_hangup = self.subscribed(free_port(), script)
        assert len(attached) == 1
        assert after_hangup == []

    def test_a_stopping_runner_streams_nothing(self, free_port):
        """A live view subscribes again when a stream ends; a runner that
        is already stopping must not answer with another life (a header
        and a final tick) for every such retry."""
        port = free_port()

        async def scenario():
            runner = await unbooted_runner(Observability())
            control = ControlServer(runner, "127.0.0.1", port)
            await control.start()
            runner.request_stop()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"cmd": "subscribe", "interval": 0.05}\n')
                text = await asyncio.wait_for(reader.read(), 10.0)
                writer.close()
                return text
            finally:
                await control.close()

        assert asyncio.run(scenario()) == b""


class TestWireFormat:
    def test_event_line_round_trip(self):
        bus = EventBus()
        event = bus.emit_at(1.25, 2, "commit", wave=3, delivered=4)
        assert record_event(json.loads(event_line(event))) == event

    def test_garbage_rejected(self):
        """The driver's fold skips a line it cannot read — a torn write, a
        foreign record — without dropping the stream or the view's state."""
        view = LiveView(table4(), {"cmd": "subscribe"})
        node = view._nodes[0]
        tick = metrics_line({"status": {"decided_wave": 4}, "dropped": 2})
        assert view._fold_line(node, tick) == [tick]
        for bad in ["not json", "[1,2]", '{"neither": 1}', '{"metrics": 7, "schema": "x"}']:
            assert view._fold_line(node, bad) == []
        assert (node.decided_wave, node.dropped, node.events) == (4, 2, 0)

    def test_default_capacity_is_sane(self):
        assert DEFAULT_STREAM_CAPACITY >= 1024


class TestFlightRecorder:
    """The ``flight`` verb: no recorder, the newest events of the bus."""

    def test_keeps_last_k_and_counts_overwrites(self):
        obs = Observability()
        runner = asyncio.run(unbooted_runner(obs))
        for index in range(FLIGHT_EVENTS + 10):
            obs.emit(0, "tick", seq=index)
        reply = runner.flight_dump("manual")
        assert reply["ok"] and reply["pid"] == 0
        assert reply["status"]["pid"] == 0
        trace = loads_trace(reply["trace"])
        assert trace.events == list(obs.bus.events)[10 : FLIGHT_EVENTS + 10]
        assert trace.meta["reason"] == "manual"
        assert trace.meta["dropped_events"] == 10
        assert trace.meta["t"] == 0.0
        assert set(trace.metrics) == {"links"}
        # The dump stamps the log it was taken from, after the fact.
        stamp = obs.bus.events[-1]
        assert stamp.kind == "flight_dump"
        assert stamp.detail == {
            "events": FLIGHT_EVENTS, "overwritten": 10, "reason": "manual"
        }

    def test_tail_of_a_window_smaller_than_the_dump(self):
        obs = Observability()
        obs.bus.retain_last(8)
        runner = asyncio.run(unbooted_runner(obs))
        for index in range(20):
            obs.emit(0, "tick", seq=index)
        trace = loads_trace(runner.flight_dump("manual")["trace"])
        assert [event.get("seq") for event in trace.events] == list(range(12, 20))
        assert trace.meta["dropped_events"] == 12

    def test_dump_is_non_destructive(self):
        obs = Observability()
        runner = asyncio.run(unbooted_runner(obs))
        obs.emit(0, "tick", seq=0)
        first = loads_trace(runner.flight_dump("a")["trace"])
        second = loads_trace(runner.flight_dump("b")["trace"])
        # The second dump holds what the first did, plus the first's stamp.
        assert second.events[: len(first.events)] == first.events
        assert [event.kind for event in second.events] == ["tick", "flight_dump"]

    def test_stall_reason_stamps_the_log_before_the_tail_is_cut(self):
        obs = Observability()
        runner = asyncio.run(unbooted_runner(obs))
        trace = loads_trace(runner.flight_dump("stall", stalled_for=2.5)["trace"])
        assert [(e.kind, e.get("stalled_for")) for e in trace.events] == [
            ("stall_detected", 2.5)
        ]


class TestStallDetector:
    def test_frozen_quorum_trips_after_window(self):
        detector = StallDetector(4, window=10.0)
        for pid in range(4):
            detector.observe(pid, 2, now=0.0)
        assert detector.quorum_frontier() == 2
        # Nothing advances: same frontiers at every poll.
        for pid in range(4):
            detector.observe(pid, 2, now=9.0)
        assert not detector.check(9.0)
        assert detector.check(10.0)

    def test_slow_but_progressing_quorum_stays_quiet(self):
        detector = StallDetector(4, window=10.0)
        wave = 0
        for tick in range(8):
            now = tick * 6.0  # slower than the window/2, faster than window
            wave += 1
            for pid in range(3):  # pid 3 is frozen at wave 0 forever
                detector.observe(pid, wave, now)
            detector.observe(3, 0, now)
            assert not detector.check(now)

    def test_single_frozen_node_does_not_trip(self):
        # n=4 -> quorum 3: the frontier tracks the 3rd-highest wave, so one
        # frozen node never defines it while three keep advancing.
        detector = StallDetector(4, window=10.0)
        for tick in range(20):
            now = float(tick)
            for pid in range(3):
                detector.observe(pid, tick, now)
            detector.observe(3, 0, now)
        assert detector.quorum_frontier() == 19
        assert not detector.check(20.0)

    def test_rearm_reports_once_per_window(self):
        detector = StallDetector(4, window=5.0)
        for pid in range(4):
            detector.observe(pid, 1, now=0.0)
        assert detector.check(5.0)
        assert not detector.check(6.0)  # re-armed at 5.0
        assert detector.check(10.0)

    def test_no_samples_no_stall(self):
        detector = StallDetector(4, window=5.0)
        assert not detector.check(100.0)
        assert detector.stalled_for(100.0) == 0.0

    def test_quorum_needs_enough_nodes(self):
        detector = StallDetector(4, window=5.0)
        detector.observe(0, 7, now=0.0)
        assert detector.quorum_frontier() == -1

    def test_default_quorum_is_n_minus_f(self):
        assert StallDetector(4).quorum == 3
        assert StallDetector(7).quorum == 5
        assert StallDetector(10).quorum == 7
        assert StallDetector(1).quorum == 1

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            StallDetector(0)
