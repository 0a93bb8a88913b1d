"""Unit tests for the live telemetry plane.

Covers the bounded event ring (overflow drops oldest + counts), the
control socket's ``subscribe`` verb (a ``repro.obs.trace`` document
written live: header, the bus's window, each event as it is emitted, one
metrics record per tick) served by a ``NodeRunner`` whose data socket is
never bound, the dumps a ``LiveView`` cuts from the stream lines it
folded, and the stall detector (a frozen quorum trips it; a
slow-but-progressing one does not).
"""

import asyncio
import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.common.config import SystemConfig
from repro.obs.bus import EventBus
from repro.obs.context import Observability
from repro.obs.export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    event_line,
    header_line,
    load_trace,
    loads_trace,
    metrics_line,
    record_event,
)
from repro.obs.stream import DEFAULT_STREAM_CAPACITY, EventRing, StallDetector
from repro.runtime import live as live_module
from repro.runtime import runner as runner_module
from repro.runtime.live import DUMP_EVENTS, LiveView
from repro.runtime.peers import make_peer_table
from repro.runtime.runner import ControlServer, NodeRunner


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


def fed_view(lines, **kwargs):
    """A ``LiveView`` that folded ``lines``, ``(pid, text)`` pairs, as its
    reader threads fold what the streams send; nothing is connected."""
    view = LiveView(table4(), {"cmd": "subscribe"}, **kwargs)
    for pid, text in lines:
        view._fold_line(view._nodes[pid], text + "\n")
    return view


def life(pid=0, port=1, dropped=0):
    return (pid, header_line({"pid": pid, "port": port, "dropped_events": dropped}))


def ticks(pid, first, count, life_no=0):
    bus = EventBus()
    return [
        (pid, event_line(bus.emit_at(float(first + index), pid, "tick", seq=first + index,
                                     life=life_no)))
        for index in range(count)
    ]


def status(pid, wave):
    record = {"dropped": 0, "links": {"frames_sent": 5}, "seq": 1,
              "status": {"pid": pid, "decided_wave": wave}}
    return (pid, metrics_line(record)), record


class TestFlightRecorder:
    """Dumps cut in the driver from what a ``LiveView`` teed: each node's
    newest life header, newest events and last metrics record, as one
    trace. No node is asked for anything."""

    def test_keeps_last_k_and_counts_overwrites(self):
        events = ticks(0, 1, DUMP_EVENTS + 10)
        tick, record = status(0, 4)
        view = fed_view([life(), *events, tick])
        dump = loads_trace(view.dump("manual"))
        assert [event_line(event) for event in dump.events] == [
            text for _, text in events[10:]
        ]
        assert dump.meta["reason"] == "manual"
        assert dump.meta["pids"] == [0, 1, 2, 3]
        # The ten older teed events are counted, per node and in total.
        assert dump.meta["nodes"]["0"] == {"pid": 0, "port": 1, "dropped_events": 10}
        assert dump.meta["dropped_events"] == 10
        # The last metrics record: status and links.
        assert dump.metrics["nodes"]["0"] == record
        assert dump.metrics["links"] == {"frames_sent": 5}
        # A node that sent nothing is in the dump, with nothing.
        assert dump.meta["nodes"]["3"] == {"pid": 3, "dropped_events": 0}
        assert dump.metrics["nodes"]["3"] is None

    def test_tail_of_a_window_smaller_than_the_dump(self):
        """A stream that began 12 events late: the dump holds all it teed
        and counts what the bus had already dropped."""
        view = fed_view([life(dropped=12), *ticks(0, 1, 8)])
        dump = loads_trace(view.dump("manual"))
        assert [event.get("seq") for event in dump.events] == list(range(1, 9))
        assert dump.meta["nodes"]["0"]["dropped_events"] == 12
        assert dump.meta["dropped_events"] == 12

    def test_dump_is_non_destructive(self):
        view = fed_view([life(), *ticks(0, 1, 3)])
        first = view.dump("a")
        assert view.dump("a") == first
        view._fold_line(view._nodes[0], ticks(0, 4, 1)[0][1] + "\n")
        second = loads_trace(view.dump("b"))
        assert [event.get("seq") for event in second.events] == [1, 2, 3, 4]

    def test_a_replayed_event_is_not_duplicated(self):
        """A stream of the same life subscribed again replays the bus's
        window: the tee and the dump keep each event once."""
        replay = ticks(0, 1, 3)
        view = fed_view([life(), *replay, life(), *replay, *ticks(0, 4, 1)])
        dump = loads_trace(view.dump("manual"))
        assert [event.get("seq") for event in dump.events] == [1, 2, 3, 4]
        assert dump.meta["nodes"]["0"]["dropped_events"] == 0

    def test_the_newest_life_header_and_both_lives_events(self):
        """A restarted node: its newest life's header, and a tail that
        runs from the killed life into the new one, on one host clock."""
        view = fed_view([
            life(port=1), *ticks(0, 1, DUMP_EVENTS), life(port=2), *ticks(0, 1000, 4, 1)
        ])
        dump = loads_trace(view.dump("timeout"))
        assert dump.meta["nodes"]["0"]["port"] == 2
        assert dump.meta["nodes"]["0"]["dropped_events"] == 4
        assert [event.get("life") for event in dump.events[-6:]] == [0, 0, 1, 1, 1, 1]
        assert len(dump.events) == DUMP_EVENTS

    def test_a_dump_cut_while_streams_fold_is_whole(self, monkeypatch):
        """Readers fold on their own threads while the driver cuts dumps:
        in every dump each node's events run without a gap to its newest,
        and the count of older ones matches it. Two-event tails keep a cut
        short, so cuts land between a fold's updates often."""
        monkeypatch.setattr(live_module, "DUMP_EVENTS", 2)
        view = fed_view([life(pid) for pid in range(4)])
        dumps, done = [], threading.Event()

        def fold(pid):
            for _, text in ticks(pid, 1, 5000):
                view._fold_line(view._nodes[pid], text + "\n")

        def cut():
            while not done.is_set():
                dumps.append(view.dump("stress"))

        readers = [threading.Thread(target=fold, args=(pid,)) for pid in range(4)]
        cutters = [threading.Thread(target=cut) for _ in range(2)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in cutters + readers:
                thread.start()
            for reader in readers:
                reader.join(60.0)
            done.set()
            for cutter in cutters:
                cutter.join(60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in cutters + readers)
        dumps.append(view.dump("stress"))
        for text in dumps:
            dump = loads_trace(text)
            for pid in range(4):
                seqs = [event.get("seq") for event in dump.events if event.pid == pid]
                newest = seqs[-1] if seqs else 0
                assert seqs == list(range(newest - len(seqs) + 1, newest + 1))
                assert dump.meta["nodes"][str(pid)]["dropped_events"] == newest - len(seqs)
        assert newest == 5000

    def test_stall_reason_and_duration_are_in_the_meta(self, tmp_path, capsys):
        tick, record = status(0, 2)
        view = fed_view([life(), *ticks(0, 1, 2), tick], out_dir=tmp_path)
        # Every node's frontier flat since a minute ago: the next check fires.
        for pid in range(4):
            view.detector.observe(pid, 2, now=time.monotonic() - 60.0)
        view._check_stall()
        dump = load_trace(str(tmp_path / "stall-1.jsonl"))
        assert dump.meta["reason"] == "stall"
        assert dump.meta["stalled_for"] == view.detector.window
        assert dump.metrics["nodes"]["0"] == record
        assert len(dump.events) == 2
        assert f"live: stall dump written to {tmp_path / 'stall-1.jsonl'}" in (
            capsys.readouterr().out
        )


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
