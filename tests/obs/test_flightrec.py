"""Crash flight recorder: ring semantics, dump format, span replay."""

import json

from repro.obs.events import (
    DuplicationPlaced,
    EventBus,
    RequestCompleted,
    SpanFinished,
    SpanStarted,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.log import load_events
from repro.obs.spans import load_traces, traces_from_events


def placed(i):
    return DuplicationPlaced(addr=i, level=2, kind="rd", from_stash=False,
                             ts=float(i))


class TestRing:
    def test_bounded_capacity_evicts_oldest(self):
        bus = EventBus()
        rec = FlightRecorder(bus, capacity=10)
        for i in range(25):
            bus.emit(placed(i))
        events = rec.events()
        assert len(events) == 10
        assert events[0].addr == 15
        assert events[-1].addr == 24
        assert rec.seen == 25
        assert rec.dropped == 15

    def test_detach_stops_recording(self):
        bus = EventBus()
        rec = FlightRecorder(bus, capacity=10)
        bus.emit(placed(0))
        rec.detach()
        bus.emit(placed(1))
        assert len(rec.events()) == 1


class TestDump:
    def test_dump_roundtrip(self, tmp_path):
        bus = EventBus()
        rec = FlightRecorder(bus, capacity=100, directory=tmp_path)
        for i in range(5):
            bus.emit(placed(i))
        path = rec.dump("unit-test")
        assert path.parent == tmp_path
        # An event log under a header record whose type names no event.
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {
            "type": "postmortem", "reason": "unit-test",
            "time": header["time"], "captured": 5, "dropped": 0,
            "capacity": 100,
        }
        with open(path) as stream:
            events = load_events(stream)
        assert [e.addr for e in events] == [0, 1, 2, 3, 4]

    def test_dump_suffix_matches_live_bus_stream(self, tmp_path):
        # The post-mortem must be a true suffix of what a live
        # subscriber saw -- same events, same order, nothing invented.
        bus = EventBus()
        live = []
        bus.subscribe(live.append, DuplicationPlaced)
        rec = FlightRecorder(bus, capacity=8, directory=tmp_path)
        for i in range(30):
            bus.emit(placed(i))
        path = rec.dump("suffix-check")
        with open(path) as stream:
            events = load_events(stream)
        assert [e.addr for e in events] == [e.addr for e in live[-8:]]


def span_cycle(trace_addr, root="request"):
    return [
        SpanStarted(name=root, ts=0.0, addr=trace_addr, detail="read"),
        SpanStarted(name="oram_access", ts=1.0, addr=trace_addr,
                    detail="read"),
        SpanFinished(name="oram_access", ts=5.0),
        SpanFinished(name=root, ts=6.0),
        RequestCompleted(addr=trace_addr, op="read", served_from="path",
                         issue=0.0, data_ready=5.0, finish=6.0,
                         evicted=False, path_accesses=1, core=-1),
    ]


class TestTraceReplay:
    def test_complete_stream_rebuilds_all_traces(self):
        events = span_cycle(1) + span_cycle(2)
        traces = traces_from_events(events)
        assert len(traces) == 2
        assert [t.root.addr for t in traces] == [1, 2]
        assert all(t.root.name == "request" for t in traces)

    def test_torn_head_skips_to_first_anchor(self):
        # Ring cut mid-trace: an orphan finish, then two good cycles.
        events = [SpanFinished(name="oram_access", ts=0.5),
                  SpanFinished(name="request", ts=0.6)] + \
            span_cycle(7) + span_cycle(8)
        traces = traces_from_events(events)
        assert [t.root.addr for t in traces] == [7, 8]

    def test_serve_mode_oram_access_roots_anchor(self):
        # In serve mode nothing wraps the controller: oram_access is
        # the topmost span on the bus and must anchor rebuilds.
        events = []
        for addr in (3, 4):
            events += [
                SpanStarted(name="oram_access", ts=0.0, addr=addr,
                            detail="read"),
                SpanFinished(name="oram_access", ts=4.0),
            ]
        traces = traces_from_events(events)
        assert [t.root.addr for t in traces] == [3, 4]

    def test_torn_tail_drops_incomplete_trace(self):
        events = span_cycle(1) + [
            SpanStarted(name="request", ts=9.0, addr=2, detail="read"),
        ]
        traces = traces_from_events(events)
        assert [t.root.addr for t in traces] == [1]

    def test_load_postmortem_traces_end_to_end(self, tmp_path):
        bus = EventBus()
        rec = FlightRecorder(bus, capacity=100, directory=tmp_path)
        for event in span_cycle(11) + span_cycle(12):
            bus.emit(event)
        path = rec.dump("replay")
        traces, events = load_traces(path)
        assert events == 10
        assert [t.root.addr for t in traces] == [11, 12]
        # The rebuilt trace satisfies the cycle-exact invariant the
        # analyzer enforces.
        assert traces[0].root.duration == 6.0
