"""Every event type must survive both exporters.

PR 4 added recovery/checkpoint events that the timeline and JSONL
exporters silently ignored.  These tests enumerate
:data:`repro.obs.events.EVENT_TYPES` so a future event type cannot ship
without a ``to_dict``/``from_dict`` round-trip and a timeline rendering.
"""

import io
import json
from dataclasses import fields

import pytest

from repro.obs.events import (
    EVENT_BY_NAME,
    EVENT_TYPES,
    EventBus,
    RequestCompleted,
    event_from_dict,
    event_to_dict,
)
from repro.obs.log import JsonlLogger, load_events, run_metadata
from repro.obs.spans import traces_from_events
from repro.obs.timeline import TimelineBuilder

# Synthetic field values per annotation (events use simple scalar types).
SAMPLE_VALUES = {
    "int": 3,
    "float": 7.5,
    "str": "sample",
    "bool": True,
    "str | None": "maybe",
}


def sample_event(cls):
    kwargs = {}
    for f in fields(cls):
        assert f.type in SAMPLE_VALUES, (
            f"{cls.__name__}.{f.name} has unhandled type {f.type!r}; "
            f"teach this test about it"
        )
        kwargs[f.name] = SAMPLE_VALUES[f.type]
    return cls(**kwargs)


ALL_EVENTS = [sample_event(cls) for cls in EVENT_TYPES]


class TestDictRoundTrip:
    @pytest.mark.parametrize(
        "event", ALL_EVENTS, ids=[type(e).__name__ for e in ALL_EVENTS]
    )
    def test_to_dict_from_dict_is_identity(self, event):
        payload = event_to_dict(event)
        assert payload["type"] == type(event).__name__
        assert event_from_dict(json.loads(json.dumps(payload))) == event

    def test_event_by_name_covers_every_type(self):
        assert set(EVENT_BY_NAME.values()) == set(EVENT_TYPES)

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_dict({"type": "NoSuchEvent"})


class TestJsonlRoundTrip:
    def test_full_stream_round_trips(self):
        stream = io.StringIO()
        logger = JsonlLogger(stream)
        logger.write_record(run_metadata())  # header must be skipped
        for event in ALL_EVENTS:
            logger(event)
        loaded = load_events(io.StringIO(stream.getvalue()))
        assert loaded == ALL_EVENTS

    def test_blank_and_foreign_lines_are_skipped(self):
        text = '\n{"type": "path_access", "kind": "read"}\n'
        assert load_events(io.StringIO(text)) == []


# One request of ``repro run --scheme dynamic-3 --workload mcf --levels 6
# --requests 300 --events FILE``, as written when the event set still held
# PathReadStarted/PathReadFinished (since deleted: the path_read span
# records them).
OLD_EVENT_LOG = """\
{"type":"run_metadata","git":"160b5ed","python":"3.11.7","config":"dynamic-3 L=6 Z=5 A=5 N=158 inorder","seed":1,"workload":"mcf","requests":300}
{"type":"SpanStarted","name":"request","ts":26.0,"addr":59,"detail":"read"}
{"type":"SpanStarted","name":"oram_access","ts":26.0,"addr":59,"detail":"read"}
{"type":"SpanStarted","name":"stash_scan","ts":26.0,"addr":-1,"detail":""}
{"type":"HotAddressTouched","addr":59,"count":1,"hit":false,"ts":26.0}
{"type":"SpanFinished","name":"stash_scan","ts":26.0,"detail":""}
{"type":"PartitionAdjusted","old_level":3,"new_level":2,"counter":4,"ts":26.0}
{"type":"SpanStarted","name":"path_read","ts":26.0,"addr":-1,"detail":"request"}
{"type":"SpanStarted","name":"dram_read","ts":26.0,"addr":-1,"detail":"stream"}
{"type":"SpanFinished","name":"dram_read","ts":428.0,"detail":""}
{"type":"PathReadStarted","leaf":56,"purpose":"request","ts":26.0}
{"type":"SpanStarted","name":"stash_scan","ts":26.0,"addr":-1,"detail":""}
{"type":"StashOccupancy","real":1,"shadow":0,"ts":26.0}
{"type":"SpanFinished","name":"stash_scan","ts":26.0,"detail":""}
{"type":"PathReadFinished","leaf":56,"purpose":"request","ts":560.0}
{"type":"SpanFinished","name":"path_read","ts":560.0,"detail":""}
{"type":"BlockServed","addr":59,"op":"read","source":"path","level":6,"onchip":false,"core":0,"ts":527.0}
{"type":"RequestCompleted","addr":59,"op":"read","served_from":"path","issue":26.0,"data_ready":527.0,"finish":560.0,"evicted":false,"path_accesses":1,"core":0}
{"type":"SpanFinished","name":"oram_access","ts":560.0,"detail":""}
{"type":"SpanFinished","name":"request","ts":560.0,"detail":""}
"""

# The tail of a flight-recorder ring (capacity 12) dumped from a
# ShadowOramController in functional mode by the same older code.
OLD_POSTMORTEM = """\
{"meta": {"capacity": 12, "captured": 12, "dropped": 20, "kind": "flight-recorder", "reason": "crash", "schema": 1, "ts": 1700000000.0}}
{"type":"SpanStarted","name":"path_read","ts":0.0,"addr":-1,"detail":"request"}
{"type":"SpanStarted","name":"dram_read","ts":0.0,"addr":-1,"detail":"functional"}
{"type":"SpanFinished","name":"dram_read","ts":0.0,"detail":""}
{"type":"PathReadStarted","leaf":3,"purpose":"request","ts":0.0}
{"type":"SpanStarted","name":"stash_scan","ts":0.0,"addr":-1,"detail":""}
{"type":"StashOccupancy","real":2,"shadow":0,"ts":0.0}
{"type":"SpanFinished","name":"stash_scan","ts":0.0,"detail":""}
{"type":"PathReadFinished","leaf":3,"purpose":"request","ts":0.0}
{"type":"SpanFinished","name":"path_read","ts":0.0,"detail":""}
{"type":"BlockServed","addr":5,"op":"read","source":"path","level":4,"onchip":false,"core":-1,"ts":0.0}
{"type":"RequestCompleted","addr":5,"op":"read","served_from":"path","issue":0.0,"data_ready":0.0,"finish":0.0,"evicted":false,"path_accesses":1,"core":-1}
{"type":"SpanFinished","name":"oram_access","ts":0.0,"detail":""}
"""

# The first request of ``repro run --scheme dynamic-3 --workload mcf
# --levels 6 --requests 300 --timing-protection --events FILE``, written
# when the event set still held SlotAligned, HotAddressTouched,
# StashOccupancy and BlockServed (since deleted: the stall span, the
# simulator's stats and the RequestCompleted root record them).  A dummy
# fires inside the request's launch wait.
OLD_TP_EVENT_LOG = """\
{"type":"run_metadata","git":"d897098-dirty","python":"3.11.7","config":"dynamic-3 L=6 Z=5 A=5 N=158 tp@800 inorder","seed":1,"workload":"mcf","requests":300}
{"type":"SpanStarted","name":"request","ts":26.0,"addr":59,"detail":"read"}
{"type":"PartitionAdjusted","old_level":3,"new_level":2,"counter":4,"ts":0.0}
{"type":"SpanStarted","name":"dummy","ts":0.0,"addr":-1,"detail":""}
{"type":"SpanStarted","name":"path_read","ts":0.0,"addr":-1,"detail":"dummy"}
{"type":"SpanStarted","name":"dram_read","ts":0.0,"addr":-1,"detail":"stream"}
{"type":"SpanFinished","name":"dram_read","ts":402.0,"detail":""}
{"type":"SpanStarted","name":"stash_scan","ts":0.0,"addr":-1,"detail":""}
{"type":"SpanFinished","name":"stash_scan","ts":0.0,"detail":""}
{"type":"SpanFinished","name":"path_read","ts":534.0,"detail":""}
{"type":"StashOccupancy","real":0,"shadow":0,"ts":534.0}
{"type":"RequestCompleted","addr":-1,"op":"dummy","served_from":null,"issue":0.0,"data_ready":534.0,"finish":534.0,"evicted":false,"path_accesses":1,"core":0}
{"type":"SpanFinished","name":"dummy","ts":534.0,"detail":""}
{"type":"SlotAligned","ready":26.0,"slot":800.0,"wait":774.0}
{"type":"SpanStarted","name":"stall","ts":26.0,"addr":-1,"detail":""}
{"type":"SpanFinished","name":"stall","ts":800.0,"detail":""}
{"type":"SpanStarted","name":"oram_access","ts":800.0,"addr":59,"detail":"read"}
{"type":"SpanStarted","name":"stash_scan","ts":800.0,"addr":-1,"detail":""}
{"type":"HotAddressTouched","addr":59,"count":1,"hit":false,"ts":800.0}
{"type":"SpanFinished","name":"stash_scan","ts":800.0,"detail":""}
{"type":"PartitionAdjusted","old_level":2,"new_level":1,"counter":4,"ts":800.0}
{"type":"SpanStarted","name":"path_read","ts":800.0,"addr":-1,"detail":"request"}
{"type":"SpanStarted","name":"dram_read","ts":800.0,"addr":-1,"detail":"stream"}
{"type":"SpanFinished","name":"dram_read","ts":1202.0,"detail":""}
{"type":"SpanStarted","name":"stash_scan","ts":800.0,"addr":-1,"detail":""}
{"type":"SpanFinished","name":"stash_scan","ts":800.0,"detail":""}
{"type":"SpanFinished","name":"path_read","ts":1334.0,"detail":""}
{"type":"BlockServed","addr":59,"op":"read","source":"path","level":6,"onchip":false,"core":0,"ts":1301.0}
{"type":"StashOccupancy","real":1,"shadow":0,"ts":1334.0}
{"type":"RequestCompleted","addr":59,"op":"read","served_from":"path","issue":800.0,"data_ready":1301.0,"finish":1334.0,"evicted":false,"path_accesses":1,"core":0}
{"type":"SpanFinished","name":"oram_access","ts":1334.0,"detail":""}
{"type":"SpanFinished","name":"request","ts":1334.0,"detail":""}
"""

DELETED_TYPES = {
    "PathReadStarted", "PathReadFinished", "BlockServed",
    "HotAddressTouched", "StashOccupancy", "SlotAligned",
}


def kept_events(text):
    """The events of ``text`` whose type this code still defines."""
    records = [json.loads(line) for line in text.splitlines()[1:]]
    assert DELETED_TYPES & {r["type"] for r in records}
    return [event_from_dict(r) for r in records
            if r["type"] not in DELETED_TYPES]


class TestLogsFromOlderCode:
    """A deleted event type is skipped on load; ``event_from_dict``
    still raises on it."""

    def test_event_from_dict_refuses_a_deleted_type(self):
        deleted = [
            record
            for text in (OLD_EVENT_LOG, OLD_TP_EVENT_LOG)
            for record in map(json.loads, text.splitlines()[1:])
            if record["type"] in DELETED_TYPES
        ]
        assert {record["type"] for record in deleted} == DELETED_TYPES
        for record in deleted:
            with pytest.raises(ValueError, match="unknown event type"):
                event_from_dict(record)

    def test_jsonl_log_skips_deleted_types(self):
        loaded = load_events(io.StringIO(OLD_EVENT_LOG))
        expected = kept_events(OLD_EVENT_LOG)
        assert loaded == expected and len(loaded) == 14
        (trace,) = traces_from_events(loaded)
        assert trace.served_from == "path"

    def test_postmortem_skips_deleted_types(self, tmp_path):
        path = tmp_path / "postmortem.jsonl"
        path.write_text(OLD_POSTMORTEM)
        skipped = []
        with open(path) as stream:
            events = load_events(stream, skipped)
        meta = skipped[0]["meta"]
        assert meta["kind"] == "flight-recorder" and meta["captured"] == 12
        assert events == kept_events(OLD_POSTMORTEM) and len(events) == 8

    def test_timing_protected_log_skips_deleted_types(self):
        loaded = load_events(io.StringIO(OLD_TP_EVENT_LOG))
        assert loaded == kept_events(OLD_TP_EVENT_LOG) and len(loaded) == 26
        skipped = [json.loads(line)["type"]
                   for line in OLD_TP_EVENT_LOG.splitlines()[1:]]
        assert {t for t in skipped if t in DELETED_TYPES} == {
            "SlotAligned", "HotAddressTouched", "StashOccupancy",
            "BlockServed",
        }
        # RequestCompleted lines from before the root carried the serving
        # level and the stash counts load with the defaults.
        completed = [e for e in loaded if isinstance(e, RequestCompleted)]
        assert [(e.op, e.level, e.stash_real, e.stash_shadow)
                for e in completed] == [("dummy", -1, 0, 0),
                                        ("read", -1, 0, 0)]
        dummy, request = traces_from_events(loaded)
        assert dummy.root.name == "dummy"
        assert request.root.name == "request"
        assert request.served_from == "path"
        assert "stall" in {child.name for child in request.root.children}


class TestTimelineCoverage:
    def test_handler_table_covers_every_event_type(self):
        builder = TimelineBuilder(EventBus())
        missing = [c for c in EVENT_TYPES if c not in builder._handlers]
        assert not missing

    def test_every_event_type_renders_without_error(self):
        bus = EventBus()
        builder = TimelineBuilder(bus)
        for event in ALL_EVENTS:
            bus.emit(event)
        stream = io.StringIO()
        builder.write(stream)
        trace = json.loads(stream.getvalue())
        assert trace["traceEvents"]

    @pytest.mark.parametrize(
        "event",
        # RunFinished renders nothing (the run's totals have no place on
        # a timeline), so assert output on every other event type.
        [e for e in ALL_EVENTS if type(e).__name__ != "RunFinished"],
        ids=lambda e: type(e).__name__,
    )
    def test_rendering_appends_trace_output(self, event):
        bus = EventBus()
        builder = TimelineBuilder(bus)
        bus.emit(event)
        assert builder.events, f"{type(event).__name__} rendered nothing"
