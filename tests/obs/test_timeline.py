"""Perfetto/Chrome trace-event export validity."""

import io
import json
from collections import Counter

import pytest

from repro.obs.events import EventBus
from repro.obs.timeline import PID_CORES, PID_ORAM, TimelineBuilder
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig
from repro.system.simulator import simulate


CONFIG = SystemConfig.dynamic(
    3, oram=OramConfig(levels=8)
).with_timing_protection(800)


@pytest.fixture(scope="module")
def trace():
    bus = EventBus()
    builder = TimelineBuilder(bus)
    simulate(CONFIG, "mcf", num_requests=4000, bus=bus)
    stream = io.StringIO()
    builder.write(stream)
    return json.loads(stream.getvalue())


class TestChromeTraceExport:
    def test_is_valid_chrome_trace_json(self, trace):
        assert isinstance(trace["traceEvents"], list)
        assert trace["traceEvents"]
        for event in trace["traceEvents"]:
            assert event["ph"] in ("X", "M", "C", "i", "B", "E", "s", "t", "f")
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0

    def test_span_duration_events_nest(self, trace):
        """B/E events on every span track are properly nested (LIFO)."""
        stacks = {}
        seen = 0
        for event in trace["traceEvents"]:
            if event["ph"] not in ("B", "E"):
                continue
            seen += 1
            key = (event["pid"], event["tid"])
            stack = stacks.setdefault(key, [])
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack, f"E without B on {key}"
                assert stack.pop() == event["name"]
        assert seen, "expected span duration events in a traced run"
        for key, stack in stacks.items():
            assert not stack, f"unclosed B events on {key}: {stack}"

    def test_flow_arrows_bind_spans(self, trace):
        """Flow events come in s/t/f stages sharing ids with bp on f."""
        flows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "t", "f")]
        assert flows, "expected request flow arrows in a traced run"
        by_id = {}
        for event in flows:
            by_id.setdefault(event["id"], []).append(event["ph"])
        for phases in by_id.values():
            assert phases[0] == "s"
        for event in flows:
            if event["ph"] == "f":
                assert event.get("bp") == "e"

    def test_expected_tracks_present(self, trace):
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        pids = {e["pid"] for e in slices}
        assert PID_CORES in pids, "per-core request track missing"
        assert PID_ORAM in pids, "ORAM scheduler track missing"
        # Path reads, RW evictions and dummies are drawn on the span tracks.
        begun = {e["name"] for e in trace["traceEvents"] if e["ph"] == "B"}
        assert {"path_read", "eviction_read", "eviction", "dummy"} <= begun

    def test_track_metadata_names(self, trace):
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"CPU cores", "ORAM controller", "oram bus", "scheduler"} <= names
        assert "core 0" in names

    def test_monotone_ts_per_track(self, trace):
        last = {}
        for event in trace["traceEvents"]:
            if event["ph"] != "X":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, 0.0), f"ts regressed on {key}"
            last[key] = event["ts"]

    def test_counter_tracks_present(self, trace):
        counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        assert "partition level" in counters
        assert "stash occupancy" in counters

    def test_request_slices_carry_source(self, trace):
        requests = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == PID_CORES
        ]
        assert requests
        allowed = {"stash", "shadow_stash", "treetop", "shadow_path",
                   "path", "unknown"}
        for e in requests:
            assert e["args"]["source"] in allowed

    def test_request_slices_name_the_serving_source(self):
        """The request slices per source match the controller's counts."""
        bus = EventBus()
        builder = TimelineBuilder(bus)
        config = SystemConfig.dynamic(
            3, oram=OramConfig(levels=12)
        ).with_timing_protection(800)
        result = simulate(config, "h264ref", num_requests=6000, bus=bus)
        sources = Counter(
            e["args"]["source"] for e in builder.events
            if e["ph"] == "X" and e["pid"] == PID_CORES
        )
        stats = result.oram_stats
        assert len(sources) >= 3
        assert sum(sources.values()) == result.llc_misses
        assert sources["stash"] == stats.stash_hits
        assert sources["shadow_stash"] == stats.shadow_stash_hits
        assert sources["shadow_path"] == stats.shadow_path_serves
        assert sources["treetop"] == stats.treetop_serves
