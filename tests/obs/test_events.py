"""EventBus mechanics and event-stream invariants on seeded runs."""

from collections import Counter
from random import Random

import pytest

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.obs.events import (
    DuplicationPlaced,
    EventBus,
    PartitionAdjusted,
    RequestCompleted,
    SPAN_EVENT_TYPES,
    SpanFinished,
    SpanStarted,
    event_to_dict,
)
from repro.obs.spans import SpanTracer
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig
from repro.system.simulator import simulate

CFG = OramConfig(levels=6, z=5, a=5, utilization=0.25, stash_capacity=200)


def placed():
    return DuplicationPlaced(addr=1, level=2, kind="rd", from_stash=False,
                             ts=0.0)


def adjusted():
    return PartitionAdjusted(old_level=1, new_level=2, counter=3, ts=1.0)


class TestEventBus:
    def test_no_subscribers_is_falsy_fast_path(self):
        bus = EventBus()
        assert not bus._subs
        assert not bus.active

    def test_subscribe_receives_all_events(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(placed())
        bus.emit(adjusted())
        assert len(seen) == 2

    def test_typed_subscription_filters(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, PartitionAdjusted)
        bus.emit(placed())
        bus.emit(adjusted())
        assert len(seen) == 1
        assert isinstance(seen[0], PartitionAdjusted)

    def test_unsubscribe_plain_and_typed(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.subscribe(seen.append, PartitionAdjusted)
        bus.unsubscribe(seen.append)  # removes the plain registration
        bus.unsubscribe(seen.append)  # removes the typed registration
        bus.emit(adjusted())
        assert not seen
        assert not bus.active

    def test_detail_flag_follows_what_subscribers_take(self):
        bus = EventBus()
        assert not bus._detail
        SpanTracer(bus)
        assert bus._subs and not bus._detail
        seen = []
        bus.subscribe(seen.append)
        assert bus._detail
        bus.unsubscribe(seen.append)
        assert not bus._detail
        bus.subscribe(seen.append, DuplicationPlaced)
        assert bus._detail
        bus.unsubscribe(seen.append)
        assert bus._subs and not bus._detail

    def test_event_to_dict_has_type_discriminator(self):
        record = event_to_dict(adjusted())
        assert record == {
            "type": "PartitionAdjusted", "old_level": 1, "new_level": 2,
            "counter": 3, "ts": 1.0,
        }

    def test_events_are_immutable(self):
        event = adjusted()
        with pytest.raises(AttributeError):
            event.new_level = 9


def collect_run(tp=False, requests=4000, workload="mcf"):
    bus = EventBus()
    events = []
    bus.subscribe(events.append)
    config = SystemConfig.dynamic(3, oram=OramConfig(levels=8))
    if tp:
        config = config.with_timing_protection(800)
    result = simulate(config, workload, num_requests=requests, bus=bus)
    return events, result


class RecordingBus(EventBus):
    """Records every event emitted, subscribed-for or not."""

    def __init__(self):
        super().__init__()
        self.emitted = []

    def emit(self, event):
        self.emitted.append(type(event))
        super().emit(event)


class TestSpanOnlyRun:
    CONFIG = SystemConfig.dynamic(
        3, oram=OramConfig(levels=8, integrity=True, recovery="recover")
    ).with_timing_protection(800)

    def run(self, bus):
        return simulate(self.CONFIG, "mcf", num_requests=2000, bus=bus)

    def test_span_tracer_alone_builds_only_span_events(self):
        bus = RecordingBus()
        tracer = SpanTracer(bus)
        self.run(bus)
        assert tracer.traces
        assert set(bus.emitted) <= SPAN_EVENT_TYPES

    def test_untyped_subscriber_gets_every_family(self):
        bus = RecordingBus()
        events = []
        bus.subscribe(events.append)
        self.run(bus)
        assert {
            DuplicationPlaced, PartitionAdjusted,
        } | SPAN_EVENT_TYPES <= set(bus.emitted)
        # Path reads, RW evictions and dummies are recorded as spans.
        started = {e.name for e in events if type(e) is SpanStarted}
        assert {"path_read", "eviction_read", "eviction", "dummy"} <= started


READ_SPANS = frozenset({"path_read", "eviction_read"})


def started_spans(events, name):
    return [e for e in events if type(e) is SpanStarted and e.name == name]


def data_roots(events):
    return [e for e in events
            if type(e) is RequestCompleted and e.op != "dummy"]


class TestRunInvariants:
    """Event-ordering invariants over a seeded full-system run."""

    @pytest.fixture(scope="class")
    def run(self):
        return collect_run(tp=True)

    def test_every_path_read_started_has_a_finish(self, run):
        """Read spans close in LIFO order, pairing per purpose."""
        events, _ = run
        stack, started, finished = [], Counter(), Counter()
        for e in events:
            if type(e) is SpanStarted:
                stack.append(e)
                if e.name in READ_SPANS:
                    started[e.detail] += 1
            elif type(e) is SpanFinished:
                opened = stack.pop()
                assert opened.name == e.name
                if e.name in READ_SPANS:
                    finished[opened.detail] += 1
        assert not stack
        assert started == finished
        assert set(started) == {"request", "dummy", "eviction"}

    def test_path_reads_pair_in_order(self, run):
        events, _ = run
        open_reads = 0
        for e in events:
            if type(e) is SpanStarted and e.name in READ_SPANS:
                open_reads += 1
                assert open_reads == 1, "path reads never overlap"
            elif type(e) is SpanFinished and e.name in READ_SPANS:
                open_reads -= 1
                assert open_reads >= 0, "Finished before any Started"
        assert open_reads == 0

    def test_block_served_sources_sum_to_llc_misses(self, run):
        """Every data request's root names the source that served it."""
        events, result = run
        served = data_roots(events)
        assert len(served) == result.llc_misses
        allowed = {"stash", "shadow_stash", "treetop", "shadow_path", "path"}
        assert {e.served_from for e in served} <= allowed

    def test_onchip_flags_match_result(self, run):
        """Roots served on chip (no path access, or from the treetop)
        and from a shadow on the path match the result's counts."""
        events, result = run
        served = data_roots(events)
        onchip = [e for e in served
                  if e.path_accesses == 0 or e.served_from == "treetop"]
        assert len(onchip) == result.onchip_hits
        assert all(e.level == -1 for e in onchip
                   if e.served_from != "treetop")
        shadow_path = [e for e in served if e.served_from == "shadow_path"]
        assert len(shadow_path) == result.shadow_path_serves
        # Early-forwarded serves come from a real tree level.
        assert all(e.level >= 0 for e in shadow_path)

    def test_dummy_count_matches_result(self, run):
        events, result = run
        dummies = started_spans(events, "dummy")
        assert len(dummies) == result.dummy_requests > 0

    def test_request_completed_covers_all_accesses(self, run):
        events, result = run
        completed = [e for e in events if isinstance(e, RequestCompleted)]
        data = [e for e in completed if e.op != "dummy"]
        assert len(data) == result.llc_misses
        real = [e for e in data if e.path_accesses > 0]
        assert len(real) == result.real_requests

    def test_eviction_rate_matches_protocol(self, run):
        events, result = run
        evictions = started_spans(events, "eviction")
        path_reads = started_spans(events, "path_read")
        assert {e.detail for e in path_reads} == {"request", "dummy"}
        # One RW eviction per A=5 RO accesses (within rounding).
        assert len(evictions) == len(path_reads) // 5 > 0

    def test_partition_adjustments_reported(self, run):
        events, _ = run
        adjustments = [e for e in events if isinstance(e, PartitionAdjusted)]
        assert adjustments, "a dynamic run must adjust its partition"
        for e in adjustments:
            assert abs(e.new_level - e.old_level) == 1
            assert 0 <= e.counter <= 7


class TestControllerLevelEvents:
    def test_duplication_events_respect_partition(self):
        bus = EventBus()
        events = []
        bus.subscribe(events.append, DuplicationPlaced)
        ctl = ShadowOramController(
            CFG, Random(7), ShadowConfig.static(3), bus=bus
        )
        rng = Random(8)
        for _ in range(400):
            ctl.access(rng.randrange(ctl.num_blocks))
        assert events
        for e in events:
            if e.kind == "hd":
                assert e.level < 3
            else:
                assert e.kind == "rd"
                assert e.level >= 3
        assert len(events) == ctl.shadow_stats.dummy_slots_filled

    def test_unsubscribed_bus_emits_nothing_and_changes_nothing(self):
        plain = ShadowOramController(CFG, Random(7), ShadowConfig.static(3))
        bussed = ShadowOramController(
            CFG, Random(7), ShadowConfig.static(3), bus=EventBus()
        )
        rng_a, rng_b = Random(9), Random(9)
        for _ in range(300):
            addr = rng_a.randrange(plain.num_blocks)
            assert addr == rng_b.randrange(bussed.num_blocks)
            ra = plain.access(addr)
            rb = bussed.access(addr)
            assert (ra.served_from, ra.evicted) == (rb.served_from, rb.evicted)
        assert plain.stats == bussed.stats
