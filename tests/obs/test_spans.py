"""Span tracer: assembly, cycle-exact invariant, sampling, round-trip.

The load-bearing properties:

* every traced request's exclusive child cycles sum *exactly* (Fraction
  arithmetic, zero rounding error) to the recorded root duration, across
  every scheme, timing mode, and protocol feature;
* tracing is a pure observer — a tracing-disabled run is bit-identical
  (results, adversary trace, RNG stream) to one that never attached a
  tracer;
* ``1/N`` sampling is a deterministic subset of the unsampled capture.
"""

import io
import json
from fractions import Fraction
from random import Random

import pytest

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.mem.dram import DramConfig
from repro.obs.events import (
    EventBus,
    RequestCompleted,
    SpanFinished,
    SpanStarted,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    ROOT_SPAN_NAMES,
    SPAN_PHASES,
    SpanTracer,
    exclusive_by_phase,
    load_traces,
    parse_sample_spec,
    render_tree,
    top_slowest,
    validate_trace,
)
from repro.oram.config import OramConfig
from repro.oram.ring import RingConfig, RingOramController
from repro.system.config import SystemConfig
from repro.system.simulator import simulate


def traced_run(config, workload="mcf", requests=1500, seed=3, **kw):
    bus = EventBus()
    tracer = SpanTracer(bus, **kw)
    result = simulate(config, workload, num_requests=requests, seed=seed,
                      bus=bus)
    return tracer, result


SHADOW_TP = SystemConfig.dynamic(
    3, oram=OramConfig(levels=9)
).with_timing_protection(800)


class TestCycleExactInvariant:
    @pytest.mark.parametrize("config", [
        SystemConfig.tiny(oram=OramConfig(levels=9)),
        SystemConfig.rd_dup(oram=OramConfig(levels=9)),
        SystemConfig.dynamic(3, oram=OramConfig(levels=9)),
        SHADOW_TP,
        SystemConfig.insecure_system(oram=OramConfig(levels=9)),
        SystemConfig.dynamic(
            3, oram=OramConfig(levels=9, integrity=True, recovery="recover")
        ),
    ], ids=["tiny", "rd_dup", "dynamic", "tp", "insecure", "integrity"])
    def test_every_trace_validates(self, config):
        tracer, _ = traced_run(config)
        assert tracer.traces, "traced run produced no span trees"
        for trace in tracer.traces:
            assert validate_trace(trace) == [], render_tree(trace)

    def test_exclusive_sum_equals_latency_exactly(self):
        """The headline acceptance criterion, stated directly."""
        tracer, _ = traced_run(SHADOW_TP)
        checked = 0
        for trace in tracer.traces:
            total = sum(
                (s.exclusive() for s in trace.root.walk()), start=Fraction(0)
            )
            assert total == (
                Fraction(trace.root.end) - Fraction(trace.root.start)
            )
            checked += 1
        assert checked > 100

    def test_phase_names_all_in_glossary(self):
        tracer, _ = traced_run(SHADOW_TP)
        seen = {
            s.name for trace in tracer.traces for s in trace.root.walk()
        }
        assert seen <= set(SPAN_PHASES)
        # A timing-protected shadow run exercises the core phases.
        assert {"request", "dummy", "oram_access", "path_read",
                "dram_read", "eviction"} <= seen

    def test_ring_oram_traces_validate(self):
        bus = EventBus()
        tracer = SpanTracer(bus)
        ring = RingOramController(
            RingConfig(levels=6, enable_shadows=True), Random(2),
            dram_config=DramConfig(), bus=bus,
        )
        now = 0.0
        for i in range(250):
            result = ring.access(i % ring.num_blocks, now=now)
            now = result.finish + 5
        assert len(tracer.traces) == 250
        for trace in tracer.traces:
            assert validate_trace(trace) == [], render_tree(trace)
        seen = {
            s.name for trace in tracer.traces for s in trace.root.walk()
        }
        assert {"oram_access", "path_read", "dram_read", "reshuffle",
                "eviction"} <= seen


class TestAnnotations:
    def test_requests_annotated_from_completion_events(self):
        tracer, _ = traced_run(SystemConfig.dynamic(3,
                               oram=OramConfig(levels=9)))
        annotated = [t for t in tracer.traces if t.annotated]
        assert annotated
        for trace in annotated:
            assert trace.kind in ROOT_SPAN_NAMES
            assert trace.op in ("read", "write", "dummy")
            assert trace.served_from
            assert trace.latency == trace.data_ready - trace.issue
            if trace.op != "dummy":
                assert trace.addr >= 0

    def test_dummy_traces_are_separate_roots(self):
        tracer, result = traced_run(SHADOW_TP)
        dummies = [t for t in tracer.traces if t.kind == "dummy"]
        assert len(dummies) == result.dummy_requests
        for trace in dummies:
            assert trace.served_from == "dummy"

    def test_top_slowest_excludes_dummies(self):
        tracer, _ = traced_run(SHADOW_TP)
        top = top_slowest(tracer.traces, 10)
        assert top
        assert all(t.kind != "dummy" for t in top)
        latencies = [t.latency for t in top]
        assert latencies == sorted(latencies, reverse=True)


class TestServedFromLabeling:
    """A missing source is ``dummy`` only for a dummy, else ``unknown``."""

    @staticmethod
    def label(op, served_from):
        bus = EventBus()
        tracer = SpanTracer(bus)
        bus.emit(SpanStarted(name="request", ts=0.0))
        bus.emit(RequestCompleted(
            addr=-1 if op == "dummy" else 3, op=op, served_from=served_from,
            issue=0.0, data_ready=10.0, finish=20.0, evicted=False,
            path_accesses=1, core=-1,
        ))
        bus.emit(SpanFinished(name="request", ts=20.0))
        return tracer.traces[0].served_from

    def test_real_request_without_source_is_unknown_not_dummy(self):
        assert self.label("read", None) == "unknown"

    def test_dummy_request_is_labelled_dummy(self):
        assert self.label("dummy", None) == "dummy"

    def test_real_source_passes_through(self):
        assert self.label("read", "path") == "path"


class TestStandaloneController:
    """A standalone controller on a bus yields one trace per ``access()``."""

    @staticmethod
    def traced_accesses(n):
        cfg = OramConfig(levels=6, utilization=0.25, stash_capacity=200)
        bus = EventBus()
        tracer = SpanTracer(bus)
        ctl = ShadowOramController(
            cfg, Random(4), ShadowConfig.static(3), bus=bus
        )
        rng = Random(5)
        results = []
        now = 0.0
        for _ in range(n):
            result = ctl.access(rng.randrange(ctl.num_blocks), now=now)
            results.append(result)
            now = result.finish
        return tracer.traces, results

    def test_one_record_per_request(self):
        traces, _results = self.traced_accesses(200)
        assert len(traces) == 200
        assert [t.trace_id for t in traces] == list(range(200))

    def test_latency_and_ordering(self):
        traces, _results = self.traced_accesses(200)
        for trace in traces:
            assert trace.latency >= 0
            assert trace.finish >= trace.data_ready >= trace.issue

    def test_one_annotated_trace_per_access(self):
        traces, _results = self.traced_accesses(150)
        assert len(traces) == 150
        for trace in traces:
            assert trace.kind == "oram_access"
            assert trace.annotated
            assert trace.served_from not in (None, "unknown", "dummy")

    def test_traces_match_access_results(self):
        traces, results = self.traced_accesses(100)
        assert [(t.addr, t.served_from, t.latency) for t in traces] == [
            (r.addr, r.served_from, r.data_ready - r.issue) for r in results
        ]


class TestSampling:
    def test_parse_sample_spec(self):
        assert parse_sample_spec("8") == 8
        assert parse_sample_spec("1/8") == 8
        assert parse_sample_spec(" 1 ") == 1
        with pytest.raises(ValueError):
            parse_sample_spec("0")
        with pytest.raises(ValueError):
            parse_sample_spec("x")

    def test_sampled_traces_are_deterministic_subset(self):
        full, _ = traced_run(SHADOW_TP, requests=800)
        sampled, _ = traced_run(SHADOW_TP, requests=800, sample_every=4)
        assert sampled.dropped > 0
        by_id = {t.trace_id: t for t in full.traces}
        assert [t.trace_id for t in sampled.traces] == [
            t.trace_id for t in full.traces if t.trace_id % 4 == 0
        ]
        # Trees are identical in simulated cycles (wall clocks differ
        # between the two host runs, so strip them before comparing).
        for trace in sampled.traces:
            assert _strip_wall(trace.to_dict()["root"]) == _strip_wall(
                by_id[trace.trace_id].to_dict()["root"]
            )


def _strip_wall(span_dict):
    out = {
        k: v for k, v in span_dict.items()
        if k not in ("wall_start", "wall_end")
    }
    if "children" in out:
        out["children"] = [_strip_wall(c) for c in out["children"]]
    return out


class TestJsonlRoundTrip:
    def test_write_and_load_back(self):
        tracer, _ = traced_run(SHADOW_TP, requests=600)
        buffer = io.StringIO()
        tracer.write_jsonl(buffer)
        lines = buffer.getvalue().splitlines()
        meta = json.loads(lines[0])["meta"]
        assert meta["traces"] == len(tracer.traces)
        buffer.seek(0)
        reloaded, events = load_traces(buffer)
        assert events == 0
        assert len(reloaded) == len(tracer.traces)
        for a, b in zip(tracer.traces, reloaded):
            assert a.to_dict() == b.to_dict()
            assert validate_trace(b) == []

    def test_exclusive_by_phase_survives_round_trip(self):
        tracer, _ = traced_run(SHADOW_TP, requests=600)
        buffer = io.StringIO()
        tracer.write_jsonl(buffer)
        buffer.seek(0)
        reloaded, _ = load_traces(buffer)
        for a, b in zip(tracer.traces, reloaded):
            assert exclusive_by_phase(a.root) == exclusive_by_phase(b.root)


class TestZeroCost:
    """Tracing must be a pure observer: detaching it changes nothing."""

    def test_traced_run_result_is_bit_identical(self):
        config = SHADOW_TP
        bus = EventBus()
        SpanTracer(bus)
        traced = simulate(config, "mcf", num_requests=1200, seed=7, bus=bus)
        plain = simulate(config, "mcf", num_requests=1200, seed=7)
        assert traced == plain

    def test_traced_run_preserves_adversary_trace_and_rng(self):
        config = SystemConfig.dynamic(3, oram=OramConfig(levels=9))

        def run(with_tracer):
            bus = EventBus()
            if with_tracer:
                SpanTracer(bus)
            observed = []
            result = simulate(
                config, "mcf", num_requests=1200, seed=9, bus=bus,
                observer=lambda access: observed.append(access),
            )
            return result, observed

        traced_result, traced_adversary = run(True)
        plain_result, plain_adversary = run(False)
        assert traced_adversary == plain_adversary
        assert traced_result == plain_result


class TestTracerStrictness:
    def test_mismatched_close_raises(self):
        bus = EventBus()
        SpanTracer(bus)
        bus.emit(SpanStarted(name="request", ts=0.0))
        bus.emit(SpanStarted(name="oram_access", ts=0.0))
        with pytest.raises(RuntimeError, match="mismatch"):
            bus.emit(SpanFinished(name="request", ts=1.0))

    def test_close_without_open_raises(self):
        bus = EventBus()
        SpanTracer(bus)
        with pytest.raises(RuntimeError, match="no open trace"):
            bus.emit(SpanFinished(name="request", ts=1.0))

    def test_detail_merged_on_finish(self):
        bus = EventBus()
        tracer = SpanTracer(bus)
        bus.emit(SpanStarted(name="request", ts=0.0, detail="read"))
        bus.emit(SpanFinished(name="request", ts=5.0, detail="done"))
        assert tracer.traces[0].root.detail == "read,done"


class TestMetricsFeed:
    def test_feed_metrics_adds_span_instruments(self):
        tracer, _ = traced_run(SHADOW_TP, requests=600, sample_every=2)
        registry = MetricsRegistry()
        tracer.feed_metrics(registry)
        payload = registry.to_dict()
        assert payload["counters"]["spans/invariant_violations"] == 0
        assert payload["counters"]["spans/dropped"] == tracer.dropped
        assert payload["counters"]["spans/traces/request"] > 0
        hist = payload["histograms"]["spans/exclusive/dram_read"]
        assert hist["total"] > 0
        assert hist["p50"] <= hist["p95"] <= hist["p99"]
