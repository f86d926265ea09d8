"""Metrics registry units and metrics-vs-SimulationResult consistency."""

import io
import json

import pytest

from repro.obs.events import EventBus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
)
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig
from repro.system.simulator import simulate


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.to_dict() == 5

    def test_gauge_watermarks(self):
        g = Gauge()
        for v in (3.0, 9.0, 1.0):
            g.set(v)
        d = g.to_dict()
        assert d["value"] == 1.0
        assert d["min"] == 1.0
        assert d["max"] == 9.0
        assert d["updates"] == 3

    def test_empty_gauge_serialises(self):
        assert Gauge().to_dict()["updates"] == 0

    def test_histogram_bucketing(self):
        h = Histogram([1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 5.0, 50.0, 5000.0):
            h.observe(v)
        # inclusive upper bounds: 1.0 lands in the first bucket
        assert h.counts == [2, 1, 1, 1]
        assert h.total == 5
        assert h.sum == pytest.approx(5056.5)
        assert h.mean == pytest.approx(1011.3)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([10.0, 1.0])


class TestRegistry:
    def test_idempotent_creation(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z", [1.0]) is reg.histogram("z")

    def test_histogram_requires_bounds_on_first_use(self):
        with pytest.raises(KeyError):
            MetricsRegistry().histogram("missing")

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("a/b").inc(3)
        reg.gauge("c").set(1.5)
        reg.histogram("h", [10.0]).observe(4.0)
        stream = io.StringIO()
        reg.write_json(stream, run="test")
        payload = json.loads(stream.getvalue())
        assert payload["run"] == "test"
        assert payload["counters"]["a/b"] == 3
        assert payload["gauges"]["c"]["value"] == 1.5
        assert payload["histograms"]["h"]["total"] == 1


def run_with_collector(tp: bool):
    bus = EventBus()
    collector = MetricsCollector(bus)
    config = SystemConfig.dynamic(3, oram=OramConfig(levels=8))
    if tp:
        config = config.with_timing_protection(800)
    result = simulate(config, "mcf", num_requests=4000, bus=bus)
    return collector.to_dict(), result


class TestResultConsistency:
    """The acceptance criterion: metrics JSON == SimulationResult counters."""

    @pytest.mark.parametrize("tp", [False, True], ids=["no-tp", "tp"])
    def test_counters_match_simulation_result(self, tp):
        metrics, result = run_with_collector(tp)
        counters = metrics["counters"]
        assert counters["requests/data"] == result.llc_misses
        assert counters["requests/real_oram"] == result.real_requests
        assert counters.get("requests/dummy", 0) == result.dummy_requests
        assert counters.get("served/onchip", 0) == result.onchip_hits
        assert counters.get("served/shadow_path", 0) == result.shadow_path_serves

    def test_served_sources_partition_the_misses(self):
        metrics, result = run_with_collector(tp=True)
        counters = metrics["counters"]
        total_served = sum(
            counters.get(f"served/{source}", 0)
            for source in ("stash", "shadow_stash", "treetop",
                           "shadow_path", "path")
        )
        assert total_served == result.llc_misses

    def test_latency_histogram_covers_every_data_request(self):
        metrics, result = run_with_collector(tp=True)
        hist = metrics["histograms"]["latency/data_request"]
        assert hist["total"] == result.llc_misses
        # The histogram measures launch-to-data latency; the result's mean
        # additionally includes the wait for the controller/slot, so it is
        # an upper bound.
        assert 0 < hist["mean"] <= result.mean_data_latency + 1e-9

    def test_occupancy_and_dri_histograms_populated(self):
        metrics, _ = run_with_collector(tp=True)
        assert metrics["histograms"]["stash/real_occupancy"]["total"] > 0
        assert metrics["histograms"]["dri/interval"]["total"] > 0
        assert metrics["gauges"]["partition/level"]["updates"] > 0


class TestHistogramPercentiles:
    def make(self, values, bounds=(10.0, 20.0, 30.0)):
        hist = Histogram(list(bounds))
        for v in values:
            hist.observe(v)
        return hist

    def test_empty_histogram_is_zero(self):
        assert self.make([]).percentile(95) == 0.0

    def test_interpolates_within_bucket(self):
        # 10 observations all in the (10, 20] bucket: p50 lands mid-bucket.
        hist = self.make([15.0] * 10)
        assert hist.percentile(50) == pytest.approx(15.0)
        assert hist.percentile(100) == pytest.approx(20.0)

    def test_monotone_in_q(self):
        hist = self.make([5.0, 15.0, 25.0, 28.0, 29.0])
        qs = [0, 25, 50, 75, 90, 99, 100]
        values = [hist.percentile(q) for q in qs]
        assert values == sorted(values)

    def test_overflow_bucket_clamps_to_last_bound(self):
        hist = self.make([100.0, 200.0])
        assert hist.percentile(99) == 30.0  # finite, JSON-safe

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            self.make([1.0]).percentile(101)

    def test_to_dict_includes_percentiles(self):
        payload = self.make([15.0] * 4).to_dict()
        assert {"p50", "p95", "p99", "p99.9"} <= set(payload)
        assert payload["p50"] == pytest.approx(15.0)

    def test_p999_resolves_tail_above_p99(self):
        hist = self.make([5.0] * 995 + [25.0] * 5)
        assert hist.percentile(99.9) >= hist.percentile(99)

    def test_export_roundtrip_is_exact(self):
        from repro.obs.metrics import Histogram

        hist = self.make([5.0, 15.0, 25.0, 100.0])
        clone = Histogram.from_export(hist.export())
        assert clone.export() == hist.export()
        assert clone.export()["sum"] == 145.0  # exact, not bucket-derived
        assert clone.percentile(95) == hist.percentile(95)

    def test_from_export_validates_counts_length(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ValueError):
            Histogram.from_export(
                {"bounds": [1.0, 2.0], "counts": [1], "count": 1, "sum": 0.5}
            )

    def test_dummy_latency_histogram_populated_under_tp(self):
        metrics, _ = run_with_collector(tp=True)
        assert metrics["histograms"]["latency/dummy_request"]["total"] > 0
