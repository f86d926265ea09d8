"""Metrics exporter: Prometheus text format, JSON lines, HTTP endpoint."""

import asyncio
import json
import urllib.request
from pathlib import Path

import pytest

from repro.obs.export import (
    MetricsEndpoint,
    prom_name,
    render_json_lines,
    render_prometheus,
    split_labels,
)
from repro.obs.metrics import Histogram, MetricsRegistry

GOLDEN = Path(__file__).parent / "golden" / "metrics.prom"


def golden_registry():
    reg = MetricsRegistry()
    reg.counter("serve/served").inc(42)
    reg.counter("shard/0/accesses_real").inc(10)
    reg.counter("shard/1/accesses_real").inc(12)
    reg.gauge("serve/queue_depth").set(7)
    h = reg.histogram("serve/latency_wall_ms", bounds=(1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0, 500.0):
        h.observe(v)
    return reg


class TestNameMapping:
    def test_shard_prefix_becomes_label(self):
        assert split_labels("shard/3/accesses_real") == (
            "accesses_real", {"shard": "3"}
        )
        assert split_labels("worker/0/points") == ("points", {"worker": "0"})

    def test_plain_names_pass_through(self):
        assert split_labels("serve/served") == ("serve/served", {})

    def test_prom_name_sanitizes(self):
        assert prom_name("serve/latency wall-ms") == \
            "repro_serve_latency_wall_ms"


class TestPrometheusRender:
    def test_matches_golden_file_byte_for_byte(self):
        assert render_prometheus(golden_registry()) == GOLDEN.read_text()

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_prometheus(golden_registry())
        assert 'le="1.0"} 1' in text
        assert 'le="10.0"} 2' in text
        assert 'le="100.0"} 3' in text
        assert 'le="+Inf"} 4' in text
        assert "latency_wall_ms_sum 555.5" in text
        assert "latency_wall_ms_count 4" in text

    def test_shard_rollups_are_labeled_series(self):
        text = render_prometheus(golden_registry())
        assert 'repro_accesses_real{shard="0"} 10' in text
        assert 'repro_accesses_real{shard="1"} 12' in text
        # One TYPE header per metric name, not per series.
        assert text.count("# TYPE repro_accesses_real counter") == 1

    def test_deterministic(self):
        assert render_prometheus(golden_registry()) == \
            render_prometheus(golden_registry())


class TestJsonLinesRender:
    def test_lines_parse_and_are_sorted(self):
        text = render_json_lines(golden_registry(), run="t")
        lines = [json.loads(line) for line in text.splitlines()]
        meta, records = lines[0], lines[1:]
        assert meta["meta"]["format"] == "metrics-jsonl"
        assert meta["meta"]["schema"] == 1
        names = [r["name"] for r in records]
        assert names == sorted(names)
        hist = next(r for r in records if r["kind"] == "histogram")
        assert {"p50", "p95", "p99", "p99.9", "sum", "count",
                "counts", "bounds"} <= set(hist)

    def test_histogram_roundtrip_is_exact(self):
        text = render_json_lines(golden_registry())
        hist = next(
            json.loads(line) for line in text.splitlines()
            if '"histogram"' in line
        )
        clone = Histogram.from_export(hist)
        original = golden_registry()._histograms["serve/latency_wall_ms"]
        assert clone.export() == original.export()
        assert clone.percentile(99) == original.percentile(99)
        # Drift-free: sum/count come from exact accumulators, not
        # bucket-midpoint reconstruction.
        assert clone.export()["sum"] == 555.5


class TestMetricsEndpoint:
    def run(self, coro, timeout=30):
        return asyncio.run(asyncio.wait_for(coro, timeout))

    def fetch(self, host, port, path):
        return urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=10
        )

    def test_serves_prometheus_and_jsonl(self):
        async def main():
            endpoint = MetricsEndpoint(golden_registry, port=0)
            host, port = await endpoint.start()
            loop = asyncio.get_running_loop()
            try:
                resp = await loop.run_in_executor(
                    None, self.fetch, host, port, "/metrics"
                )
                body = resp.read().decode()
                assert resp.headers["Content-Type"].startswith("text/plain")
                assert body == GOLDEN.read_text()
                resp = await loop.run_in_executor(
                    None, self.fetch, host, port, "/metrics.json"
                )
                lines = resp.read().decode().splitlines()
                assert json.loads(lines[0])["meta"]["format"] == \
                    "metrics-jsonl"
            finally:
                await endpoint.close()

        self.run(main())

    def test_unknown_path_is_404(self):
        async def main():
            endpoint = MetricsEndpoint(golden_registry, port=0)
            host, port = await endpoint.start()
            try:
                with pytest.raises(urllib.request.HTTPError) as err:
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.fetch, host, port, "/nope"
                    )
                assert err.value.code == 404
                err.value.close()
            finally:
                await endpoint.close()

        self.run(main())

    def test_provider_failure_is_500_not_crash(self):
        def broken():
            raise RuntimeError("boom")

        async def main():
            endpoint = MetricsEndpoint(broken, port=0)
            host, port = await endpoint.start()
            try:
                with pytest.raises(urllib.request.HTTPError) as err:
                    await asyncio.get_running_loop().run_in_executor(
                        None, self.fetch, host, port, "/metrics"
                    )
                assert err.value.code == 500
                err.value.close()
            finally:
                await endpoint.close()

        self.run(main())
