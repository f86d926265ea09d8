"""Tests for the parallel sweep engine (the PR's acceptance criteria)."""

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.engine import (
    SweepPoint,
    SweepRunner,
    build_grid,
    execute_point,
)
from repro.obs.events import EventBus, SweepPointFinished, SweepPointStarted
from repro.obs.metrics import MetricsRegistry
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig

SMALL = OramConfig(levels=9)
WORKLOADS = ["mcf", "libquantum"]


def grid_configs():
    return [
        SystemConfig.insecure_system(oram=SMALL),
        SystemConfig.tiny(oram=SMALL),
        SystemConfig.dynamic(3, oram=SMALL),
    ]


class TestSweepPoint:
    def test_job_round_trip(self):
        point = SweepPoint(
            config=SystemConfig.dynamic(3, oram=SMALL),
            workload="mcf",
            num_requests=1234,
            seed=7,
            record_progress=True,
        )
        assert SweepPoint.from_job(point.to_job()) == point

    def test_cache_key_tracks_config(self):
        a = SweepPoint(SystemConfig.tiny(oram=SMALL), "mcf", 1000, 1)
        b = SweepPoint(SystemConfig.dynamic(3, oram=SMALL), "mcf", 1000, 1)
        assert a.cache_key() == SweepPoint(
            SystemConfig.tiny(oram=SMALL), "mcf", 1000, 1
        ).cache_key()
        assert a.cache_key() != b.cache_key()

    def test_build_grid_order(self):
        points = build_grid(grid_configs(), WORKLOADS, 1000, seed=1)
        assert [(p.workload, p.scheme) for p in points] == [
            ("mcf", "insecure"),
            ("mcf", "Tiny"),
            ("mcf", "dynamic-3"),
            ("libquantum", "insecure"),
            ("libquantum", "Tiny"),
            ("libquantum", "dynamic-3"),
        ]


class TestParallelEqualsSerial:
    def test_jobs4_matches_jobs1_on_2x3_grid(self):
        serial = SweepRunner(jobs=1).run_grid(
            grid_configs(), WORKLOADS, 1500, seed=1
        )
        parallel = SweepRunner(jobs=4).run_grid(
            grid_configs(), WORKLOADS, 1500, seed=1
        )
        assert serial.results.keys() == parallel.results.keys()
        for key in serial.results:
            assert (
                parallel.results[key].to_dict() == serial.results[key].to_dict()
            ), key


class TestCaching:
    def test_warm_sweep_runs_zero_simulations(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache)
        cold = runner.run_grid(grid_configs(), WORKLOADS, 1500, seed=1)
        assert cache.misses == 6 and cache.stores == 6 and cache.hits == 0

        def boom(point):  # any simulate() call fails the test
            raise AssertionError(f"simulated {point.label} on a warm cache")

        monkeypatch.setattr("repro.analysis.engine.execute_point", boom)
        warm = runner.run_grid(grid_configs(), WORKLOADS, 1500, seed=1)
        assert cache.hits == 6 and cache.misses == 6
        for key in cold.results:
            assert warm.results[key].to_dict() == cold.results[key].to_dict()

    def test_cache_invalidated_by_parameter_change(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        configs = [SystemConfig.tiny(oram=SMALL)]
        runner = SweepRunner(cache=cache)
        runner.run_grid(configs, ["mcf"], 1000, seed=1)
        runner.run_grid(configs, ["mcf"], 1000, seed=2)
        runner.run_grid(
            [SystemConfig.tiny(oram=OramConfig(levels=10))],
            ["mcf"],
            1000,
            seed=1,
        )
        assert cache.hits == 0
        assert len(cache) == 3

    def test_partial_warm_grid_only_simulates_new_points(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        configs = grid_configs()
        runner = SweepRunner(cache=cache)
        runner.run_grid(configs[:2], ["mcf"], 1000, seed=1)
        runner.run_grid(configs, ["mcf"], 1000, seed=1)
        assert cache.hits == 2
        assert cache.stores == 3


class TestObservability:
    def test_events_and_metrics(self):
        bus = EventBus()
        registry = MetricsRegistry()
        started, finished = [], []
        bus.subscribe(started.append, SweepPointStarted)
        bus.subscribe(finished.append, SweepPointFinished)

        runner = SweepRunner(jobs=1, bus=bus, registry=registry)
        runner.run_grid(grid_configs(), ["mcf"], 1000, seed=1)

        assert len(started) == 3 and len(finished) == 3
        assert [e.index for e in finished] == [0, 1, 2]
        assert all(e.total == 3 for e in finished)
        assert not any(e.cached for e in finished)
        assert registry.counter("sweep/points").value == 3
        assert registry.counter("sweep/executed").value == 3
        assert registry.counter("sweep/cache_hits").value == 0

    def test_cached_points_counted_as_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        registry = MetricsRegistry()
        configs = [SystemConfig.tiny(oram=SMALL)]
        SweepRunner(cache=cache, registry=registry).run_grid(
            configs, ["mcf"], 1000
        )
        SweepRunner(cache=cache, registry=registry).run_grid(
            configs, ["mcf"], 1000
        )
        assert registry.counter("sweep/points").value == 2
        assert registry.counter("sweep/executed").value == 1
        assert registry.counter("sweep/cache_hits").value == 1
        assert registry.counter("sweep/cache_misses").value == 1


class TestRunnerFallbacks:
    def test_single_pending_point_runs_serially(self):
        # jobs > 1 with one pending point must not pay pool start-up.
        runner = SweepRunner(jobs=8)
        point = SweepPoint(SystemConfig.tiny(oram=SMALL), "mcf", 1000, 1)
        result = runner.run_points([point])[0]
        assert result.to_dict() == execute_point(point).to_dict()

    def test_jobs_zero_means_cpu_count(self):
        assert SweepRunner(jobs=0).jobs >= 1
        assert SweepRunner(jobs=None).jobs >= 1

    def test_empty_grid(self):
        assert SweepRunner().run_points([]) == []
