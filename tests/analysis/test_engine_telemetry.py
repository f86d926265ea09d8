"""Cross-process telemetry aggregation acceptance tests.

The tentpole guarantees: a parallel sweep's merged *rollup* instruments
are bit-identical to a serial run of the same grid (per-worker
``worker/<n>/`` breakdowns are the only scheduling-dependent keys), and
a retried point's telemetry is counted exactly once.
"""

import json

import pytest

from repro.analysis.engine import SweepRunner, build_grid
from repro.faults.injector import FaultPlan
from repro.faults.spec import WorkerCrash
from repro.obs.metrics import MetricsRegistry
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig

SMALL = OramConfig(levels=9)
REQUESTS = 800


def grid_points():
    # Event-emitting schemes only: the insecure DRAM backend emits no
    # ORAM events, which would make its telemetry snapshot empty.
    configs = [
        SystemConfig.tiny(oram=SMALL),
        SystemConfig.dynamic(3, oram=SMALL),
    ]
    return build_grid(configs, ["mcf", "libquantum"], REQUESTS, seed=1)


def rollup(registry):
    """The registry export minus scheduling-dependent namespaces."""
    full = registry.to_dict()
    return json.dumps(
        {
            section: {
                name: value
                for name, value in instruments.items()
                if not name.startswith(("worker/", "sweep/"))
            }
            for section, instruments in full.items()
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def serial():
    registry = MetricsRegistry()
    runner = SweepRunner(jobs=1, registry=registry)
    results = runner.run_points(grid_points())
    return [r.to_dict() for r in results], rollup(registry)


class TestRollupIdentity:
    def test_parallel_rollup_bit_identical_to_serial(self, serial):
        serial_results, serial_rollup = serial
        registry = MetricsRegistry()
        runner = SweepRunner(jobs=4, registry=registry)
        results = runner.run_points(grid_points())
        assert [r.to_dict() for r in results] == serial_results
        assert rollup(registry) == serial_rollup

    def test_parallel_export_has_per_worker_breakdown(self):
        registry = MetricsRegistry()
        SweepRunner(jobs=2, registry=registry).run_points(
            grid_points()
        )
        counters = registry.to_dict()["counters"]
        workers = sorted(
            {name.split("/")[1] for name in counters
             if name.startswith("worker/")}
        )
        assert workers, "no per-worker instruments in parallel export"
        assert workers == [str(i) for i in range(len(workers))]
        # Per-worker counters partition the rollup exactly.
        per_worker = sum(
            v for name, v in counters.items()
            if name.startswith("worker/") and name.endswith("served/path")
        )
        assert per_worker == counters["served/path"]

    def test_telemetry_bookkeeping_instruments(self):
        registry = MetricsRegistry()
        SweepRunner(jobs=2, registry=registry).run_points(
            grid_points()
        )
        full = registry.to_dict()
        assert full["counters"]["sweep/telemetry/snapshots"] == 4
        assert full["gauges"]["sweep/telemetry/workers"]["value"] >= 1


class TestRetriedPointCountsOnce:
    def test_worker_crash_retry_matches_serial_rollup(self, serial):
        _results, serial_rollup = serial
        plan = FaultPlan(specs=(WorkerCrash(point=1, attempt=1),))
        registry = MetricsRegistry()
        runner = SweepRunner(
            jobs=2, registry=registry,
            retries=1, faults=plan,
        )
        runner.run_points(grid_points())
        assert runner.last_report.points[1].attempts == 2
        assert rollup(registry) == serial_rollup


class TestExportStability:
    def test_export_keys_sorted_and_deterministic(self):
        def export():
            registry = MetricsRegistry()
            SweepRunner(jobs=1, registry=registry).run_points(
                grid_points()
            )
            return registry.to_dict()

        first, second = export(), export()
        assert json.dumps(first) == json.dumps(second)
        for section in ("counters", "gauges", "histograms"):
            keys = list(first[section])
            assert keys == sorted(keys)
