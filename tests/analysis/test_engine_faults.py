"""Fault-tolerance tests for the sweep engine (the PR's acceptance
criteria): injected crashes, hangs and cache corruption must never lose a
grid point, surviving results must stay bit-identical to a clean serial
run, and re-running an interrupted sweep on the same cache must finish it
without re-simulating its completed points."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.analysis.cache as cache_mod
import repro.analysis.engine as engine_mod
from repro.analysis.cache import ResultCache
from repro.analysis.engine import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_RETRIED,
    STATUS_TIMEOUT,
    SweepExecutionError,
    SweepInterrupted,
    SweepRunner,
    build_grid,
)
from repro.faults.injector import FaultPlan
from repro.faults.spec import (
    BitFlip,
    CacheCorruption,
    CacheOsError,
    WorkerCrash,
    WorkerHang,
)
from repro.obs.events import EventBus, SweepPointFailed, SweepPointRetried
from repro.obs.metrics import MetricsRegistry
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig

SMALL = OramConfig(levels=9)
REQUESTS = 1200


def grid_configs():
    return [
        SystemConfig.insecure_system(oram=SMALL),
        SystemConfig.tiny(oram=SMALL),
    ]


def grid_points():
    return build_grid(grid_configs(), ["mcf", "libquantum"], REQUESTS, seed=1)


@pytest.fixture(scope="module")
def clean_results():
    """Bit-identity baseline: a clean serial run of the standard grid."""
    results = SweepRunner(jobs=1).run_points(grid_points())
    return [r.to_dict() for r in results]


def dicts(results):
    return [r.to_dict() for r in results]


class TestRetries:
    def test_crash_is_retried_and_bit_identical(self, clean_results):
        plan = FaultPlan(specs=(WorkerCrash(point=1, attempt=1),))
        runner = SweepRunner(jobs=1, retries=1, faults=plan)
        results = runner.run_points(grid_points())
        assert dicts(results) == clean_results
        report = runner.last_report
        statuses = [p.status for p in report.points]
        assert statuses == [STATUS_OK, STATUS_RETRIED, STATUS_OK, STATUS_OK]
        assert report.points[1].attempts == 2
        assert report.ok

    def test_exhausted_retries_raise_by_default(self):
        plan = FaultPlan(
            specs=(
                WorkerCrash(point=0, attempt=1),
                WorkerCrash(point=0, attempt=2),
            )
        )
        runner = SweepRunner(jobs=1, retries=1, faults=plan)
        with pytest.raises(SweepExecutionError, match="1 of 4 points"):
            runner.run_points(grid_points())
        assert runner.last_report.points[0].status == STATUS_FAILED
        assert runner.last_report.points[0].attempts == 2

    def test_report_mode_returns_partial_results(self):
        plan = FaultPlan(specs=(WorkerCrash(point=0, attempt=1),))
        runner = SweepRunner(jobs=1, faults=plan, on_failure="report")
        results = runner.run_points(grid_points())
        assert results[0] is None
        assert all(r is not None for r in results[1:])
        assert not runner.last_report.ok

    def test_retry_events_and_metrics(self):
        plan = FaultPlan(specs=(WorkerCrash(point=2, attempt=1),))
        bus = EventBus()
        retried, failed = [], []
        bus.subscribe(retried.append, SweepPointRetried)
        bus.subscribe(failed.append, SweepPointFailed)
        registry = MetricsRegistry()
        runner = SweepRunner(
            jobs=1, retries=2, faults=plan, bus=bus, registry=registry
        )
        runner.run_points(grid_points())
        assert len(retried) == 1
        assert retried[0].index == 2 and retried[0].attempt == 1
        assert "InjectedCrash" in retried[0].error
        assert failed == []
        assert registry.counter("sweep/retries").value == 1
        assert registry.counter("sweep/executed").value == 4
        assert registry.counter("sweep/failed").value == 0

    def test_failed_event_carries_status(self):
        plan = FaultPlan(specs=(WorkerCrash(point=0, attempt=1),))
        bus = EventBus()
        failed = []
        bus.subscribe(failed.append, SweepPointFailed)
        registry = MetricsRegistry()
        runner = SweepRunner(
            jobs=1, faults=plan, bus=bus, registry=registry,
            on_failure="report",
        )
        runner.run_points(grid_points())
        assert len(failed) == 1
        assert failed[0].status == STATUS_FAILED
        assert failed[0].attempts == 1
        assert registry.counter("sweep/failed").value == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestParallelFaults:
    def test_exit_crash_breaks_pool_and_recovers(self, clean_results):
        # A hard os._exit in a worker breaks the whole pool; the runner
        # must respawn it and re-execute in-flight points serially.
        plan = FaultPlan(specs=(WorkerCrash(point=1, attempt=1, mode="exit"),))
        registry = MetricsRegistry()
        runner = SweepRunner(jobs=2, retries=1, faults=plan, registry=registry)
        results = runner.run_points(grid_points())
        assert dicts(results) == clean_results
        report = runner.last_report
        assert report.ok
        assert report.pool_respawns >= 1
        assert registry.counter("sweep/pool_respawns").value >= 1
        assert report.points[1].status == STATUS_RETRIED

    def test_hang_hits_timeout_then_retries(self, clean_results):
        plan = FaultPlan(specs=(WorkerHang(point=0, attempt=1, hang_s=3.0),))
        registry = MetricsRegistry()
        runner = SweepRunner(
            jobs=2, retries=1, timeout_s=0.8, faults=plan, registry=registry
        )
        results = runner.run_points(grid_points())
        assert dicts(results) == clean_results
        report = runner.last_report
        assert report.ok
        assert report.points[0].status == STATUS_RETRIED
        assert registry.counter("sweep/timeouts").value == 1

    def test_hang_without_budget_is_timed_out(self):
        plan = FaultPlan(
            specs=(
                WorkerHang(point=0, attempt=1, hang_s=3.0),
            )
        )
        runner = SweepRunner(
            jobs=2, retries=0, timeout_s=0.8, faults=plan, on_failure="report"
        )
        results = runner.run_points(grid_points())
        report = runner.last_report
        assert report.points[0].status == STATUS_TIMEOUT
        assert results[0] is None
        # Everyone else still resolved.
        assert [p.status for p in report.points[1:]] == [STATUS_OK] * 3

    def test_acceptance_combo(self, clean_results, tmp_path):
        """The headline scenario: crash at point k + per-point hang +
        corrupted cache directory; the sweep still completes with a
        report accounting for every point and surviving results
        bit-identical to a clean serial run."""
        cache = ResultCache(tmp_path / "cache")
        warm = SweepRunner(jobs=1, cache=cache)
        warm.run_points(grid_points())  # fill the cache, then poison reads
        plan = FaultPlan(
            specs=(
                WorkerCrash(point=1, attempt=1, mode="exit"),
                WorkerHang(point=2, attempt=1, hang_s=3.0),
                CacheCorruption(mode="truncate", first=0, count=-1),
            ),
            seed=13,
        )
        runner = SweepRunner(
            jobs=2,
            retries=1,
            timeout_s=0.8,
            cache=ResultCache(tmp_path / "cache"),
            faults=plan,
        )
        results = runner.run_points(grid_points())
        report = runner.last_report
        assert dicts(results) == clean_results
        assert report.ok
        assert len(report.points) == 4
        # Every corrupted entry read as a miss, so nothing came from cache.
        assert all(p.status != STATUS_CACHED for p in report.points)

    def test_fault_run_is_deterministic(self):
        plan = FaultPlan(
            specs=(
                WorkerCrash(point=0, attempt=1),
                WorkerCrash(point=3, attempt=1),
            ),
            seed=4,
        )

        def run():
            runner = SweepRunner(
                jobs=2, retries=1, faults=plan, on_failure="report"
            )
            runner.run_points(grid_points())
            return [
                (p.status, p.attempts, p.error)
                for p in runner.last_report.points
            ]

        assert run() == run()


def integrity_points(recovery):
    """A 2x2 grid whose ORAMs verify every path against a Merkle tree."""
    oram = OramConfig(levels=8, integrity=True, recovery=recovery)
    configs = [SystemConfig.tiny(oram=oram), SystemConfig.dynamic(3, oram=oram)]
    return build_grid(configs, ["mcf", "libquantum"], 400, seed=1)


# Three flips that every point of the grid detects and heals.
HEALED_FLIPS = tuple(BitFlip(at_access=a) for a in (5, 10, 15))


def rollup(registry):
    """The registry export minus scheduling-dependent namespaces."""
    return {
        section: {
            name: value
            for name, value in instruments.items()
            if not name.startswith(("worker/", "sweep/"))
        }
        for section, instruments in registry.to_dict().items()
    }


def healed_rollup(jobs, extra=()):
    registry = MetricsRegistry()
    SweepRunner(
        jobs=jobs, registry=registry,
        faults=FaultPlan(specs=HEALED_FLIPS + extra),
    ).run_points(integrity_points("recover"))
    return rollup(registry)


@pytest.fixture(scope="module")
def parallel_healed_rollup():
    return healed_rollup(jobs=2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestSerialEqualsParallelUnderFaults:
    """Per-access fault ordinals count per attempt on every path, so a
    fault plan does the same to each point at any ``jobs``."""

    def test_raise_policy_reports_match(self):
        # Flips 2, 4 and 6 fail the dynamic-3 points and leave Tiny's.
        plan = FaultPlan(specs=tuple(BitFlip(at_access=a) for a in (2, 4, 6)))

        def run(jobs):
            runner = SweepRunner(jobs=jobs, faults=plan, on_failure="report")
            results = runner.run_points(integrity_points("raise"))
            return (
                [(p.status, p.attempts, p.error)
                 for p in runner.last_report.points],
                [r.to_dict() if r is not None else None for r in results],
            )

        serial = run(1)
        assert {status for status, _a, _e in serial[0]} == {
            STATUS_OK, STATUS_FAILED,
        }
        assert run(2) == serial

    def test_recovered_flips_roll_up_alike(self, parallel_healed_rollup):
        serial = healed_rollup(jobs=1)
        counters = serial["counters"]
        assert counters["oram/corruptions"] > 0
        assert counters["oram/recoveries"] == counters["oram/corruptions"]
        assert serial == parallel_healed_rollup

    def test_broken_pool_reexecution_rolls_up_alike(
        self, parallel_healed_rollup
    ):
        # The dead worker breaks the pool, so every in-flight point runs
        # again in-process.
        crash = (WorkerCrash(point=1, attempt=1, mode="exit"),)
        crashed = healed_rollup(jobs=2, extra=crash)
        assert "oram/corruptions" in crashed["counters"]
        assert crashed == parallel_healed_rollup


class TestCacheDegradation:
    def test_put_errors_degrade_and_count(self, tmp_path, clean_results):
        cache = ResultCache(tmp_path / "cache")
        registry = MetricsRegistry()
        plan = FaultPlan(specs=(CacheOsError(first=0, count=-1),))
        runner = SweepRunner(
            jobs=1, cache=cache, faults=plan, registry=registry
        )
        with pytest.warns(RuntimeWarning, match="disabling cache writes"):
            results = runner.run_points(grid_points())
        assert dicts(results) == clean_results  # sweep survived ENOSPC
        assert cache.write_disabled
        assert cache.put_errors == 1  # first failure flips the latch
        assert registry.counter("cache/put_errors").value == 4
        assert len(cache) == 0  # nothing made it to disk

    def test_reads_survive_write_disable(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points = grid_points()
        SweepRunner(jobs=1, cache=cache).run_points(points[:2])  # warm 2
        cache.write_disabled = True
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run_points(points)
        statuses = [p.status for p in runner.last_report.points]
        assert statuses[:2] == [STATUS_CACHED, STATUS_CACHED]

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.integers(min_value=0, max_value=10**9), data=st.data())
    def test_truncated_entry_is_always_a_miss(self, tmp_path, cut, data):
        """Property: a cache entry truncated at *any* point is served as
        a miss, never a crash and never a wrong result."""
        cache = ResultCache(tmp_path / f"cache-{cut}-{data.draw(st.integers(0, 10**6))}")
        key = "ab" * 32
        cache.put(key, _tiny_result())
        path = cache.path_for(key)
        size = path.stat().st_size
        offset = cut % size  # strict prefix of the entry file
        with open(path, "r+b") as stream:
            stream.truncate(offset)
        assert cache.get(key) is None
        assert cache.misses >= 1


_TINY_RESULT = None


def _tiny_result():
    global _TINY_RESULT
    if _TINY_RESULT is None:
        _TINY_RESULT = SweepRunner(jobs=1).run_points(grid_points()[:1])[0]
    return _TINY_RESULT


class TestInterruptAndResume:
    def _interrupt_after(self, monkeypatch, n):
        """Make the n-th execute_point call raise KeyboardInterrupt."""
        real = engine_mod.execute_point
        calls = {"count": 0}

        def flaky(point, backend_filter=None, bus=None):
            calls["count"] += 1
            if calls["count"] == n:
                raise KeyboardInterrupt
            return real(point, backend_filter=backend_filter, bus=bus)

        monkeypatch.setattr(engine_mod, "execute_point", flaky)
        return calls

    def _count_executions(self, monkeypatch):
        """Count execute_point calls from here on."""
        real = engine_mod.execute_point
        calls = {"count": 0}

        def counting(point, backend_filter=None, bus=None):
            calls["count"] += 1
            return real(point, backend_filter=backend_filter, bus=bus)

        monkeypatch.setattr(engine_mod, "execute_point", counting)
        return calls

    def test_plain_rerun_finishes_an_interrupted_sweep(
        self, monkeypatch, tmp_path, clean_results
    ):
        """The result cache alone records the finished points: the same
        runner, run again on the same cache, executes only the rest."""
        self._interrupt_after(monkeypatch, 3)
        with pytest.raises(SweepInterrupted):
            SweepRunner(
                jobs=1, cache=ResultCache(tmp_path / "cache")
            ).run_points(grid_points())
        monkeypatch.undo()

        calls = self._count_executions(monkeypatch)
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(jobs=1, cache=cache)
        results = runner.run_points(grid_points())
        assert dicts(results) == clean_results
        assert calls["count"] == 2
        statuses = [p.status for p in runner.last_report.points]
        assert statuses == [STATUS_CACHED, STATUS_CACHED, STATUS_OK, STATUS_OK]
        assert cache.misses == 2

    def test_interrupt_flushes_and_reports(self, monkeypatch, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._interrupt_after(monkeypatch, 3)
        runner = SweepRunner(jobs=1, cache=cache)
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run_points(grid_points())
        report = excinfo.value.report
        assert report.interrupted and not report.ok
        statuses = [p.status for p in report.points]
        assert statuses == [
            STATUS_OK, STATUS_OK, STATUS_INTERRUPTED, STATUS_INTERRUPTED,
        ]
        # Completed points were flushed before the exception surfaced.
        assert len(cache) == 2
        points = grid_points()
        assert cache.get(points[0].cache_key()) is not None
        assert cache.get(points[1].cache_key()) is not None
        results = excinfo.value.results
        assert results[0] is not None and results[2] is None

    def test_resume_re_executes_nothing_completed(
        self, monkeypatch, tmp_path, clean_results
    ):
        self._interrupt_after(monkeypatch, 3)
        with pytest.raises(SweepInterrupted):
            SweepRunner(
                jobs=1, cache=ResultCache(tmp_path / "cache")
            ).run_points(grid_points())
        monkeypatch.undo()

        # Re-run: points 0-1 must come from the cache with zero
        # re-simulation; only 2-3 execute.
        calls = self._count_executions(monkeypatch)
        registry = MetricsRegistry()
        runner = SweepRunner(
            jobs=1, cache=ResultCache(tmp_path / "cache"), registry=registry
        )
        results = runner.run_points(grid_points())
        assert dicts(results) == clean_results
        assert calls["count"] == 2  # zero re-executions of completed points
        assert registry.counter("sweep/cache_hits").value == 2
        assert registry.counter("sweep/executed").value == 2
        assert registry.counter("sweep/telemetry/snapshots").value == 2

    def test_resume_after_a_code_change_re_simulates(
        self, monkeypatch, tmp_path, clean_results
    ):
        self._interrupt_after(monkeypatch, 3)
        with pytest.raises(SweepInterrupted):
            SweepRunner(
                jobs=1, cache=ResultCache(tmp_path / "cache")
            ).run_points(grid_points())
        monkeypatch.undo()

        # The code changed: the cached points of the interrupted run
        # must not be replayed.
        monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "edited")
        calls = self._count_executions(monkeypatch)
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path / "cache"))
        results = runner.run_points(grid_points())
        assert dicts(results) == clean_results
        assert calls["count"] == 4
        statuses = [p.status for p in runner.last_report.points]
        assert statuses == [STATUS_OK] * 4


class TestSerialFallback:
    def test_widened_exceptions_fall_back_with_warning(self, monkeypatch):
        for exc in (ImportError("no _multiprocessing"),
                    RuntimeError("start method unavailable"),
                    OSError("no /dev/shm")):
            monkeypatch.setattr(
                engine_mod,
                "ProcessPoolExecutor",
                _raiser(exc),
            )
            runner = SweepRunner(jobs=2)
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                results = runner.run_points(grid_points()[:2])
            assert all(r is not None for r in results)
            assert runner.last_report.ok

    def test_job_errors_are_not_swallowed_into_fallback(self):
        # A RuntimeError raised by the job itself must surface as a point
        # failure, not silently trigger serial fallback.
        plan = FaultPlan(specs=(WorkerCrash(point=0, attempt=1),))
        runner = SweepRunner(jobs=2, faults=plan, on_failure="report")
        runner.run_points(grid_points()[:2])
        assert runner.last_report.points[0].status == STATUS_FAILED


def _raiser(exc):
    def boom(*args, **kwargs):
        raise exc

    return boom
