"""The sweep engine: parallel execution of simulation grids with caching.

Every figure in the paper is a sweep over (workload × scheme × parameter)
grid points, and every grid point is an *independent, deterministic* job:
a serializable :class:`SweepPoint` (full system configuration + workload
+ request count + seed).  :class:`SweepRunner` executes collections of
points

* **in parallel** across worker processes (``jobs > 1``,
  ``ProcessPoolExecutor``) — points are shipped to workers as plain
  dicts via :meth:`SweepPoint.to_job` and results return through
  ``SimulationResult.from_dict``, so parallel results are bit-identical
  to serial ones;
* **through an on-disk cache** (:class:`~repro.analysis.cache.ResultCache`)
  keyed by the config fingerprint, workload, request count, seed and
  serialization schema version, so re-running a figure benchmark costs
  zero ``simulate()`` calls once warm;
* **fault-tolerantly** — per-point timeouts, bounded retries with
  exponential backoff, ``BrokenProcessPool`` detection with pool respawn
  and serial re-execution of in-flight points, a crash-safe
  completed-point ledger (:class:`~repro.analysis.manifest.SweepLedger`)
  behind ``python -m repro sweep --resume``, and graceful
  ``KeyboardInterrupt`` handling (pending futures cancelled, completed
  points flushed, a partial :class:`SweepReport` raised as
  :class:`SweepInterrupted`).  Every run produces a :class:`SweepReport`
  accounting for every grid point (ok / cached / retried / timed-out /
  failed / interrupted);
* **observably** — per-point
  :class:`~repro.obs.events.SweepPointStarted` /
  :class:`~repro.obs.events.SweepPointFinished` /
  :class:`~repro.obs.events.SweepPointRetried` /
  :class:`~repro.obs.events.SweepPointFailed` events on an optional
  :class:`~repro.obs.events.EventBus` (finish/fail events fire at
  *resolution* time, so live progress subscribers see the sweep as it
  runs) and ``sweep/*`` metrics counters;
* **with cross-process telemetry** whenever a metrics registry is given
  — every attempt runs under its own bus + metrics collector, ships a
  registry snapshot back with its result, and the runner merges the
  snapshots into the registry (per-worker ``worker/<n>/...``
  instruments plus rollups; see :mod:`repro.obs.aggregate`), so a
  parallel sweep's rollup counters are bit-identical to a serial run's
  and retried points are counted exactly once.

One function runs a point: :func:`_execute_job`.  Worker processes call
it as the pool's target; the serial path, the no-pool fallback and the
re-execution of in-flight points after a ``BrokenProcessPool`` call it
in-process.  Deterministic fault injection (:mod:`repro.faults`) rides in
the job: a :class:`~repro.faults.injector.FaultPlan` handed to the runner
is shipped inside each job and compiled into a fresh injector per
attempt, so the failure sequence — and the final report — is a pure
function of (grid, plan, seed) and the same at any ``jobs``.  The parent
keeps one injector only to wrap the result cache, which lives there.

``benchmarks/_support.py`` and the ``python -m repro sweep`` /
``compare`` / ``faults`` CLI commands all drive this module; so would
any future scaling work (sharded grids, multi-host dispatch), which only
needs to replace the executor.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from repro.analysis.cache import ResultCache
from repro.analysis.manifest import SweepLedger, grid_fingerprint
from repro.faults.injector import FaultPlan
from repro.obs.aggregate import TelemetryAggregator, snapshot_registry
from repro.obs.events import (
    EventBus,
    SweepPointFailed,
    SweepPointFinished,
    SweepPointRetried,
    SweepPointStarted,
)
from repro.obs.metrics import MetricsCollector, MetricsRegistry
from repro.serialize import SCHEMA_VERSION
from repro.system.backend import BackendFilter
from repro.system.config import SystemConfig
from repro.system.metrics import NormalizedResult, SimulationResult, geomean
from repro.system.simulator import simulate

# Per-point terminal statuses (SweepReport / SweepPointFailed.status).
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_RETRIED = "retried"  # succeeded after >= 1 failed attempt
STATUS_TIMEOUT = "timed-out"
STATUS_FAILED = "failed"
STATUS_INTERRUPTED = "interrupted"

FAILURE_STATUSES = (STATUS_TIMEOUT, STATUS_FAILED, STATUS_INTERRUPTED)


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One grid point: everything a worker needs to reproduce a run."""

    config: SystemConfig
    workload: str
    num_requests: int
    seed: int
    record_progress: bool = False

    @property
    def scheme(self) -> str:
        return self.config.name

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.config.name}"

    def cache_key(self) -> str:
        """Key under which this point's result is cached on disk."""
        return ResultCache.key(
            self.config.fingerprint(),
            self.workload,
            self.num_requests,
            self.seed,
            record_progress=self.record_progress,
        )

    # ------------------------------------------------------------------
    def to_job(self) -> dict[str, object]:
        """Serialize for shipping to a worker process."""
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "workload": self.workload,
            "num_requests": self.num_requests,
            "seed": self.seed,
            "record_progress": self.record_progress,
        }

    @classmethod
    def from_job(cls, job: dict[str, object]) -> "SweepPoint":
        """Rebuild a point from :meth:`to_job` output."""
        return cls(
            config=SystemConfig.from_dict(job["config"]),
            workload=job["workload"],
            num_requests=job["num_requests"],
            seed=job["seed"],
            record_progress=bool(job.get("record_progress", False)),
        )


def execute_point(
    point: SweepPoint,
    backend_filter: BackendFilter | None = None,
    bus: EventBus | None = None,
) -> SimulationResult:
    """Simulate one grid point in the calling process."""
    return simulate(
        point.config,
        point.workload,
        num_requests=point.num_requests,
        seed=point.seed,
        record_progress=point.record_progress,
        backend_filter=backend_filter,
        bus=bus,
    )


def _execute_job(
    job: dict[str, object], in_worker: bool = True
) -> dict[str, object]:
    """Run one attempt of one grid point: dict in, dict out.

    The only code that runs a point.  Worker processes call it as the
    pool's target; the runner calls it in-process with
    ``in_worker=False`` for serial sweeps, the no-pool fallback and the
    re-execution after a ``BrokenProcessPool``.  Every call builds its
    own fault injector from the job's plan and fires point-level faults
    before simulating — in a worker, an exit-mode ``worker-crash`` kills
    the process — so per-access ordinals count per attempt wherever it
    runs.

    With ``telemetry`` set, the attempt runs under its own event bus and
    metrics collector and ships a registry snapshot back in the payload,
    so the parent can aggregate per-worker instruments (events never
    cross the process boundary, snapshots do).
    """
    start = perf_counter()
    backend_filter: BackendFilter | None = None
    faults = job.get("faults")
    if faults:
        injector = FaultPlan.from_dict(faults).injector(in_worker=in_worker)
        injector.before_point(int(job["index"]), int(job["attempt"]))
        backend_filter = injector.backend_filter()
    bus: EventBus | None = None
    collector: MetricsCollector | None = None
    if job.get("telemetry"):
        bus = EventBus()
        collector = MetricsCollector(bus)
    result = execute_point(
        SweepPoint.from_job(job), backend_filter=backend_filter, bus=bus
    )
    payload: dict[str, object] = {
        "result": result.to_dict(),
        "elapsed_s": perf_counter() - start,
    }
    if collector is not None:
        payload["telemetry"] = snapshot_registry(collector.registry)
        payload["worker"] = os.getpid()
    return payload


def build_grid(
    configs: Sequence[SystemConfig],
    workloads: Iterable[str],
    num_requests: int,
    seed: int = 1,
) -> list[SweepPoint]:
    """The standard figure grid: workloads outer, schemes inner.

    Every point carries its seed explicitly, so the grid is a complete,
    deterministic description of the sweep — the same base seed is used
    for every point (schemes must share their miss traces for the
    normalisations of Figures 8/9/13/14 to be meaningful).
    """
    return [
        SweepPoint(
            config=config, workload=workload, num_requests=num_requests, seed=seed
        )
        for workload in workloads
        for config in configs
    ]


# ----------------------------------------------------------------------
# Sweep results (indexable collection the figure benchmarks consume)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class SweepResult:
    """All runs of one sweep, indexed by (workload, scheme)."""

    results: dict[tuple[str, str], SimulationResult]

    def get(self, workload: str, scheme: str) -> SimulationResult:
        return self.results[(workload, scheme)]

    def has(self, workload: str, scheme: str) -> bool:
        return (workload, scheme) in self.results

    def schemes(self) -> list[str]:
        return sorted({scheme for _w, scheme in self.results})

    def workloads(self) -> list[str]:
        seen: list[str] = []
        for workload, _s in self.results:
            if workload not in seen:
                seen.append(workload)
        return seen

    def normalized(
        self, baseline_scheme: str
    ) -> dict[tuple[str, str], NormalizedResult]:
        """Normalise every run to ``baseline_scheme`` on the same workload."""
        out = {}
        for (workload, scheme), result in self.results.items():
            base = self.results[(workload, baseline_scheme)]
            out[(workload, scheme)] = result.normalized_to(base)
        return out

    def geomean_normalized(
        self, scheme: str, baseline_scheme: str
    ) -> NormalizedResult:
        """Geometric-mean normalised metrics of ``scheme`` across workloads."""
        normalized = self.normalized(baseline_scheme)
        rows = [normalized[(w, scheme)] for w in self.workloads()]
        return NormalizedResult(
            workload="gmean",
            scheme=scheme,
            baseline=baseline_scheme,
            total=geomean([r.total for r in rows]),
            data=geomean([max(r.data, 1e-9) for r in rows]),
            interval=geomean([max(r.interval, 1e-9) for r in rows]),
            energy=geomean([max(r.energy, 1e-9) for r in rows]),
            speedup=geomean([r.speedup for r in rows]),
        )


# ----------------------------------------------------------------------
# Per-point accounting
# ----------------------------------------------------------------------
@dataclass(slots=True)
class PointReport:
    """One grid point's fate in a :class:`SweepReport`."""

    index: int
    workload: str
    scheme: str
    status: str
    attempts: int
    elapsed_s: float
    error: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.status not in FAILURE_STATUSES


@dataclass(slots=True)
class SweepReport:
    """Structured account of every grid point of one sweep run."""

    total: int
    points: list[PointReport] = field(default_factory=list)
    interrupted: bool = False
    pool_respawns: int = 0

    @property
    def ok(self) -> bool:
        """Every point resolved to a result (from cache or execution)."""
        return (
            not self.interrupted
            and len(self.points) == self.total
            and all(p.succeeded for p in self.points)
        )

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for point in self.points:
            out[point.status] = out.get(point.status, 0) + 1
        return out

    def failures(self) -> list[PointReport]:
        return [p for p in self.points if not p.succeeded]

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{counts[s]} {s}" for s in sorted(counts)]
        head = f"{self.total} points: " + ", ".join(parts)
        if self.pool_respawns:
            head += f"; {self.pool_respawns} pool respawn(s)"
        if self.interrupted:
            head += "; interrupted"
        return head


class SweepExecutionError(RuntimeError):
    """Raised (under ``on_failure="raise"``) when grid points failed."""

    def __init__(self, report: SweepReport) -> None:
        failures = report.failures()
        first = failures[0] if failures else None
        detail = (
            f" (first: {first.workload}/{first.scheme}: {first.error})"
            if first is not None
            else ""
        )
        super().__init__(
            f"sweep failed: {len(failures)} of {report.total} points "
            f"did not resolve{detail}"
        )
        self.report = report


class SweepInterrupted(KeyboardInterrupt):
    """KeyboardInterrupt enriched with the partial sweep state.

    Completed points have already been flushed to the cache and ledger;
    ``results`` is aligned with the submitted points (``None`` where
    interrupted) and ``report`` accounts for every point.
    """

    def __init__(
        self, report: SweepReport, results: list[SimulationResult | None]
    ) -> None:
        super().__init__("sweep interrupted")
        self.report = report
        self.results = results


@dataclass(slots=True)
class _PointOutcome:
    point: SweepPoint
    result: SimulationResult | None
    status: str
    attempts: int
    elapsed_s: float
    error: str | None = None
    resumed: bool = False
    telemetry: dict[str, object] | None = None
    worker: object = "0"

    @property
    def cached(self) -> bool:
        return self.status == STATUS_CACHED

    @classmethod
    def succeeded(
        cls, point: SweepPoint, attempt: int, payload: dict[str, object]
    ) -> "_PointOutcome":
        """The outcome of a successful :func:`_execute_job` attempt."""
        return cls(
            point,
            SimulationResult.from_dict(payload["result"]),
            STATUS_RETRIED if attempt > 1 else STATUS_OK,
            attempt,
            payload["elapsed_s"],
            telemetry=payload.get("telemetry"),
            worker=payload.get("worker", "0"),
        )


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung or dead.

    ``shutdown`` alone never kills a running worker, so a hung grid point
    would stall interpreter exit; terminating the processes first makes
    abandonment immediate.  (``_processes`` is executor-private but has
    been stable since 3.7; guarded in case it moves.)
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class SweepRunner:
    """Executes sweep grids with parallelism, caching, fault tolerance
    and observability.

    Every attempt at a point, in a worker or in-process, runs
    :func:`_execute_job` with its own fault injector, bus and collector,
    so a serial sweep's results, report and telemetry rollups equal a
    parallel one's.

    Args:
        jobs: Worker processes.  ``1`` runs everything serially in
            process; ``None`` or ``0`` means one worker per CPU.  The
            runner falls back to serial execution (with a warning naming
            the cause) if the platform cannot spawn a process pool.
        cache: On-disk result cache, or ``None`` to always simulate.
        bus: Observability bus for per-point start/finish/retry/fail
            events (``SweepPointFinished`` is the progress channel).
        registry: Metrics registry; the runner maintains ``sweep/points``,
            ``sweep/cache_hits``, ``sweep/cache_misses``,
            ``sweep/executed``, ``sweep/retries``, ``sweep/timeouts``,
            ``sweep/failed``, ``sweep/resumed``, ``sweep/pool_respawns``
            and ``cache/put_errors`` counters on it.  Giving one also
            turns on telemetry: every attempt collects simulator metrics
            under its own bus + collector, and the runner merges the
            snapshots into ``registry`` at the end of the run —
            per-worker instruments under ``worker/<n>/...`` plus
            un-prefixed rollups.  Rollups are the same at any ``jobs``;
            retried points count once (last successful attempt wins).
        timeout_s: Per-point wall-clock budget, enforced on the parallel
            path (a worker past its deadline is abandoned with the pool
            and the point retried or reported ``timed-out``).  ``None``
            disables; the in-process path cannot preempt a running
            simulation and ignores it.
        retries: Extra attempts per point: a failed attempt *n* (crash,
            job exception, timeout) is retried while ``n <= retries``.
            ``0`` fails fast.  In-flight points lost with a broken pool
            always get one more attempt, in-process.
        backoff_s: Base of the exponential retry backoff — attempt *n*
            waits ``backoff_s * 2**(n-1)`` seconds before its retry
            (timeouts retry at once).  ``0`` disables.
        ledger: Optional completed-point ledger enabling checkpoint /
            resume; pair with ``resume=True`` to pick up a previous run.
        resume: Load ``ledger`` instead of truncating it; points it
            records resolve from the cache with zero re-execution
            (counted by ``sweep/resumed``).
        faults: Deterministic fault-injection plan (:mod:`repro.faults`),
            shipped inside each job.
        on_failure: ``"raise"`` (default) raises
            :class:`SweepExecutionError` if any point fails —
            the historical all-or-nothing contract the figure benchmarks
            rely on.  ``"report"`` returns partial results (``None``
            holes) and leaves judgement to the caller via
            :attr:`last_report`.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        bus: EventBus | None = None,
        registry: MetricsRegistry | None = None,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.0,
        ledger: SweepLedger | None = None,
        resume: bool = False,
        faults: FaultPlan | None = None,
        on_failure: str = "raise",
    ) -> None:
        if jobs is None or jobs <= 0:
            jobs = os.cpu_count() or 1
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if on_failure not in ("raise", "report"):
            raise ValueError(
                f"on_failure must be 'raise' or 'report', got {on_failure!r}"
            )
        self.jobs = jobs
        self.cache = cache
        self.bus = bus
        self.registry = registry
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.ledger = ledger
        self.resume = resume
        self.faults = faults
        self.on_failure = on_failure
        self.last_report: SweepReport | None = None
        self._grid_total = 0
        self._pool_respawns = 0

    # ------------------------------------------------------------------
    def run_points(self, points: Sequence[SweepPoint]) -> list[SimulationResult]:
        """Execute every point; returns results in point order.

        Under ``on_failure="report"`` unresolved points yield ``None``
        entries; inspect :attr:`last_report` for their statuses.
        """
        results, report = self.run_points_report(points)
        if not report.ok and self.on_failure == "raise":
            raise SweepExecutionError(report)
        return results

    def run_points_report(
        self, points: Sequence[SweepPoint]
    ) -> tuple[list[SimulationResult | None], SweepReport]:
        """Execute every point; returns (results, per-point report)."""
        total = len(points)
        self._grid_total = total
        self._pool_respawns = 0
        outcomes: list[_PointOutcome | None] = [None] * total

        cache = (
            self.faults.injector(in_worker=False).wrap_cache(self.cache)
            if self.faults is not None
            else self.cache
        )
        resumed = self._prepare_ledger(points, total)
        aggregator = (
            TelemetryAggregator() if self.registry is not None else None
        )

        interrupted = False
        try:
            # Cache pass: resolve warm points without touching the executor.
            pending: list[int] = []
            for i, point in enumerate(points):
                self._emit_started(point, i, total)
                hit = self._lookup(cache, point)
                if hit is not None:
                    outcomes[i] = _PointOutcome(
                        point,
                        hit,
                        STATUS_CACHED,
                        0,
                        0.0,
                        resumed=i in resumed,
                    )
                    self._record_ledger(i, point, STATUS_CACHED)
                    self._emit_finished(outcomes[i], i, total)
                else:
                    pending.append(i)

            for i, outcome in self._execute(points, pending):
                outcomes[i] = outcome
                if outcome.result is not None:
                    self._store(cache, points[i], outcome.result)
                    self._record_ledger(i, points[i], outcome.status)
                    if aggregator is not None:
                        aggregator.ingest(
                            points[i].cache_key(),
                            outcome.telemetry,
                            worker=outcome.worker,
                            attempt=outcome.attempts,
                        )
                self._emit_finished(outcome, i, total)
        except KeyboardInterrupt:
            # Pending futures were cancelled and workers stopped by the
            # executor generator's cleanup; completed points are already
            # flushed to the cache and ledger.  Account for the rest.
            interrupted = True

        for i, point in enumerate(points):
            if outcomes[i] is None:
                outcomes[i] = _PointOutcome(
                    point,
                    None,
                    STATUS_INTERRUPTED,
                    0,
                    0.0,
                    error="KeyboardInterrupt",
                )
                self._emit_finished(outcomes[i], i, total)

        if aggregator is not None:
            merged = aggregator.merge_into(self.registry)
            if merged:
                self.registry.counter("sweep/telemetry/snapshots").inc(merged)
                self.registry.gauge("sweep/telemetry/workers").set(
                    len(aggregator.workers())
                )

        report = SweepReport(
            total=total,
            interrupted=interrupted,
            pool_respawns=self._pool_respawns,
            points=[
                PointReport(
                    index=i,
                    workload=outcome.point.workload,
                    scheme=outcome.point.scheme,
                    status=outcome.status,
                    attempts=outcome.attempts,
                    elapsed_s=outcome.elapsed_s,
                    error=outcome.error,
                )
                for i, outcome in enumerate(outcomes)
            ],
        )
        results = [outcome.result for outcome in outcomes]
        self.last_report = report
        if interrupted:
            raise SweepInterrupted(report, results)
        return results, report

    def run_grid(
        self,
        configs: Sequence[SystemConfig],
        workloads: Iterable[str],
        num_requests: int,
        seed: int = 1,
    ) -> SweepResult:
        """Run the full (workload × config) grid and index the results.

        Under ``on_failure="report"`` failed points are simply absent
        from the returned :class:`SweepResult`.
        """
        points = build_grid(configs, workloads, num_requests, seed=seed)
        results = self.run_points(points)
        return SweepResult(
            {
                (p.workload, p.scheme): result
                for p, result in zip(points, results)
                if result is not None
            }
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(
        self, points: Sequence[SweepPoint], pending: list[int]
    ) -> Iterator[tuple[int, _PointOutcome]]:
        workers = min(self.jobs, len(pending))
        pool = self._make_pool(workers) if workers > 1 else None
        if pool is None:
            for i in pending:
                yield i, self._run_inprocess(points[i], i, 1)
        else:
            yield from self._execute_parallel(pool, workers, points, pending)

    def _run_inprocess(
        self, point: SweepPoint, index: int, attempt: int
    ) -> _PointOutcome:
        """Run ``point`` in this process from ``attempt`` on, retrying
        failed attempts under :meth:`_retry`."""
        while True:
            job = self._job(point, index, attempt)
            try:
                payload = _execute_job(job, in_worker=False)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                error = repr(exc)
                if self._retry(point, index, attempt, error):
                    attempt += 1
                    continue
                return _PointOutcome(
                    point, None, STATUS_FAILED, attempt, 0.0, error
                )
            return _PointOutcome.succeeded(point, attempt, payload)

    def _execute_parallel(
        self,
        pool: ProcessPoolExecutor,
        workers: int,
        points: Sequence[SweepPoint],
        pending: list[int],
    ) -> Iterator[tuple[int, _PointOutcome]]:
        """Fan pending points out to worker processes, fault-tolerantly.

        Yields per-point outcomes as their futures resolve (submission
        order).  Failure handling:

        * a job exception consumes one attempt; the point is retried
          (with backoff) under :meth:`_retry`, else reported ``failed``;
        * a per-point timeout abandons the pool (the hung worker cannot
          be cancelled), respawns it, retries the hung point without
          backoff and resubmits the other in-flight points without
          charging them an attempt;
        * ``BrokenProcessPool`` (a worker died) respawns the pool and
          re-executes every in-flight point in-process — each is
          guaranteed at least one more attempt, so one crashed worker
          cannot sink its innocent batch-mates.
        """
        attempts = {i: 0 for i in pending}
        queue: deque[int] = deque(pending)

        def drain_inprocess() -> Iterator[tuple[int, _PointOutcome]]:
            while queue:
                j = queue.popleft()
                yield j, self._run_inprocess(points[j], j, attempts[j] + 1)

        try:
            while queue:
                batch = list(queue)
                queue.clear()
                futures = []
                for i in batch:
                    attempts[i] += 1
                    futures.append(
                        (i, pool.submit(_execute_job, self._job(points[i], i, attempts[i])))
                    )
                for pos, (i, future) in enumerate(futures):
                    try:
                        payload = future.result(timeout=self.timeout_s)
                    except FuturesTimeoutError:
                        self._count("sweep/timeouts")
                        pool = self._respawn_pool(
                            pool,
                            workers,
                            f"point {points[i].label} exceeded the "
                            f"{self.timeout_s}s per-point timeout",
                        )
                        # In-flight batch-mates lost with the pool get
                        # their attempt back and are resubmitted.
                        for j, _lost in futures[pos + 1:]:
                            attempts[j] -= 1
                            queue.append(j)
                        if self._retry(
                            points[i], i, attempts[i], "timeout", backoff=False
                        ):
                            queue.append(i)
                        else:
                            yield i, _PointOutcome(
                                points[i],
                                None,
                                STATUS_TIMEOUT,
                                attempts[i],
                                float(self.timeout_s or 0.0),
                                f"exceeded per-point timeout "
                                f"({self.timeout_s}s)",
                            )
                        if pool is None:
                            yield from drain_inprocess()
                            return
                        break
                    except BrokenProcessPool:
                        pool = self._respawn_pool(
                            pool,
                            workers,
                            "worker process died (BrokenProcessPool)",
                        )
                        for j, _lost in futures[pos:]:
                            yield j, self._run_inprocess(
                                points[j], j, attempts[j] + 1
                            )
                        if pool is None:
                            yield from drain_inprocess()
                            return
                        break
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        error = repr(exc)
                        if self._retry(points[i], i, attempts[i], error):
                            queue.append(i)
                        else:
                            yield i, _PointOutcome(
                                points[i],
                                None,
                                STATUS_FAILED,
                                attempts[i],
                                0.0,
                                error,
                            )
                    else:
                        yield i, _PointOutcome.succeeded(
                            points[i], attempts[i], payload
                        )
        except (GeneratorExit, KeyboardInterrupt):
            if pool is not None:
                _abandon_pool(pool)
                pool = None
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _retry(
        self,
        point: SweepPoint,
        index: int,
        attempt: int,
        error: str,
        backoff: bool = True,
    ) -> bool:
        """The one retry rule: failed attempt ``attempt`` is retried while
        ``attempt <= retries``; a retry is counted and announced, then
        waits out the backoff (timeouts pass ``backoff=False``)."""
        if attempt > self.retries:
            return False
        self._note_retry(point, index, attempt, error)
        if backoff:
            self._sleep_backoff(attempt)
        return True

    def _job(
        self, point: SweepPoint, index: int, attempt: int
    ) -> dict[str, object]:
        job = point.to_job()
        job["index"] = index
        job["attempt"] = attempt
        if self.faults is not None:
            job["faults"] = self.faults.to_dict()
        if self.registry is not None:
            job["telemetry"] = True
        return job

    def _make_pool(self, workers: int) -> ProcessPoolExecutor | None:
        """Create the worker pool, or ``None`` for the serial fallback.

        Restricted sandboxes surface as ``OSError``/``PermissionError``/
        ``NotImplementedError``; a stripped-down ``multiprocessing``
        (missing start methods, no ``_multiprocessing`` extension) as
        ``ImportError``/``RuntimeError``.  All of them degrade to serial
        execution with a warning naming the cause.
        """
        try:
            return ProcessPoolExecutor(max_workers=workers)
        except (
            OSError,
            PermissionError,
            NotImplementedError,
            ImportError,
            RuntimeError,
        ) as exc:
            warnings.warn(
                f"sweep engine: process pool unavailable "
                f"({type(exc).__name__}: {exc}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    def _respawn_pool(
        self, pool: ProcessPoolExecutor, workers: int, reason: str
    ) -> ProcessPoolExecutor | None:
        _abandon_pool(pool)
        self._pool_respawns += 1
        self._count("sweep/pool_respawns")
        warnings.warn(
            f"sweep engine: {reason}; respawning worker pool",
            RuntimeWarning,
            stacklevel=4,
        )
        return self._make_pool(workers)

    def _sleep_backoff(self, failure_number: int) -> None:
        if self.backoff_s > 0:
            time.sleep(self.backoff_s * (2 ** (failure_number - 1)))

    # ------------------------------------------------------------------
    # Ledger plumbing
    # ------------------------------------------------------------------
    def _prepare_ledger(
        self, points: Sequence[SweepPoint], total: int
    ) -> dict[int, str]:
        if self.ledger is None:
            return {}
        grid = grid_fingerprint([p.cache_key() for p in points])
        if self.resume:
            completed = self.ledger.load(grid, total)
            self.ledger.ensure_header(grid, total)
            return completed
        self.ledger.start(grid, total)
        return {}

    def _record_ledger(self, index: int, point: SweepPoint, status: str) -> None:
        if self.ledger is not None:
            self.ledger.record(index, point.cache_key(), status)

    # ------------------------------------------------------------------
    # Cache + observability plumbing
    # ------------------------------------------------------------------
    def _lookup(self, cache, point: SweepPoint) -> SimulationResult | None:
        if cache is None:
            return None
        return cache.get(point.cache_key())

    def _store(self, cache, point: SweepPoint, result: SimulationResult) -> None:
        if cache is not None:
            if not cache.put(point.cache_key(), result):
                self._count("cache/put_errors")

    def _count(self, name: str) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc()

    def _note_retry(
        self, point: SweepPoint, index: int, attempt: int, error: str
    ) -> None:
        self._count("sweep/retries")
        bus = self.bus
        if bus is not None and bus._detail:
            bus.emit(
                SweepPointRetried(
                    workload=point.workload,
                    scheme=point.scheme,
                    index=index,
                    total=self._grid_total,
                    attempt=attempt,
                    error=error,
                )
            )

    def _emit_started(self, point: SweepPoint, index: int, total: int) -> None:
        bus = self.bus
        if bus is not None and bus._detail:
            bus.emit(
                SweepPointStarted(
                    workload=point.workload,
                    scheme=point.scheme,
                    index=index,
                    total=total,
                )
            )

    def _emit_finished(
        self, outcome: _PointOutcome, index: int, total: int
    ) -> None:
        """Count and emit one resolved point.

        Called at *resolution* time (cache hit, future completion, or
        interrupt accounting), so bus subscribers — the CLI's live
        progress line, the JSONL progress stream — see points as they
        finish, in completion order.
        """
        point = outcome.point
        failed = outcome.status in FAILURE_STATUSES
        if self.registry is not None:
            self.registry.counter("sweep/points").inc()
            if outcome.status == STATUS_CACHED:
                self.registry.counter("sweep/cache_hits").inc()
                if outcome.resumed:
                    self.registry.counter("sweep/resumed").inc()
            elif failed:
                self.registry.counter("sweep/failed").inc()
            else:
                self.registry.counter("sweep/executed").inc()
                if self.cache is not None:
                    self.registry.counter("sweep/cache_misses").inc()
        bus = self.bus
        if bus is not None and bus._detail:
            if failed:
                bus.emit(
                    SweepPointFailed(
                        workload=point.workload,
                        scheme=point.scheme,
                        index=index,
                        total=total,
                        status=outcome.status,
                        attempts=outcome.attempts,
                        error=outcome.error or "",
                    )
                )
            else:
                bus.emit(
                    SweepPointFinished(
                        workload=point.workload,
                        scheme=point.scheme,
                        index=index,
                        total=total,
                        cached=outcome.cached,
                        elapsed_s=outcome.elapsed_s,
                    )
                )
