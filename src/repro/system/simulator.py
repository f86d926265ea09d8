"""Full-system simulator: CPU + caches + ORAM controller + DRAM.

This is the reproduction's replacement for gem5+DRAMSim2 (DESIGN.md
substitutions 1 and 3).  A run takes a workload name, generates its
deterministic request stream, filters it through the Table-I cache
hierarchy, and then serves every LLC miss through the configured backend
(Tiny, RD-Dup, HD-Dup, static-P or dynamic-w ORAM, or the insecure DRAM
baseline), producing the metrics the paper's figures plot.

The class is a *scheduling frontend*: it decides which core's miss issues
next (a heap keyed by per-core readiness), drives the miss-issue policies
and latency accounting, and delegates the actual serving to a
:class:`~repro.system.backend.Backend`.

Example:
    >>> from repro.system.config import SystemConfig
    >>> from repro.system.simulator import simulate
    >>> r = simulate(SystemConfig.dynamic(3), "mcf", num_requests=20_000)
    >>> r.total_cycles > 0
    True
"""

from __future__ import annotations

import gc
import heapq
from functools import lru_cache

from repro.cpu.cache import CacheConfig, CacheHierarchy
from repro.cpu.core import MissIssuePolicy
from repro.cpu.trace import MissTrace
from repro.obs.events import (
    CheckpointRestored,
    CheckpointSaved,
    EventBus,
    SpanFinished,
    SpanStarted,
)
from repro.oram.tiny import Observer, TinyOramController
from repro.serialize import SCHEMA_VERSION
from repro.system.checkpoint import Checkpointer
from repro.system.backend import (
    Backend,
    BackendFilter,
    InsecureDramBackend,
    OramBackend,
    build_oram_controller,
)
from repro.system.config import SystemConfig
from repro.system.energy import EnergyConfig, EnergyModel
from repro.system.metrics import SimulationResult
from repro.system.timing import RequestScheduler
from repro.workloads.spec import get_workload


@lru_cache(maxsize=64)
def build_miss_trace(
    workload_name: str,
    num_requests: int,
    seed: int,
    address_space: int,
    cache_config: CacheConfig,
) -> MissTrace:
    """Generate a workload and filter it into its LLC-miss trace.

    Cached: the cache hierarchy is identical across ORAM schemes, so
    figure sweeps re-use the same miss trace for every scheme/parameter
    point, exactly like replaying one gem5 checkpoint.  Callers must treat
    the returned trace as read-only; the simulator hands out defensive
    copies (see :meth:`SystemSimulator._per_core_traces`) so cached and
    parallel runs cannot corrupt each other.
    """
    workload = get_workload(workload_name)
    requests = workload.requests(seed, num_requests, address_space)
    hierarchy = CacheHierarchy(cache_config)
    return hierarchy.filter_trace(requests, workload=workload_name)


class SystemSimulator:
    """Drives one full-system configuration over LLC-miss traces.

    Args:
        config: The full-system configuration to simulate.
        energy: Energy-model overrides.
        bus: Observability event bus threaded through the controller,
            stash, scheduler, and partition policy.  With no subscribers
            attached the instrumentation is a no-op.
        observer: Adversary-view callback receiving ``(kind, leaf, time)``
            for every externally visible path access.
        backend_filter: Optional decorator applied to the constructed
            backend — the seam the fault harness (:mod:`repro.faults`)
            uses to inject per-access faults and invariant checks.
            ``None`` leaves the backend unwrapped (the bit-identical
            default path).
    """

    def __init__(
        self,
        config: SystemConfig,
        energy: EnergyConfig | None = None,
        bus: EventBus | None = None,
        observer: Observer | None = None,
        backend_filter: BackendFilter | None = None,
    ):
        self.config = config
        self.energy_model = EnergyModel(energy)
        self.bus = bus if bus is not None else EventBus()
        self.observer = observer
        self.backend_filter = backend_filter

    # ------------------------------------------------------------------
    def run(
        self,
        workload_name: str,
        num_requests: int = 60_000,
        seed: int | None = None,
        record_progress: bool = False,
        keep_stats: bool = True,
        checkpointer: Checkpointer | None = None,
        restore: bool = False,
    ) -> SimulationResult:
        """Simulate ``workload_name`` end to end and return the metrics.

        Args:
            workload_name: One of :func:`repro.workloads.spec.workload_names`.
            num_requests: Memory instructions generated per core.
            seed: Workload + ORAM seed (defaults to ``config.seed``).
            record_progress: Record per-miss completion times and the
                partitioning-level trace (needed by the Figure 6 study).
            keep_stats: Attach the raw ORAM counters to the result.
            checkpointer: When set, snapshot the full runtime state every
                ``checkpointer.every`` served misses (atomic writes; see
                :mod:`repro.system.checkpoint`).
            restore: Resume from the newest valid checkpoint in the
                checkpointer's directory (falls back to a fresh start when
                none matches this run).  The finished result is
                bit-identical to an uninterrupted run.
        """
        if seed is None:
            seed = self.config.seed
        backend = self._build_backend(seed, record_progress, keep_stats)
        if self.backend_filter is not None:
            backend = self.backend_filter(backend)
        traces = self._per_core_traces(workload_name, num_requests, seed)
        if checkpointer is not None:
            checkpointer.run_key = {
                "config": self.config.fingerprint(),
                "workload": workload_name,
                "num_requests": num_requests,
                "seed": seed,
                "record_progress": record_progress,
                "schema": SCHEMA_VERSION,
            }
        return self._drive(
            backend,
            workload_name,
            traces,
            record_progress,
            checkpointer=checkpointer,
            restore=restore,
        )

    # ------------------------------------------------------------------
    def _build_backend(
        self, seed: int, record_progress: bool, keep_stats: bool
    ) -> Backend:
        cfg = self.config
        if cfg.insecure:
            return InsecureDramBackend(cfg, self.energy_model, bus=self.bus)
        controller = self._build_controller(seed)
        scheduler = RequestScheduler(controller, cfg.timing, bus=self.bus)
        return OramBackend(
            cfg,
            controller,
            scheduler,
            self.energy_model,
            record_progress=record_progress,
            keep_stats=keep_stats,
        )

    def _build_controller(self, seed: int) -> TinyOramController:
        return build_oram_controller(
            self.config, seed, bus=self.bus, observer=self.observer
        )

    def _per_core_traces(
        self, workload_name: str, num_requests: int, seed: int
    ) -> list[MissTrace]:
        cfg = self.config
        cores = cfg.cpu.cores
        space = cfg.oram.num_blocks
        if cores == 1:
            base = build_miss_trace(
                workload_name, num_requests, seed, space, cfg.cache
            )
            # Defensive copy: the lru_cache'd trace is shared across every
            # scheme/parameter point of a sweep, so callers must never see
            # the cached list itself.  LlcMiss is frozen, so copying the
            # list is enough to make the trace corruption-proof.
            return [
                MissTrace(
                    workload=base.workload,
                    misses=list(base.misses),
                    raw_requests=base.raw_requests,
                    l1_hits=base.l1_hits,
                    l2_hits=base.l2_hits,
                )
            ]
        # The paper duplicates the benchmark, one task per core, each with
        # its own copy of the data: carve the ORAM space into per-core
        # regions and offset each core's addresses into its region.
        per_core_space = max(1, space // cores)
        traces = []
        for core in range(cores):
            base_trace = build_miss_trace(
                workload_name,
                num_requests,
                seed + core,
                per_core_space,
                cfg.cache,
            )
            offset = core * per_core_space
            misses = [
                type(m)(
                    addr=m.addr + offset,
                    op=m.op,
                    gap=m.gap,
                    dependent=m.dependent,
                    writeback_addr=(
                        m.writeback_addr + offset
                        if m.writeback_addr is not None
                        else None
                    ),
                )
                for m in base_trace.misses
            ]
            traces.append(
                MissTrace(
                    workload=base_trace.workload,
                    misses=misses,
                    raw_requests=base_trace.raw_requests,
                    l1_hits=base_trace.l1_hits,
                    l2_hits=base_trace.l2_hits,
                )
            )
        return traces

    # ------------------------------------------------------------------
    def _drive(
        self,
        backend: Backend,
        workload_name: str,
        traces: list[MissTrace],
        record_progress: bool,
        checkpointer: Checkpointer | None = None,
        restore: bool = False,
    ) -> SimulationResult:
        """The scheduling frontend: one loop for every backend.

        Core selection uses a min-heap keyed by each core's next-miss
        ready time.  A core's readiness only changes when *its own* miss
        completes (the issue policies are per-core state machines), so an
        entry pushed after serving a core stays valid until popped —
        no re-keying is ever needed.  Ties break toward the lowest core
        index, matching the previous linear scan.
        """
        policies = [MissIssuePolicy(self.config.cpu) for _ in traces]
        cursors = [0] * len(traces)
        total_misses = sum(len(t.misses) for t in traces)

        heap: list[tuple[float, int]] = [
            (policies[core].ready_time(trace.misses[0]), core)
            for core, trace in enumerate(traces)
            if trace.misses
        ]
        heapq.heapify(heap)

        end_time = 0.0
        latency_sum = 0.0
        completions: list[float] = []
        served = 0
        bus = self.bus

        if restore and checkpointer is not None:
            loaded = checkpointer.load_latest()
            if loaded is not None:
                served, frontend, path = loaded
                cursors = [int(c) for c in frontend["cursors"]]
                for policy, pstate in zip(policies, frontend["policies"]):
                    policy.restore_state(pstate)
                # The heap's internal list was saved verbatim, so the
                # heap invariant (and every future pop order) is intact.
                heap = [(entry[0], int(entry[1])) for entry in frontend["heap"]]
                end_time = frontend["end_time"]
                latency_sum = frontend["latency_sum"]
                completions = list(frontend["completions"])
                backend.restore_state(frontend["backend"])
                if bus._detail:
                    bus.emit(
                        CheckpointRestored(
                            access_index=served, path=str(path), ts=end_time
                        )
                    )

        # The drive loop allocates millions of short-lived acyclic objects
        # (blocks, timings, events); cyclic-GC passes over them are pure
        # overhead.  Pause collection for the loop and restore the
        # caller's setting after — reference counting still reclaims
        # everything promptly, and any cyclic garbage (e.g. span trees) is
        # collected at the next enabled pass.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._drive_loop(
                backend,
                workload_name,
                traces,
                policies,
                cursors,
                heap,
                record_progress,
                checkpointer,
                served,
                end_time,
                latency_sum,
                completions,
                total_misses,
            )
        finally:
            if gc_was_enabled:
                gc.enable()

    def _drive_loop(
        self,
        backend: Backend,
        workload_name: str,
        traces: list[MissTrace],
        policies: list[MissIssuePolicy],
        cursors: list[int],
        heap: list[tuple[float, int]],
        record_progress: bool,
        checkpointer: Checkpointer | None,
        served: int,
        end_time: float,
        latency_sum: float,
        completions: list[float],
        total_misses: int,
    ) -> SimulationResult:
        bus = self.bus
        observed = bool(bus._subs)
        while heap:
            ready, core = heapq.heappop(heap)
            trace = traces[core]
            miss = trace.misses[cursors[core]]
            cursors[core] += 1
            if observed:
                bus.core = core
            policy = policies[core]

            if observed:
                bus.emit(
                    SpanStarted(
                        name="request", ts=ready, addr=miss.addr, detail=miss.op
                    )
                )
            outcome = backend.serve(miss, ready)
            if observed:
                bus.emit(SpanFinished(name="request", ts=outcome.finish))
            policy.issued(outcome.launch)
            policy.complete(miss, outcome.data_ready)
            latency_sum += outcome.data_ready - ready
            end_time = max(end_time, outcome.data_ready, outcome.finish)
            if record_progress:
                completions.append(outcome.data_ready)

            if miss.writeback_addr is not None:
                if observed:
                    bus.emit(
                        SpanStarted(
                            name="request",
                            ts=outcome.data_ready,
                            addr=miss.writeback_addr,
                            detail="writeback",
                        )
                    )
                wb_finish = backend.writeback(
                    miss.writeback_addr, outcome.data_ready
                )
                if observed:
                    bus.emit(SpanFinished(name="request", ts=wb_finish))
                end_time = max(end_time, wb_finish)

            if cursors[core] < len(trace.misses):
                next_ready = policy.ready_time(trace.misses[cursors[core]])
                heapq.heappush(heap, (next_ready, core))

            served += 1
            if (
                checkpointer is not None
                and heap
                and served % checkpointer.every == 0
            ):
                frontend = {
                    "cursors": list(cursors),
                    "policies": [p.snapshot_state() for p in policies],
                    "heap": [list(entry) for entry in heap],
                    "end_time": end_time,
                    "latency_sum": latency_sum,
                    "completions": list(completions),
                    "backend": backend.snapshot_state(),
                }
                path = checkpointer.save(served, frontend)
                if bus._detail:
                    bus.emit(
                        CheckpointSaved(
                            access_index=served, path=str(path), ts=end_time
                        )
                    )

        return backend.finalize(
            workload_name, total_misses, end_time, latency_sum, completions
        )


def simulate(
    config: SystemConfig,
    workload_name: str,
    num_requests: int = 60_000,
    seed: int | None = None,
    record_progress: bool = False,
    bus: EventBus | None = None,
    observer: Observer | None = None,
    backend_filter: BackendFilter | None = None,
    checkpointer: Checkpointer | None = None,
    restore: bool = False,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SystemSimulator`."""
    return SystemSimulator(
        config, bus=bus, observer=observer, backend_filter=backend_filter
    ).run(
        workload_name,
        num_requests=num_requests,
        seed=seed,
        record_progress=record_progress,
        checkpointer=checkpointer,
        restore=restore,
    )
