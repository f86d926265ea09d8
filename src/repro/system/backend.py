"""Memory-system backends driven by the simulator's scheduling frontend.

Historically :class:`~repro.system.simulator.SystemSimulator` contained
two near-identical request loops — one for ORAM configurations, one for
the insecure DRAM baseline — differing only in *what serves a miss*.
That duplicated loop is now a single frontend (core selection, issue
policies, latency/end-time accounting, writebacks) driving this module's
small :class:`Backend` protocol:

* :class:`OramBackend` — the shadow/Tiny ORAM controller behind the
  timing-protection :class:`~repro.system.timing.RequestScheduler`, with
  the treetop/XOR path-timing selection injected as a
  :class:`~repro.mem.dram.PathTimer`;
* :class:`InsecureDramBackend` — plain serialized DRAM accesses (the
  normalisation baseline of Figures 11/15).

A backend answers one question per LLC miss ("when did it launch, when
was the data ready, when did the hardware free up") and builds the final
:class:`~repro.system.metrics.SimulationResult` from its own counters.
The ORAM backend also hands those counters to the bus, once, as a
:class:`~repro.obs.events.RunFinished`: the metrics collector reads its
counters there instead of counting per-access events again.
Future scaling work (multi-channel controllers, sharded ORAM banks,
remote memory) plugs in here without touching the frontend.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Protocol

from repro.core.controller import ShadowOramController
from repro.cpu.trace import LlcMiss
from repro.mem.dram import DramModel, PathTimer
from repro.obs.events import EventBus, RunFinished, SpanFinished, SpanStarted
from repro.oram.tiny import Observer, TinyOramController
from repro.system.config import SystemConfig
from repro.system.energy import EnergyModel
from repro.system.metrics import SimulationResult
from repro.system.timing import RequestScheduler


@dataclass(slots=True)
class ServeOutcome:
    """What the backend reports back for one served LLC miss.

    Attributes:
        launch: Cycle the request actually entered the memory system
            (after controller-busy / timing-protection slot waits).
        data_ready: Cycle the requested data reached the LLC — when the
            CPU un-stalls.
        finish: Cycle the backend became free again (includes eviction
            work for ORAM backends).
    """

    launch: float
    data_ready: float
    finish: float


class Backend(Protocol):
    """What the scheduling frontend needs from a memory system."""

    def serve(self, miss: LlcMiss, ready: float) -> ServeOutcome:
        """Serve one LLC miss that became issueable at ``ready``."""
        ...

    def writeback(self, addr: int, now: float) -> float:
        """Write back a dirty LLC victim; returns the finish cycle."""
        ...

    def finalize(
        self,
        workload_name: str,
        total_misses: int,
        end_time: float,
        latency_sum: float,
        completions: list[float],
    ) -> SimulationResult:
        """Fold frontend totals and backend counters into the result."""
        ...


# A backend decorator the frontend applies after construction.  This is
# the sanctioned seam for wrapping a run's memory system — the fault
# harness (repro.faults) injects stash-pressure spikes and DRAM bit-flips
# through it, and invariant/consistency auditors attach the same way.  A
# filter must preserve the Backend protocol and, for transparent wrappers,
# expose the inner ``controller`` attribute when one exists.
BackendFilter = Callable[[Backend], Backend]


def build_oram_controller(
    config: SystemConfig,
    seed: int,
    bus: EventBus | None = None,
    observer: Observer | None = None,
) -> TinyOramController:
    """Construct the configured ORAM controller with its timing policy.

    The treetop/XOR path-timing selection is resolved here — at the
    system layer, where the rest of the configuration is interpreted —
    and injected into the controller as a :class:`PathTimer`.
    """
    oram = config.oram
    dram = DramModel(config.dram, oram.levels, oram.z)
    timer = PathTimer(
        dram, oram.levels, oram.z, oram.treetop_levels, oram.xor_compression
    )
    rng = Random(seed)
    if config.shadow is None:
        return TinyOramController(
            oram, rng, dram=dram, bus=bus, observer=observer, timer=timer
        )
    return ShadowOramController(
        oram,
        rng,
        config.shadow,
        dram=dram,
        bus=bus,
        observer=observer,
        timer=timer,
    )


class OramBackend:
    """ORAM controller + request scheduler behind the frontend seam.

    Args:
        config: Full-system configuration (scheme name, stats flags).
        controller: The (shadow or Tiny) ORAM controller instance.
        scheduler: Launch arbiter (timing protection / controller-busy).
        energy_model: Energy accounting for the final result.
        record_progress: Sample the partitioning level per served miss
            (the Figure 6 study).
        keep_stats: Attach raw ORAM counters to the result.
    """

    def __init__(
        self,
        config: SystemConfig,
        controller: TinyOramController,
        scheduler: RequestScheduler,
        energy_model: EnergyModel,
        record_progress: bool = False,
        keep_stats: bool = True,
    ) -> None:
        self.config = config
        self.controller = controller
        self.scheduler = scheduler
        self.energy_model = energy_model
        self.record_progress = record_progress
        self.keep_stats = keep_stats
        self.real_requests = 0
        self.partition_levels: list[int] = []
        self.is_shadow = isinstance(controller, ShadowOramController)

    # ------------------------------------------------------------------
    def serve(self, miss: LlcMiss, ready: float) -> ServeOutcome:
        controller = self.controller
        if controller.peek_onchip(miss.addr, miss.op):
            result = controller.access(miss.addr, miss.op, now=ready)
            launch = ready
        else:
            launch = self.scheduler.launch_real(ready)
            result = controller.access(miss.addr, miss.op, now=launch)
            if result.path_accesses > 0:
                self.scheduler.complete_real(launch, result.finish)
                self.real_requests += 1
            # else: a dummy fired by the scheduler pulled the block on
            # chip between readiness and launch — served as a hit.
        if self.record_progress and self.is_shadow:
            self.partition_levels.append(self.controller.partition.level)
        return ServeOutcome(
            launch=launch, data_ready=result.data_ready, finish=result.finish
        )

    def writeback(self, addr: int, now: float) -> float:
        launch = self.scheduler.launch_real(now)
        wb = self.controller.access(addr, "write", now=launch)
        if wb.path_accesses > 0:
            self.scheduler.complete_real(launch, wb.finish)
            self.real_requests += 1
        return wb.finish

    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable rendering: backend counters + nested state."""
        return {
            "real_requests": self.real_requests,
            "slot_waits": self.scheduler.slot_waits,
            "partition_levels": list(self.partition_levels),
            "scheduler": self.scheduler.snapshot_state(),
            "controller": self.controller.snapshot_state(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        self.real_requests = state["real_requests"]
        # A checkpoint written before ``slot_waits`` was saved still
        # restores; its count then covers only the resumed part.
        self.scheduler.slot_waits = state.get("slot_waits", 0)
        self.partition_levels = list(state["partition_levels"])
        self.scheduler.restore_state(state["scheduler"])
        self.controller.restore_state(state["controller"])

    def finalize(
        self,
        workload_name: str,
        total_misses: int,
        end_time: float,
        latency_sum: float,
        completions: list[float],
    ) -> SimulationResult:
        controller = self.controller
        scheduler = self.scheduler
        if controller.bus._subs:
            self._report_run()
        energy = self.energy_model.oram_energy_nj(controller.stats, end_time)
        return SimulationResult(
            workload=workload_name,
            scheme=self.config.name,
            llc_misses=total_misses,
            total_cycles=end_time,
            data_access_cycles=scheduler.data_busy,
            real_requests=self.real_requests,
            dummy_requests=scheduler.dummy_requests,
            onchip_hits=controller.stats.onchip_serves,
            shadow_path_serves=controller.stats.shadow_path_serves,
            mean_data_latency=latency_sum / total_misses if total_misses else 0.0,
            energy_nj=energy,
            stash_peak=controller.stash.peak_real,
            oram_stats=controller.stats if self.keep_stats else None,
            shadow_stats=(
                controller.shadow_stats
                if self.keep_stats and self.is_shadow
                else None
            ),
            completions=completions,
            partition_levels=self.partition_levels,
        )

    def _report_run(self) -> None:
        """Emit :class:`RunFinished`: the stats this run kept, once."""
        controller = self.controller
        stats = controller.stats
        rd = hd = hits = misses = adjustments = 0
        if self.is_shadow:
            rd = controller.shadow_stats.rd_shadows
            hd = controller.shadow_stats.hd_shadows
            hits = controller.hot_cache.hits
            misses = controller.hot_cache.misses
            adjustments = controller.partition.adjustments
        controller.bus.emit(RunFinished(
            accesses=stats.accesses,
            real_requests=self.real_requests,
            dummy_accesses=stats.dummy_accesses,
            stash_hits=stats.stash_hits,
            shadow_stash_hits=stats.shadow_stash_hits,
            shadow_path_serves=stats.shadow_path_serves,
            treetop_serves=stats.treetop_serves,
            onchip_serves=stats.onchip_serves,
            path_reads=stats.path_reads,
            evictions=stats.evictions,
            slot_waits=self.scheduler.slot_waits,
            rd_shadows=rd,
            hd_shadows=hd,
            hot_cache_hits=hits,
            hot_cache_misses=misses,
            partition_adjustments=adjustments,
        ))


class InsecureDramBackend:
    """Plain serialized DRAM accesses: the no-ORAM baseline."""

    def __init__(
        self,
        config: SystemConfig,
        energy_model: EnergyModel,
        bus: EventBus | None = None,
    ) -> None:
        self.config = config
        self.energy_model = energy_model
        self.bus = bus if bus is not None else EventBus()
        self.dram = DramModel(config.dram, config.oram.levels, config.oram.z)
        self.mem_free = 0.0
        self.busy = 0.0

    # ------------------------------------------------------------------
    def serve(self, miss: LlcMiss, ready: float) -> ServeOutcome:
        start = max(ready, self.mem_free)
        timing = self.dram.single_block_access(start)
        self.mem_free = timing.finish
        self.busy += timing.finish - start
        if self.bus._subs:
            if start > ready:
                self.bus.emit(SpanStarted(name="queue", ts=ready))
                self.bus.emit(SpanFinished(name="queue", ts=start))
            self.bus.emit(
                SpanStarted(name="dram_read", ts=start, addr=miss.addr)
            )
            self.bus.emit(SpanFinished(name="dram_read", ts=timing.finish))
        return ServeOutcome(
            launch=start, data_ready=timing.finish, finish=timing.finish
        )

    def writeback(self, addr: int, now: float) -> float:
        wb = self.dram.single_block_access(max(now, self.mem_free))
        self.mem_free = wb.finish
        self.busy += wb.finish - wb.start
        if self.bus._subs:
            if wb.start > now:
                self.bus.emit(SpanStarted(name="queue", ts=now))
                self.bus.emit(SpanFinished(name="queue", ts=wb.start))
            self.bus.emit(SpanStarted(name="dram_write", ts=wb.start, addr=addr))
            self.bus.emit(SpanFinished(name="dram_write", ts=wb.finish))
        return wb.finish

    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable rendering of the DRAM channel state."""
        return {"mem_free": self.mem_free, "busy": self.busy}

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        self.mem_free = state["mem_free"]
        self.busy = state["busy"]

    def finalize(
        self,
        workload_name: str,
        total_misses: int,
        end_time: float,
        latency_sum: float,
        completions: list[float],
    ) -> SimulationResult:
        energy = self.energy_model.insecure_energy_nj(total_misses, end_time)
        return SimulationResult(
            workload=workload_name,
            scheme=self.config.name,
            llc_misses=total_misses,
            total_cycles=end_time,
            data_access_cycles=self.busy,
            real_requests=total_misses,
            dummy_requests=0,
            onchip_hits=0,
            shadow_path_serves=0,
            mean_data_latency=latency_sum / total_misses if total_misses else 0.0,
            energy_nj=energy,
            stash_peak=0,
            completions=completions,
        )
