"""Wall-clock profiling of the simulator's own stages.

The paper's metrics decompose *simulated* time; this module decomposes
the *simulator's* time — where does a run actually spend its host-CPU
seconds?  :class:`Profiler` keeps an exclusive-time section stack driven
by ``time.perf_counter`` (entering a nested section pauses its parent),
and :func:`profile_run` wires it around one full-system simulation:

* ``trace build`` — workload generation + cache-hierarchy filtering;
* ``oram access`` — ``controller.access`` minus nested sections;
* ``eviction`` — the RW eviction phase (read + write + shadow fill);
* ``dummy requests`` — timing-protection dummy accesses;
* ``merkle hashing`` — integrity-tree verification/update (only present
  when the run has ``--integrity`` armed);
* ``stash scan`` — stash inserts and real/shadow lookups;
* ``bookkeeping`` — everything else in the simulation loop (scheduler,
  issue policies, result aggregation).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # imported lazily at runtime: obs must not pull in the
    # simulator at import time (the simulator stack imports repro.obs).
    from repro.system.config import SystemConfig
    from repro.system.metrics import SimulationResult


class Profiler:
    """Exclusive-time section accounting on a stack.

    ``totals[name]`` accumulates seconds spent in section ``name`` with
    every nested section subtracted, so the totals of all sections sum to
    the overall wall-clock of the outermost section.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self._stack: list[list[object]] = []  # [name, resume_mark]

    # ------------------------------------------------------------------
    def _charge_top(self, now: float) -> None:
        name, mark = self._stack[-1]
        self.totals[name] = self.totals.get(name, 0.0) + (now - mark)

    def enter(self, name: str) -> None:
        now = perf_counter()
        if self._stack:
            self._charge_top(now)
        self._stack.append([name, now])

    def exit(self) -> None:
        now = perf_counter()
        self._charge_top(now)
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] = now

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # ------------------------------------------------------------------
    def wrap(self, obj: object, method_name: str, section_name: str) -> None:
        """Shadow a bound method with a section-wrapped instance attribute."""
        inner = getattr(obj, method_name)

        def wrapped(*args: object, **kwargs: object) -> object:
            self.enter(section_name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.exit()

        setattr(obj, method_name, wrapped)

    @property
    def total(self) -> float:
        return sum(self.totals.values())


def profile_run(
    config: SystemConfig,
    workload_name: str,
    num_requests: int = 20_000,
    seed: int | None = None,
) -> tuple[dict[str, float], SimulationResult]:
    """Run one simulation with per-stage wall-clock attribution.

    Returns ``(seconds_by_stage, result)``.  The miss-trace cache is
    cleared first so ``trace build`` measures real work, not a cache hit.
    """
    from repro.system.simulator import SystemSimulator, build_miss_trace

    if seed is None:
        seed = config.seed
    prof = Profiler()
    build_miss_trace.cache_clear()
    sim = SystemSimulator(config)

    if not config.insecure:
        original_build = sim._build_controller

        def profiled_build(build_seed: int):
            controller = original_build(build_seed)
            prof.wrap(controller, "access", "oram access")
            prof.wrap(controller, "_maybe_evict", "eviction")
            prof.wrap(controller, "dummy_access", "dummy requests")
            stash = getattr(controller, "stash", None)
            if stash is not None:
                # The requested block goes through the controller's
                # ``_stash_insert``; every other block a path read moves
                # to the stash goes straight to ``stash.insert``.
                prof.wrap(controller, "_stash_insert", "stash scan")
                prof.wrap(stash, "insert", "stash scan")
                prof.wrap(stash, "lookup_real", "stash scan")
                prof.wrap(stash, "lookup_shadow", "stash scan")
            integrity = getattr(controller, "integrity", None)
            if integrity is not None:
                prof.wrap(integrity, "verify_path", "merkle hashing")
                prof.wrap(integrity, "update_path", "merkle hashing")
            return controller

        sim._build_controller = profiled_build  # type: ignore[method-assign]

    with prof.section("trace build"):
        sim._per_core_traces(workload_name, num_requests, seed)
    with prof.section("bookkeeping"):
        result = sim.run(workload_name, num_requests=num_requests, seed=seed)
    return dict(prof.totals), result
