"""Metrics registry: counters, gauges, and fixed-bucket histograms.

:class:`MetricsRegistry` is a flat namespace of named instruments with a
stable JSON export, and :class:`MetricsCollector` is the bus subscriber
that populates one — the single source the CLI's ``--metrics`` flag and
each sweep worker's snapshot serialise.  Each fact is counted once: the
collector's counters are read from the stats the simulator keeps, which
arrive on the run's one :class:`~repro.obs.events.RunFinished`, so a
seeded full-system run reproduces the corresponding
:class:`~repro.system.metrics.SimulationResult` fields by construction
(``requests/data`` = LLC misses served, ``requests/real_oram`` = real ORAM
launches, ``requests/dummy`` = dummy launches, ``served/onchip`` = on-chip
hits, ``served/shadow_path`` = early-forwarded serves).  Histograms and
gauges come from the request roots and spans; the rest from the events
no stat holds.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import IO

from repro.obs.events import (
    BlockRecovered,
    CheckpointRestored,
    CheckpointSaved,
    CorruptionDetected,
    DuplicationPlaced,
    EventBus,
    PartitionAdjusted,
    PosmapRepaired,
    RecoveryFailed,
    RequestCompleted,
    RunFinished,
    SpanFinished,
    SpanStarted,
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> int:
        return self.value


class Gauge:
    """Last-written value, with min/max watermarks."""

    __slots__ = ("value", "min", "max", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> dict[str, float]:
        if not self.updates:
            return {"value": 0.0, "min": 0.0, "max": 0.0, "updates": 0}
        return {
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "updates": self.updates,
        }


class Histogram:
    """Fixed-bucket histogram.

    Args:
        bounds: Sorted inclusive upper bounds; one overflow bucket is
            appended implicitly, so ``len(counts) == len(bounds) + 1``.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: list[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if sorted(bounds) != list(bounds):
            raise ValueError(f"bucket bounds must be sorted, got {bounds}")
        self.bounds = list(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Interpolated percentile, ``q`` in [0, 100].

        Linearly interpolates within the covering bucket (assuming a
        uniform spread between its lower and upper bound), which is much
        tighter than the covering bucket's upper bound on the coarse
        ladders used here.  Observations past the last bound live in the
        unbounded overflow bucket, whose answer is clamped to
        ``bounds[-1]`` — finite and JSON-safe, if an underestimate.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.total:
            return 0.0
        target = q / 100.0 * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            prior = seen
            seen += count
            if seen >= target:
                if i >= len(self.bounds):
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                if count == 0:
                    return hi
                frac = (target - prior) / count
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
        return self.bounds[-1]

    def export(self) -> dict[str, object]:
        """Exact lossless export: bucket state plus ``count``/``sum``.

        Everything here is raw accumulator state — no percentile
        re-interpolation — so a snapshot shipped over the wire (the
        server ``stats`` latency block, the Prometheus exporter, the
        load generator's ``--report``) reconstructs via
        :meth:`from_export` with zero drift.
        """
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
        }

    @classmethod
    def from_export(cls, payload: dict[str, object]) -> Histogram:
        """Rebuild a histogram from :meth:`export` (or ``summary``) output."""
        hist = cls([float(b) for b in payload["bounds"]])
        counts = [int(c) for c in payload["counts"]]
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"expected {len(hist.counts)} counts "
                f"(bounds + overflow), got {len(counts)}"
            )
        hist.counts = counts
        hist.total = int(payload["count"])
        hist.sum = float(payload["sum"])
        return hist

    def summary(self) -> dict[str, object]:
        """The exact export plus derived mean/percentiles (incl. p99.9).

        This is the one latency-block schema shared by the server's
        ``stats`` reply, the load generator's report, and the JSON
        exporter; the percentile keys are conveniences layered over the
        exact bucket state, never a substitute for it.
        """
        out = self.export()
        out["mean"] = self.mean
        out["p50"] = self.percentile(50)
        out["p95"] = self.percentile(95)
        out["p99"] = self.percentile(99)
        out["p99.9"] = self.percentile(99.9)
        return out

    def to_dict(self) -> dict[str, object]:
        out = self.summary()
        out["total"] = self.total  # legacy alias of "count"
        return out


class MetricsRegistry:
    """Named instruments with idempotent creation and JSON export."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge()
        return inst

    def histogram(self, name: str, bounds: list[float] | None = None) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            if bounds is None:
                raise KeyError(f"histogram {name!r} does not exist yet")
            inst = self._histograms[name] = Histogram(bounds)
        return inst

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "counters": {k: c.to_dict() for k, c in sorted(self._counters.items())},
            "gauges": {k: g.to_dict() for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def write_json(self, stream: IO[str], **extra: object) -> None:
        """Serialise the registry (plus ``extra`` metadata keys)."""
        payload = dict(extra)
        payload.update(self.to_dict())
        json.dump(payload, stream, indent=2, sort_keys=False)
        stream.write("\n")


# ----------------------------------------------------------------------
# Bucket ladders shared by the collector and tests
# ----------------------------------------------------------------------
LATENCY_BUCKETS = [
    50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0,
    10_000.0, 20_000.0, 50_000.0, 100_000.0,
]
#: Wall-clock served-latency ladder (milliseconds): the server's
#: ``serve/latency_wall_ms``, the SLO monitor and the load generator.
WALL_MS_BUCKETS = [
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1_000.0, 2_000.0, 5_000.0,
]
LEVEL_BUCKETS = [float(level) for level in range(33)]
OCCUPANCY_BUCKETS = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
DRI_BUCKETS = LATENCY_BUCKETS


class MetricsCollector:
    """Bus subscriber that fills a :class:`MetricsRegistry`.

    Counters are read once, from the run's :class:`RunFinished`, each
    equal to a stat (DESIGN.md §6 lists which): ``requests/*``,
    ``served/*`` (``served/path`` is what the other sources leave),
    ``paths/reads/*``, ``evictions``, ``scheduler/slot_waits``,
    ``duplication/{rd,hd}``, ``hot_cache/*`` and
    ``partition/adjustments``; a counter that is 0 is not exported.
    Each request root's :class:`RequestCompleted` feeds the histograms
    ``latency/data_request``, ``latency/dummy_request``,
    ``shadow/hit_level`` (serving level of shadow-path serves) and
    ``dri/interval``, and the ``stash/real``/``stash/shadow`` gauges and
    ``stash/real_occupancy`` histogram: one sample after each access, the
    occupancy Path ORAM's stash bound speaks of (the transient peak
    within an access is ``SimulationResult.stash_peak``).  Each ``stall``
    span sets ``scheduler/last_slot_wait``.  Events that no stat holds
    feed ``duplication/from_stash``, the ``partition/level`` and
    ``partition/dri_counter`` gauges, and the recovery and checkpoint
    counters (under the ``raise`` policy a run dies before its
    ``RunFinished``).  After a restore, ``RunFinished`` covers the whole
    run; everything else covers the events after the restore.

    ``latency/data_request`` measures launch-to-data latency (the
    controller's view); the CPU-perceived latency reported by
    ``SimulationResult.mean_data_latency`` additionally includes the wait
    for a free controller / timing-protection slot.
    """

    def __init__(self, bus: EventBus, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.latency = reg.histogram("latency/data_request", LATENCY_BUCKETS)
        self.dummy_latency = reg.histogram(
            "latency/dummy_request", LATENCY_BUCKETS
        )
        self.shadow_level = reg.histogram("shadow/hit_level", LEVEL_BUCKETS)
        self.occupancy = reg.histogram("stash/real_occupancy", OCCUPANCY_BUCKETS)
        self.dri = reg.histogram("dri/interval", DRI_BUCKETS)
        self._last_real_finish: float | None = None
        self._stall_start = 0.0
        bus.subscribe(self.on_event)

    # ------------------------------------------------------------------
    def on_event(self, event: object) -> None:
        reg = self.registry
        # Most frequent first: spans, placements, then request roots.
        if type(event) is SpanStarted:
            if event.name == "stall":
                self._stall_start = event.ts
        elif type(event) is SpanFinished:
            if event.name == "stall":
                reg.gauge("scheduler/last_slot_wait").set(
                    event.ts - self._stall_start
                )
        elif type(event) is DuplicationPlaced:
            if event.from_stash:
                reg.counter("duplication/from_stash").inc()
        elif type(event) is RequestCompleted:
            self.occupancy.observe(float(event.stash_real))
            reg.gauge("stash/real").set(event.stash_real)
            reg.gauge("stash/shadow").set(event.stash_shadow)
            if event.op == "dummy":
                self.dummy_latency.observe(event.finish - event.issue)
                return
            self.latency.observe(event.data_ready - event.issue)
            if event.served_from == "shadow_path":
                self.shadow_level.observe(float(event.level))
            if event.path_accesses > 0:
                if self._last_real_finish is not None:
                    gap = event.issue - self._last_real_finish
                    if gap > 0:
                        self.dri.observe(gap)
                self._last_real_finish = event.finish
        elif type(event) is PartitionAdjusted:
            reg.gauge("partition/level").set(event.new_level)
            reg.gauge("partition/dri_counter").set(event.counter)
        elif type(event) is RunFinished:
            self._count_run(event)
        elif type(event) is CorruptionDetected:
            reg.counter("oram/corruptions").inc()
        elif type(event) is BlockRecovered:
            reg.counter("oram/recoveries").inc()
            reg.counter(f"oram/recovered_from/{event.source}").inc()
            if event.scrub:
                reg.counter("oram/scrubbed").inc()
        elif type(event) is RecoveryFailed:
            if event.action == "degrade":
                reg.counter("oram/unrecoverable").inc()
        elif type(event) is PosmapRepaired:
            reg.counter("oram/posmap_repairs").inc()
        elif type(event) is CheckpointSaved:
            reg.counter("checkpoint/saved").inc()
        elif type(event) is CheckpointRestored:
            reg.counter("checkpoint/restored").inc()

    def _count_run(self, run: RunFinished) -> None:
        counts = {
            "requests/data": run.accesses,
            "requests/real_oram": run.real_requests,
            "requests/dummy": run.dummy_accesses,
            # Every access has one source: path serves are the rest.
            "served/path": (
                run.accesses - run.stash_hits - run.shadow_stash_hits
                - run.shadow_path_serves - run.treetop_serves
            ),
            "served/stash": run.stash_hits,
            "served/shadow_stash": run.shadow_stash_hits,
            "served/shadow_path": run.shadow_path_serves,
            "served/treetop": run.treetop_serves,
            "served/onchip": run.onchip_serves,
            "paths/reads/request": (
                run.path_reads - run.dummy_accesses - run.evictions
            ),
            "paths/reads/dummy": run.dummy_accesses,
            "paths/reads/dummy_issued": run.dummy_accesses,
            "paths/reads/eviction": run.evictions,
            "evictions": run.evictions,
            "scheduler/slot_waits": run.slot_waits,
            "duplication/rd": run.rd_shadows,
            "duplication/hd": run.hd_shadows,
            "hot_cache/hits": run.hot_cache_hits,
            "hot_cache/misses": run.hot_cache_misses,
            "partition/adjustments": run.partition_adjustments,
        }
        for name, value in counts.items():
            if value:
                self.registry.counter(name).inc(value)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return self.registry.to_dict()
