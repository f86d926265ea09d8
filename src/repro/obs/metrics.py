"""Metrics registry: counters, gauges, and fixed-bucket histograms.

:class:`MetricsRegistry` is a flat namespace of named instruments with a
stable JSON export, and :class:`MetricsCollector` is the bus subscriber
that populates one from the event stream — the single source of truth the
CLI's ``--metrics`` flag serialises.  Its counters are defined so that a
seeded full-system run reproduces the corresponding
:class:`~repro.system.metrics.SimulationResult` fields exactly
(``requests/data`` = LLC misses served, ``requests/real_oram`` = real ORAM
launches, ``requests/dummy`` = dummy launches, ``served/onchip`` = on-chip
hits, ``served/shadow_path`` = early-forwarded serves).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import IO

from repro.obs.events import (
    BlockRecovered,
    BlockServed,
    CheckpointRestored,
    CheckpointSaved,
    CorruptionDetected,
    DummyIssued,
    DuplicationPlaced,
    EvictionPerformed,
    EventBus,
    HotAddressTouched,
    PartitionAdjusted,
    PathReadStarted,
    PosmapRepaired,
    RecoveryFailed,
    RequestCompleted,
    SlotAligned,
    StashOccupancy,
)

SERVED_ONCHIP_SOURCES = ("stash", "shadow_stash", "treetop")


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
LEVEL_BUCKETS = [float(level) for level in range(33)]
OCCUPANCY_BUCKETS = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
DRI_BUCKETS = LATENCY_BUCKETS


class MetricsCollector:
    """Bus subscriber that fills a :class:`MetricsRegistry`.

    Instruments populated:

    * ``requests/data`` — non-dummy ``access()`` calls (== LLC misses in
      the full-system simulator without writeback modelling);
    * ``requests/real_oram`` — data requests that launched path accesses;
    * ``requests/dummy`` — dummy requests;
    * ``served/<source>``, ``served/onchip``, ``served/shadow_path``;
    * ``paths/reads/<purpose>``, ``evictions``, ``duplication/<kind>``;
    * ``scheduler/slot_waits``, ``hot_cache/{hits,misses}``;
    * ``partition/adjustments`` counter + ``partition/level`` gauge;
    * histograms ``latency/data_request``, ``latency/dummy_request``,
      ``shadow/hit_level``, ``stash/real_occupancy``, ``dri/interval``.

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
        bus.subscribe(self.on_event)

    # ------------------------------------------------------------------
    def on_event(self, event: object) -> None:
        reg = self.registry
        if type(event) is BlockServed:
            reg.counter(f"served/{event.source}").inc()
            if event.onchip:
                reg.counter("served/onchip").inc()
            if event.source == "shadow_path":
                self.shadow_level.observe(float(event.level))
        elif type(event) is RequestCompleted:
            if event.op == "dummy":
                reg.counter("requests/dummy").inc()
                self.dummy_latency.observe(event.finish - event.issue)
                return
            reg.counter("requests/data").inc()
            self.latency.observe(event.data_ready - event.issue)
            if event.path_accesses > 0:
                reg.counter("requests/real_oram").inc()
                if self._last_real_finish is not None:
                    gap = event.issue - self._last_real_finish
                    if gap > 0:
                        self.dri.observe(gap)
                self._last_real_finish = event.finish
        elif type(event) is StashOccupancy:
            self.occupancy.observe(float(event.real))
            reg.gauge("stash/real").set(event.real)
            reg.gauge("stash/shadow").set(event.shadow)
        elif type(event) is PathReadStarted:
            reg.counter(f"paths/reads/{event.purpose}").inc()
        elif type(event) is EvictionPerformed:
            reg.counter("evictions").inc()
        elif type(event) is DuplicationPlaced:
            reg.counter(f"duplication/{event.kind}").inc()
            if event.from_stash:
                reg.counter("duplication/from_stash").inc()
        elif type(event) is DummyIssued:
            reg.counter("paths/reads/dummy_issued").inc()
        elif type(event) is SlotAligned:
            reg.counter("scheduler/slot_waits").inc()
            if event.wait > 0:
                reg.gauge("scheduler/last_slot_wait").set(event.wait)
        elif type(event) is PartitionAdjusted:
            reg.counter("partition/adjustments").inc()
            reg.gauge("partition/level").set(event.new_level)
            reg.gauge("partition/dri_counter").set(event.counter)
        elif type(event) is HotAddressTouched:
            reg.counter("hot_cache/hits" if event.hit else "hot_cache/misses").inc()
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

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return self.registry.to_dict()
