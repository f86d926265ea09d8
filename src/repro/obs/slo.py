"""Rolling SLO monitor: windowed latency/shed objectives for serving.

:class:`SloMonitor` holds a fixed-width ring of closed
:class:`SloWindow` aggregates — each a pair of histograms over
simulated-cycle and wall-clock served latency plus shed/queue-depth
gauges — and evaluates declarative thresholds (the CLI's
``--slo p99_ms=...,shed_rate=...`` spec) over the ring every time a
window rolls.  The evaluation drives a three-state machine::

    healthy --(1 bad window)--> degraded --(breach_after bad)--> breached
    breached/degraded --(recover_after clean windows)--> healthy

Every transition is emitted as a
:class:`~repro.obs.events.SloStateChanged` bus event (behind the usual
``bus._detail`` zero-overhead guard) and the full monitor state is
embedded in the server's ``stats``/``health`` replies.  The monitor is
clock-injectable and rolled explicitly by its owner, so tests drive the
state machine deterministically without sleeping.

``shed_rate`` is evaluated as ``shed / (shed + admitted)`` over the
ring; latency thresholds are interpolated percentiles over the merged
ring histograms; ``queue_depth`` is the max depth observed in the ring.
"""

from __future__ import annotations

import time
from collections import deque

from repro.obs.events import EventBus, SloStateChanged
from repro.obs.metrics import LATENCY_BUCKETS, WALL_MS_BUCKETS, Histogram

STATE_HEALTHY = "healthy"
STATE_DEGRADED = "degraded"
STATE_BREACHED = "breached"

#: Threshold key -> (dimension, percentile-or-None).  ``*_ms`` keys
#: evaluate against wall-clock milliseconds, ``*_cycles`` against the
#: simulated access-latency clock.
SLO_KEYS: dict[str, tuple[str, float | None]] = {
    "p50_ms": ("wall", 50.0),
    "p95_ms": ("wall", 95.0),
    "p99_ms": ("wall", 99.0),
    "p999_ms": ("wall", 99.9),
    "mean_ms": ("wall", None),
    "p50_cycles": ("cycles", 50.0),
    "p95_cycles": ("cycles", 95.0),
    "p99_cycles": ("cycles", 99.0),
    "p999_cycles": ("cycles", 99.9),
    "mean_cycles": ("cycles", None),
    "shed_rate": ("shed", None),
    "queue_depth": ("queue", None),
}


def parse_slo_spec(text: str) -> dict[str, float]:
    """Parse ``key=value,key=value`` into a threshold dict.

    Raises ``ValueError`` on unknown keys, bad numbers, or an empty
    spec so ``--slo`` typos die at argument-parse time, not mid-serve.
    """
    thresholds: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"SLO term {part!r} is not key=value")
        if key not in SLO_KEYS:
            raise ValueError(
                f"unknown SLO key {key!r} (choose from "
                f"{', '.join(sorted(SLO_KEYS))})"
            )
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"SLO threshold {raw!r} is not a number") from None
        if value < 0:
            raise ValueError(f"SLO threshold must be >= 0, got {part!r}")
        thresholds[key] = value
    if not thresholds:
        raise ValueError("empty SLO spec")
    return thresholds


class SloWindow:
    """One window's aggregates: dual latency histograms + shed/queue."""

    __slots__ = ("wall", "cycles", "admitted", "shed", "queue_peak")

    def __init__(self) -> None:
        self.wall = Histogram(WALL_MS_BUCKETS)
        self.cycles = Histogram(LATENCY_BUCKETS)
        self.admitted = 0
        self.shed = 0
        self.queue_peak = 0

    @property
    def empty(self) -> bool:
        return not (self.wall.total or self.admitted or self.shed)


class SloMonitor:
    """Fixed-ring windowed SLO evaluation with a 3-state machine.

    Args:
        thresholds: Parsed ``--slo`` spec (:func:`parse_slo_spec`).
        window_s: Nominal width of one window (informational; the owner
            calls :meth:`roll` on this cadence).
        windows: Ring width — evaluation always covers the newest
            ``windows`` *closed* windows.
        breach_after: Consecutive bad windows before ``breached``.
        recover_after: Consecutive clean windows before ``healthy``.
        bus: Event bus for :class:`SloStateChanged` transitions.
        clock: Injectable wall clock (tests pass a fake).
    """

    def __init__(
        self,
        thresholds: dict[str, float],
        window_s: float = 1.0,
        windows: int = 8,
        breach_after: int = 3,
        recover_after: int = 2,
        bus: EventBus | None = None,
        clock=time.monotonic,
    ) -> None:
        if not thresholds:
            raise ValueError("SloMonitor needs at least one threshold")
        for key in thresholds:
            if key not in SLO_KEYS:
                raise ValueError(f"unknown SLO key {key!r}")
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        if breach_after < 1 or recover_after < 1:
            raise ValueError("breach_after/recover_after must be >= 1")
        self.thresholds = dict(thresholds)
        self.window_s = window_s
        self.windows = windows
        self.breach_after = breach_after
        self.recover_after = recover_after
        self.bus = bus
        self.clock = clock
        self.state = STATE_HEALTHY
        self.rolls = 0
        self.transitions = 0
        self.breaches = 0
        self._bad_streak = 0
        self._clean_streak = 0
        self._current = SloWindow()
        self._ring: deque[SloWindow] = deque(maxlen=windows)
        self._last_violations: dict[str, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Feeding (hot path: owner calls these per request)
    # ------------------------------------------------------------------
    def observe_served(self, wall_ms: float, cycles: float) -> None:
        self._current.wall.observe(wall_ms)
        self._current.cycles.observe(cycles)
        self._current.admitted += 1

    def observe_shed(self) -> None:
        self._current.shed += 1

    def observe_queue_depth(self, depth: int) -> None:
        if depth > self._current.queue_peak:
            self._current.queue_peak = depth

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _merged(self) -> tuple[Histogram, Histogram, int, int, int]:
        wall = Histogram(WALL_MS_BUCKETS)
        cycles = Histogram(LATENCY_BUCKETS)
        admitted = shed = queue_peak = 0
        for window in self._ring:
            for i, count in enumerate(window.wall.counts):
                wall.counts[i] += count
            wall.total += window.wall.total
            wall.sum += window.wall.sum
            for i, count in enumerate(window.cycles.counts):
                cycles.counts[i] += count
            cycles.total += window.cycles.total
            cycles.sum += window.cycles.sum
            admitted += window.admitted
            shed += window.shed
            queue_peak = max(queue_peak, window.queue_peak)
        return wall, cycles, admitted, shed, queue_peak

    def values(self) -> dict[str, float]:
        """Current metric values over the ring, one per threshold key."""
        wall, cycles, admitted, shed, queue_peak = self._merged()
        out: dict[str, float] = {}
        for key in self.thresholds:
            dim, q = SLO_KEYS[key]
            if dim == "wall":
                out[key] = wall.mean if q is None else wall.percentile(q)
            elif dim == "cycles":
                out[key] = cycles.mean if q is None else cycles.percentile(q)
            elif dim == "shed":
                attempts = admitted + shed
                out[key] = shed / attempts if attempts else 0.0
            else:
                out[key] = float(queue_peak)
        return out

    def violations(self) -> dict[str, tuple[float, float]]:
        """``key -> (observed, threshold)`` for every violated term."""
        return {
            key: (value, self.thresholds[key])
            for key, value in self.values().items()
            if value > self.thresholds[key]
        }

    def roll(self) -> str | None:
        """Close the current window, evaluate, maybe transition.

        Returns the new state when a transition happened, else ``None``.
        An all-empty ring (no traffic at all yet) evaluates as clean,
        so an idle server never degrades.
        """
        self._ring.append(self._current)
        self._current = SloWindow()
        self.rolls += 1
        violations = self.violations()
        self._last_violations = violations
        if violations:
            self._bad_streak += 1
            self._clean_streak = 0
        else:
            self._clean_streak += 1
            self._bad_streak = 0
        previous = self.state
        if self._bad_streak >= self.breach_after:
            self.state = STATE_BREACHED
        elif self._bad_streak >= 1:
            if previous != STATE_BREACHED:
                self.state = STATE_DEGRADED
        elif self._clean_streak >= self.recover_after:
            self.state = STATE_HEALTHY
        if self.state == previous:
            return None
        self.transitions += 1
        if self.state == STATE_BREACHED:
            self.breaches += 1
        bus = self.bus
        if bus is not None and bus._detail:
            bus.emit(
                SloStateChanged(
                    previous=previous,
                    state=self.state,
                    window=self.rolls,
                    violations=self._render_violations(violations),
                    ts=float(self.clock()),
                )
            )
        return self.state

    @staticmethod
    def _render_violations(
        violations: dict[str, tuple[float, float]]
    ) -> str:
        return ",".join(
            f"{key}={value:g}>{threshold:g}"
            for key, (value, threshold) in sorted(violations.items())
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """JSON-safe monitor state for the ``stats``/``health`` replies."""
        return {
            "state": self.state,
            "thresholds": dict(sorted(self.thresholds.items())),
            "values": {k: v for k, v in sorted(self.values().items())},
            "violations": {
                key: {"value": value, "threshold": threshold}
                for key, (value, threshold)
                in sorted(self._last_violations.items())
            },
            "window_s": self.window_s,
            "windows": self.windows,
            "rolls": self.rolls,
            "transitions": self.transitions,
            "breaches": self.breaches,
        }
