"""Live sweep progress: TTY status line and machine-readable JSONL.

Long figure sweeps (fig09–fig19) used to run dark: the engine emitted
:class:`~repro.obs.events.SweepPointStarted` /
:class:`~repro.obs.events.SweepPointFinished` /
:class:`~repro.obs.events.SweepPointRetried` /
:class:`~repro.obs.events.SweepPointFailed` events, but nothing rendered
them while the sweep was still running.  This module adds two bus
subscribers:

* :class:`ProgressReporter` — a throttled, TTY-aware single status line
  (done/total, cache-hit rate, retries, failures, points/sec, ETA)
  behind ``python -m repro sweep --live``.  On a TTY the line is
  ``\\r``-rewritten in place.  When the output stream is *not* a TTY
  (redirected/CI), ``--live`` no longer refuses: the reporter degrades
  to a heavily throttled plain-line mode — whole status lines separated
  by newlines, repainted at most every ``plain_interval_s`` seconds —
  after a one-time warning on stderr.  Runs without ``--live`` still
  pay zero overhead: no subscriber, no event construction (the bus
  short-circuits on ``_detail``).
* :class:`ProgressJsonlWriter` — one JSON object per resolved point
  (``--progress-jsonl``), with monotonically non-decreasing ``done``
  counts, for CI dashboards and scripts.

Both are thin views over a shared :class:`SweepProgress` accumulator,
which is pure accounting (injectable clock) and tested in isolation.
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO, Callable

from repro.obs.events import (
    EventBus,
    SweepPointFailed,
    SweepPointFinished,
    SweepPointRetried,
    SweepPointStarted,
)

Clock = Callable[[], float]

SWEEP_EVENT_TYPES = (
    SweepPointStarted,
    SweepPointFinished,
    SweepPointRetried,
    SweepPointFailed,
)


class SweepProgress:
    """Accumulates sweep events into done/cached/retry/failure counts.

    ``done`` counts *resolved* points (finished or failed) and therefore
    never decreases; ``total`` comes from the events themselves, so one
    tracker can follow consecutive sweeps on the same bus.
    """

    def __init__(self, clock: Clock = time.monotonic) -> None:
        self._clock = clock
        self.total = 0
        self.done = 0
        self.cached = 0
        self.executed = 0
        self.retries = 0
        self.failed = 0
        self.started_at: float | None = None

    # ------------------------------------------------------------------
    def on_event(self, event: object) -> bool:
        """Fold one bus event in; returns True if it resolved a point."""
        if self.started_at is None:
            self.started_at = self._clock()
        kind = type(event)
        if kind is SweepPointStarted:
            self.total = max(self.total, event.total)
            return False
        if kind is SweepPointFinished:
            self.total = max(self.total, event.total)
            self.done += 1
            if event.cached:
                self.cached += 1
            else:
                self.executed += 1
            return True
        if kind is SweepPointRetried:
            self.retries += 1
            return False
        if kind is SweepPointFailed:
            self.total = max(self.total, event.total)
            self.done += 1
            self.failed += 1
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.done if self.done else 0.0

    def elapsed_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return max(0.0, self._clock() - self.started_at)

    def points_per_s(self) -> float:
        elapsed = self.elapsed_s()
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_s(self) -> float | None:
        """Seconds to completion at the current rate (None before data)."""
        rate = self.points_per_s()
        if rate <= 0 or self.total <= 0:
            return None
        return max(0.0, (self.total - self.done) / rate)

    def snapshot(self) -> dict[str, object]:
        """JSON-safe state dump (the ``--progress-jsonl`` record body)."""
        eta = self.eta_s()
        return {
            "done": self.done,
            "total": self.total,
            "cached": self.cached,
            "executed": self.executed,
            "retries": self.retries,
            "failed": self.failed,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "elapsed_s": round(self.elapsed_s(), 3),
            "points_per_s": round(self.points_per_s(), 3),
            "eta_s": round(eta, 3) if eta is not None else None,
        }

    def render(self) -> str:
        """One-line human rendering for the TTY status line."""
        parts = [f"[{self.done}/{self.total or '?'}]"]
        if self.total:
            parts.append(f"{self.done / self.total:.0%}")
        parts.append(f"{self.cached} cached")
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        parts.append(f"{self.points_per_s():.2f} pts/s")
        eta = self.eta_s()
        if eta is not None and self.done < self.total:
            parts.append(f"ETA {eta:.0f}s")
        return " | ".join(parts)


class ProgressReporter:
    """Throttled ``\\r``-rewritten status line for interactive sweeps.

    Args:
        stream: Where the line goes (default ``sys.stdout``).
        min_interval_s: Minimum seconds between repaints; point
            resolutions and failures always repaint.
        clock: Injectable monotonic clock (tests).
        force: Treat ``stream`` as a TTY even when it is not (tests).
        plain_interval_s: Repaint throttle used by the off-TTY plain
            mode, where every paint is a whole new line; deliberately
            much coarser than ``min_interval_s``.
        warn_stream: Where the one-time plain-mode warning goes
            (default ``sys.stderr``).
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        min_interval_s: float = 0.1,
        clock: Clock = time.monotonic,
        force: bool = False,
        plain_interval_s: float = 5.0,
        warn_stream: IO[str] | None = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.progress = SweepProgress(clock=clock)
        self._clock = clock
        self._last_paint: float | None = None
        self._painted = False
        self._dirty = False
        self._width = 0
        self._warn_stream = warn_stream
        self.plain = not (
            force or bool(getattr(self.stream, "isatty", lambda: False)())
        )
        self.min_interval_s = (
            max(min_interval_s, plain_interval_s) if self.plain
            else min_interval_s
        )

    # ------------------------------------------------------------------
    def attach(self, bus: EventBus) -> bool:
        """Subscribe to the sweep events.

        Always subscribes; off-TTY the reporter switches to plain-line
        mode and warns once on stderr instead of refusing (so ``--live``
        in a redirected/CI run still shows progress).
        """
        if self.plain:
            warn = (
                self._warn_stream if self._warn_stream is not None
                else sys.stderr
            )
            warn.write(
                "sweep --live: output is not a TTY; falling back to "
                f"plain progress lines (every >= {self.min_interval_s:g}s)\n"
            )
            warn.flush()
        bus.subscribe(self.on_event, *SWEEP_EVENT_TYPES)
        return True

    def on_event(self, event: object) -> None:
        resolved = self.progress.on_event(event)
        self._dirty = True
        done = self.progress.total and self.progress.done >= self.progress.total
        if resolved or done:
            self._paint(flush_through_throttle=bool(done))
        # Started events repaint only when the throttle allows, keeping
        # large cached sweeps (thousands of events) cheap.
        elif self._due():
            self._paint()

    def close(self) -> None:
        """Finish the status line with a newline (if anything painted)."""
        if self.plain:
            # Plain mode ends every paint with a newline already; just
            # make sure the final state made it out past the throttle.
            if self._dirty:
                self._paint(flush_through_throttle=True)
            return
        if self._painted:
            self.stream.write("\n")
            self.stream.flush()
            self._painted = False

    # ------------------------------------------------------------------
    def _due(self) -> bool:
        if self._last_paint is None:
            return True
        return self._clock() - self._last_paint >= self.min_interval_s

    def _paint(self, flush_through_throttle: bool = False) -> None:
        if not flush_through_throttle and not self._due():
            return
        line = self.progress.render()
        if self.plain:
            self.stream.write(line + "\n")
        else:
            pad = " " * max(0, self._width - len(line))
            self.stream.write("\r" + line + pad)
        self.stream.flush()
        self._width = len(line)
        self._painted = True
        self._dirty = False
        self._last_paint = self._clock()


class ProgressJsonlWriter:
    """Machine-readable progress stream: one JSON line per resolved point.

    Each line carries the full :meth:`SweepProgress.snapshot` plus the
    resolving event's identity (``event``/``workload``/``scheme``/
    ``index``), so ``done`` is monotonically non-decreasing across lines
    and the last line describes the finished sweep.
    """

    def __init__(self, stream: IO[str], clock: Clock = time.monotonic) -> None:
        self.stream = stream
        self.progress = SweepProgress(clock=clock)
        self.lines = 0

    def attach(self, bus: EventBus) -> None:
        bus.subscribe(self.on_event, *SWEEP_EVENT_TYPES)

    def on_event(self, event: object) -> None:
        resolved = self.progress.on_event(event)
        kind = type(event)
        if not resolved and kind is not SweepPointRetried:
            return
        record = self.progress.snapshot()
        record["event"] = {
            SweepPointFinished: "finished",
            SweepPointFailed: "point-failed",
            SweepPointRetried: "retried",
        }.get(kind, kind.__name__)
        record["workload"] = event.workload
        record["scheme"] = event.scheme
        record["index"] = event.index
        json.dump(record, self.stream, separators=(",", ":"))
        self.stream.write("\n")
        self.lines += 1
