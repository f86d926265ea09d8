"""Crash flight recorder: a bounded event ring dumped on the way down.

:class:`FlightRecorder` subscribes to an existing
:class:`~repro.obs.events.EventBus` and keeps the last ``capacity``
event objects in a ``deque(maxlen=...)`` — allocation-light because the
events are the already-constructed frozen dataclasses the bus delivered;
the ring only holds references and evicts by count.  When the serving
layer goes down (injected crash, SLO breach, SIGTERM drain) it calls
:meth:`dump`, which writes the ring atomically
(:func:`repro.serialize.atomic_write`) as an event log: one
``postmortem`` header record, the way ``run_metadata`` heads a ``repro
run --events`` log, then one :class:`~repro.obs.log.JsonlLogger` record
per event, oldest first.

A post-mortem therefore reads back like any event log, through
:func:`~repro.obs.log.load_events`, and ``repro trace analyze`` rebuilds
its complete span traces through :func:`~repro.obs.spans.load_traces`.
The ring truncates at the head, so a dump may open mid-trace; the replay
skips to the first root and drops the torn traces at either end.  The
recorder keeps raw events only: spans are assembled when a dump is
analyzed, not in the server.
"""

from __future__ import annotations

import time
from collections import deque
from pathlib import Path

from repro.obs.events import EventBus
from repro.obs.log import JsonlLogger
from repro.serialize import atomic_write

DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """Ring-buffer bus subscriber with an atomic JSONL dump."""

    def __init__(
        self,
        bus: EventBus,
        capacity: int = DEFAULT_CAPACITY,
        directory: str | Path = ".",
        clock=time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.bus = bus
        self.capacity = capacity
        self.directory = Path(directory)
        self.clock = clock
        self.seen = 0
        self.dumps: list[Path] = []
        self._ring: deque = deque(maxlen=capacity)
        bus.subscribe(self._on_event)

    def _on_event(self, event: object) -> None:
        self.seen += 1
        self._ring.append(event)

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events evicted from the head of the ring so far."""
        return self.seen - len(self._ring)

    def events(self) -> list[object]:
        """A snapshot of the ring, oldest first."""
        return list(self._ring)

    def detach(self) -> None:
        self.bus.unsubscribe(self._on_event)

    # ------------------------------------------------------------------
    def dump(self, reason: str, directory: str | Path | None = None) -> Path:
        """Write the post-mortem atomically; returns the final path.

        The header's ``type`` names no event, so readers skip it.  The
        filename embeds the wall-clock timestamp and the trigger reason
        (sanitised), so repeated dumps never collide and an operator can
        tell a crash dump from a drain dump at a glance.
        """
        target_dir = Path(directory) if directory is not None else self.directory
        target_dir.mkdir(parents=True, exist_ok=True)
        now = self.clock()
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
        slug = "".join(
            ch if ch.isalnum() or ch in "-_" else "-" for ch in reason
        ) or "dump"
        events = self.events()
        final = target_dir / f"postmortem-{stamp}-{int(now * 1000) % 100000:05d}-{slug}.jsonl"
        with atomic_write(final) as stream:
            log = JsonlLogger(stream)
            log.write_record({
                "type": "postmortem",
                "reason": reason,
                "time": now,
                "captured": len(events),
                "dropped": self.dropped,
                "capacity": self.capacity,
            })
            for event in events:
                log(event)
        self.dumps.append(final)
        return final
