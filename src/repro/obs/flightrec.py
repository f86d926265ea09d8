"""Crash flight recorder: a bounded event ring dumped on the way down.

:class:`FlightRecorder` subscribes to an existing
:class:`~repro.obs.events.EventBus` and keeps the last ``capacity``
event objects in a ``deque(maxlen=...)`` — allocation-light because the
events are the already-constructed frozen dataclasses the bus delivered;
the ring only holds references and evicts by count.  When the serving
layer goes down (injected crash, SLO breach, SIGTERM drain) it calls
:meth:`dump`, which writes a timestamped JSONL post-mortem atomically
(:func:`repro.serialize.atomic_write`): a ``{"meta": ...}`` header line,
then one :func:`~repro.obs.events.event_to_dict` record per line, oldest
first.

Because the ring truncates at the head, a post-mortem may open
mid-trace.  :func:`traces_from_events` therefore replays the span
events through a fresh :class:`~repro.obs.spans.SpanTracer` starting at
the first *root* ``SpanStarted`` (``request``/``dummy``) and resets the
tracer on any torn-nesting error, so every fully-captured trace is
recovered and partial head/tail traces are dropped.  ``repro trace
analyze`` accepts these files directly (:func:`is_postmortem` sniffs
the header) and runs the same cycle-exact invariant checks as on a live
``--trace-spans`` capture.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

from repro.obs.events import (
    EVENT_BY_NAME,
    EventBus,
    RequestCompleted,
    SpanFinished,
    SpanStarted,
    event_from_dict,
    event_to_dict,
)
from repro.obs.spans import ROOT_SPAN_NAMES, SpanTracer
from repro.serialize import atomic_write

#: Post-mortem file schema (the meta header's ``schema`` key).
POSTMORTEM_SCHEMA = 1

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

        The filename embeds the wall-clock timestamp and the trigger
        reason (sanitised), so repeated dumps never collide and an
        operator can tell a crash dump from a drain dump at a glance.
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
            json.dump(
                {
                    "meta": {
                        "kind": "flight-recorder",
                        "schema": POSTMORTEM_SCHEMA,
                        "reason": reason,
                        "ts": now,
                        "captured": len(events),
                        "dropped": self.dropped,
                        "capacity": self.capacity,
                    }
                },
                stream,
                sort_keys=True,
            )
            stream.write("\n")
            for event in events:
                json.dump(
                    event_to_dict(event),
                    stream,
                    separators=(",", ":"),
                    default=str,
                )
                stream.write("\n")
        self.dumps.append(final)
        return final


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def is_postmortem(path: str | Path) -> bool:
    """Whether ``path`` looks like a flight-recorder dump (header sniff)."""
    try:
        with open(path) as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                meta = payload.get("meta")
                return (
                    isinstance(meta, dict)
                    and meta.get("kind") == "flight-recorder"
                )
    except (OSError, json.JSONDecodeError, AttributeError):
        return False
    return False


def load_postmortem(path: str | Path) -> tuple[dict, list[object]]:
    """Load a dump back into ``(meta, events)``.

    A ``type`` this code does not define is skipped, not raised, as in
    :func:`~repro.obs.log.load_events`: a dump written by older code may
    hold event types since deleted, and one written by newer code types
    not yet known; both must still replay.
    :func:`~repro.obs.events.event_from_dict` alone raises on an unknown
    type.
    """
    meta: dict = {}
    events: list[object] = []
    with open(path) as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if "meta" in payload and "type" not in payload:
                meta = payload["meta"]
                continue
            if payload.get("type") in EVENT_BY_NAME:
                events.append(event_from_dict(payload))
    return meta, events


#: Span names that may anchor a rebuilt trace.  ``request``/``dummy``
#: are the simulator's roots; in serve mode nothing wraps the
#: controller, so its topmost ``oram_access`` span is the root the
#: flight-recorder ring actually holds.
ANCHOR_SPAN_NAMES = frozenset(ROOT_SPAN_NAMES | {"oram_access"})


def traces_from_events(events: list[object]) -> list:
    """Reassemble completed span traces from a (possibly torn) stream.

    Skips to the first anchor ``SpanStarted`` so the tracer's LIFO
    stack never opens mid-trace; a torn nesting further in (the ring
    head cut between an outer open and an inner close) resets the
    assembly at the next anchor instead of failing the whole replay.
    """
    span_types = (SpanStarted, SpanFinished, RequestCompleted)
    traces: list = []
    bus = EventBus()
    tracer = SpanTracer(bus)
    started = False
    for event in events:
        if not isinstance(event, span_types):
            continue
        if not started:
            if (
                type(event) is SpanStarted
                and event.name in ANCHOR_SPAN_NAMES
            ):
                started = True
            else:
                continue
        try:
            bus.emit(event)
        except RuntimeError:
            traces.extend(tracer.traces)
            bus = EventBus()
            tracer = SpanTracer(bus)
            started = False
    traces.extend(tracer.traces)
    return traces


def load_postmortem_traces(path: str | Path) -> list:
    """``load_postmortem`` + ``traces_from_events`` in one call."""
    _, events = load_postmortem(path)
    return traces_from_events(events)
