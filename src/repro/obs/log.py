"""Structured JSONL logging for event streams and run metadata.

One JSON object per line: the first line of a run log is a
``run_metadata`` record (scheme, geometry, seed, git revision, python
version), followed by one record per bus event.  A flight-recorder
post-mortem is the same format under a ``postmortem`` header.  The
format is grep/`jq`-friendly and append-safe, so long simulations can
stream their event log to disk instead of holding it in memory.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import IO, Iterable

from repro.obs.events import EVENT_BY_NAME, EventBus, event_from_dict, event_to_dict


def _git(*args: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=5
        )
    except (OSError, subprocess.TimeoutExpired):
        return None


def git_describe(ignore: str | os.PathLike | None = None) -> str:
    """Best-effort source revision (``git describe``), or ``"unknown"``.

    ``-dirty`` marks a tracked file that differs from ``HEAD``.  An edit
    to the file ``ignore`` alone does not count: ``repro bench`` passes
    the history file it appends to, which a checkout may track, so every
    run in a clean checkout records the clean revision.
    """
    out = _git("describe", "--always", "--dirty", "--tags")
    rev = out.stdout.strip() if out is not None else ""
    if out is None or out.returncode != 0 or not rev:
        return "unknown"
    if ignore is not None and rev.endswith("-dirty"):
        # Exit 0: nothing else differs; 1: something does; 128: ``ignore``
        # lies outside the repository, so it cannot be what is dirty.
        rest = _git("diff", "--quiet", "HEAD", "--",
                    f":(exclude){os.path.abspath(ignore)}")
        if rest is not None and rest.returncode == 0:
            rev = rev[: -len("-dirty")]
    return rev


def run_metadata(
    config: object = None, **extra: object
) -> dict[str, object]:
    """Describe one run: config summary, seed, revision, interpreter."""
    meta: dict[str, object] = {
        "type": "run_metadata",
        "git": git_describe(),
        "python": platform.python_version(),
    }
    if config is not None:
        describe = getattr(config, "describe", None)
        meta["config"] = describe() if callable(describe) else str(config)
        seed = getattr(config, "seed", None)
        if seed is not None:
            meta["seed"] = seed
    meta.update(extra)
    return meta


def load_events(
    stream: Iterable[str], skipped: list[dict] | None = None
) -> list[object]:
    """Rebuild the typed events from a :class:`JsonlLogger` stream.

    The one event-log reader: a ``repro run --events`` log and a
    flight-recorder post-mortem both load here.  Every line whose
    ``type`` names a known event dataclass becomes that dataclass again;
    other records (the ``run_metadata`` or ``postmortem`` header,
    adversary ``path_access`` lines) are skipped, and appended to
    ``skipped`` when given, so any log the CLI writes loads cleanly.
    Blank lines are ignored.  A ``type`` this code does not define is
    skipped too, not raised: a log written by older code may hold event
    types since deleted, and one written by newer code types not yet
    known.  Event logs carry no schema number: they are versioned by
    event type, and fields a record lacks take their defaults.
    :func:`~repro.obs.events.event_from_dict` alone raises on an unknown
    type.
    """
    events: list[object] = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        if payload.get("type") in EVENT_BY_NAME:
            events.append(event_from_dict(payload))
        elif skipped is not None:
            skipped.append(payload)
    return events


class JsonlLogger:
    """Bus subscriber that streams events to a JSONL text stream.

    Usable directly as a handler (``bus.subscribe(logger)``) or via the
    :meth:`attach` convenience.  Event dataclasses are flattened with a
    leading ``type`` discriminator field.
    """

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream
        self.lines = 0

    def write_record(self, record: dict[str, object]) -> None:
        """Write one pre-built JSON object as a line."""
        json.dump(record, self.stream, separators=(",", ":"))
        self.stream.write("\n")
        self.lines += 1

    def write_metadata(self, config: object = None, **extra: object) -> None:
        """Write the run-metadata header line."""
        self.write_record(run_metadata(config, **extra))

    def __call__(self, event: object) -> None:
        self.write_record(event_to_dict(event))

    def attach(self, bus: EventBus, *event_types: type) -> None:
        """Subscribe this logger to ``bus`` (optionally filtered)."""
        bus.subscribe(self, *event_types)


class AdversaryTraceWriter:
    """Observer-hook adapter dumping the adversary-visible sequence.

    The ORAM controllers report every externally visible path access as
    ``(kind, leaf, time)`` through their ``observer`` callback — exactly
    the adversary's view in the paper's threat model.  This adapter turns
    that callback into JSONL records (``{"type": "path_access", "kind":
    ..., "leaf": ..., "time": ...}``) via :class:`JsonlLogger`.
    """

    def __init__(self, stream: IO[str]) -> None:
        self.logger = JsonlLogger(stream)

    def __call__(self, observed: tuple[str, int, float]) -> None:
        kind, leaf, time = observed
        self.logger.write_record(
            {"type": "path_access", "kind": kind, "leaf": leaf, "time": time}
        )

    @property
    def lines(self) -> int:
        return self.logger.lines
