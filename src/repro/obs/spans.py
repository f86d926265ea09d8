"""Causal per-request span trees with cycle-exact latency attribution.

The flat event stream answers "what happened"; this module answers *where
a specific request's cycles went*.  A :class:`SpanTracer` subscribes to
the bus and assembles, for every LLC-miss request (and every dummy and
eviction), a **span tree**: a trace id, parent/child links, and dual
clocks — simulated cycles (carried in the events) and host wall time
(stamped at event receipt).  Phases follow the glossary in
:data:`SPAN_PHASES`: scheduler queueing, timing-protection stall, ORAM
access, path read (treetop/XOR-aware DRAM streaming), stash scan, Merkle
verify/heal, shadow-dup service, eviction read/write/shadow-fill.

Emission protocol
-----------------
Instrumentation sites emit :class:`~repro.obs.events.SpanStarted` /
:class:`~repro.obs.events.SpanFinished` pairs behind the
``if bus._subs:`` guard, so an untraced run constructs no event objects
and stays bit-identical to one that never imported this module.  The
tracer subscribes to the span family only, so a span-only bus keeps
``bus._detail`` off and builds no other event.  Because
the simulator is single-threaded, emission order equals host execution
order equals nesting order, so the tracer needs only a stack:

* a ``SpanStarted`` whose name is in :data:`ROOT_SPAN_NAMES` — or any
  start on an empty stack — opens a **new trace** (dummies fired inside a
  real request's slot wait are causally independent traces, not children);
* every other ``SpanStarted`` pushes a child of the innermost open span;
* ``SpanFinished`` closes the innermost open span (strictly LIFO);
* a :class:`~repro.obs.events.RequestCompleted` arriving while a trace is
  open annotates that trace with the request's address/op/source/latency.

The cycle-exact invariant
-------------------------
Every span's *exclusive* time is its duration minus the summed durations
of its direct children.  For a well-formed tree the exclusive times over
the whole tree telescope to exactly the root duration::

    sum(exclusive(s) for s in tree) == root.end - root.start

:func:`validate_trace` checks this with :class:`fractions.Fraction`
arithmetic (every float is an exact binary rational, so the identity is
checked with zero rounding error), plus the structural properties that
give the identity its meaning: children lie within their parent and
non-zero-width siblings never overlap.

Sampling
--------
``SpanTracer(bus, sample_every=N)`` keeps every ``N``-th trace,
deterministically (trace sequence number modulo ``N`` — no RNG is ever
consumed, so sampling cannot perturb the simulation).

Reading trace files
-------------------
:func:`load_traces` reads every file that carries spans.  A ``repro run
--spans`` file holds finished trees, one per line.  A ``repro run
--events`` log and a flight-recorder post-mortem hold the raw event
stream; :func:`traces_from_events` replays it through a fresh tracer,
so their spans carry host wall stamps from the replay, not the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import IO, Iterable

from repro.obs.events import (
    EventBus,
    RequestCompleted,
    SpanFinished,
    SpanStarted,
)
from repro.obs.log import load_events

# Span names that always open a new trace, even when another trace is
# still open on the stack (a timing-protection dummy fires *during* a real
# request's slot wait but is not part of that request's critical path).
ROOT_SPAN_NAMES = frozenset({"request", "dummy"})

# Span names that may anchor a trace rebuilt from events.  In serve mode
# nothing wraps the controller, so its topmost ``oram_access`` span is
# the root a server's event stream holds.
ANCHOR_SPAN_NAMES = frozenset(ROOT_SPAN_NAMES | {"oram_access"})

# Phase glossary: span name -> what the phase covers.  Kept here (not in
# docs) so `trace analyze` and DESIGN.md render from one source of truth.
SPAN_PHASES: dict[str, str] = {
    "request": "root: one LLC miss or writeback, ready -> backend free",
    "dummy": "root: one timing-protection dummy ORAM request",
    "queue": "wait for a busy controller (timing protection off)",
    "stall": "timing-protection slot-alignment wait (Fletcher-style)",
    "oram_access": "one controller access() / dummy_access() call",
    "stash_scan": "on-chip lookup + per-path-read stash absorption",
    "merkle": "integrity work: verify / heal / update / scrub",
    "path_read": "demand or dummy RO path read (treetop/XOR timing)",
    "eviction": "RW eviction envelope (read + write of one path)",
    "eviction_read": "eviction path read (absorbs all real blocks)",
    "eviction_write": "eviction path write-back",
    "shadow_fill": "RD/HD-queue duplication into dummy slots",
    "shadow_serve": "marker: data served early from a shadow copy",
    "dram_read": "DRAM internal streaming stage of a path read",
    "dram_write": "DRAM streaming stage of a path write",
    "reshuffle": "Ring ORAM bucket reshuffle",
}


class Span:
    """One phase of one trace, with dual clocks and child links.

    ``start``/``end`` are simulated cycles; ``wall_start``/``wall_end``
    are host ``perf_counter`` seconds stamped when the begin/finish events
    were received (zero-cycle spans still accumulate real wall time —
    that is the point of the second clock).
    """

    __slots__ = (
        "name", "start", "end", "wall_start", "wall_end",
        "addr", "detail", "children",
    )

    def __init__(
        self,
        name: str,
        start: float,
        end: float = 0.0,
        wall_start: float = 0.0,
        wall_end: float = 0.0,
        addr: int = -1,
        detail: str = "",
        children: list["Span"] | None = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.wall_start = wall_start
        self.wall_end = wall_end
        self.addr = addr
        self.detail = detail
        self.children: list[Span] = children if children is not None else []

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Simulated-cycle duration (0.0 for marker spans)."""
        return self.end - self.start

    @property
    def wall_duration(self) -> float:
        """Host wall-clock seconds between begin and finish receipt."""
        return self.wall_end - self.wall_start

    def exclusive(self) -> Fraction:
        """Exact exclusive cycles: duration minus direct children."""
        excl = Fraction(self.end) - Fraction(self.start)
        for child in self.children:
            excl -= Fraction(child.end) - Fraction(child.start)
        return excl

    def walk(self) -> Iterable["Span"]:
        """Depth-first pre-order iteration over the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
        }
        if self.addr != -1:
            out["addr"] = self.addr
        if self.detail:
            out["detail"] = self.detail
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @staticmethod
    def from_dict(payload: dict[str, object]) -> "Span":
        return Span(
            name=str(payload["name"]),
            start=float(payload["start"]),
            end=float(payload["end"]),
            wall_start=float(payload.get("wall_start", 0.0)),
            wall_end=float(payload.get("wall_end", 0.0)),
            addr=int(payload.get("addr", -1)),
            detail=str(payload.get("detail", "")),
            children=[
                Span.from_dict(c) for c in payload.get("children", [])
            ],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, [{self.start}, {self.end}], "
            f"children={len(self.children)})"
        )


@dataclass(slots=True)
class SpanTrace:
    """One completed trace: a root span plus request-level annotations.

    ``annotated`` is ``True`` once a ``RequestCompleted`` event filled the
    request fields; traces for bare eviction/merkle activity outside any
    request keep their defaults.
    """

    trace_id: int
    core: int
    root: Span
    addr: int = -1
    op: str = ""
    served_from: str = ""
    issue: float = 0.0
    data_ready: float = 0.0
    finish: float = 0.0
    latency: float = 0.0
    evicted: bool = False
    annotated: bool = False

    @property
    def kind(self) -> str:
        return self.root.name

    @property
    def duration(self) -> float:
        """Root span duration: the request's full occupancy window."""
        return self.root.duration

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "core": self.core,
            "addr": self.addr,
            "op": self.op,
            "served_from": self.served_from,
            "issue": self.issue,
            "data_ready": self.data_ready,
            "finish": self.finish,
            "latency": self.latency,
            "evicted": self.evicted,
            "annotated": self.annotated,
            "root": self.root.to_dict(),
        }

    @staticmethod
    def from_dict(payload: dict[str, object]) -> "SpanTrace":
        return SpanTrace(
            trace_id=int(payload["trace_id"]),
            core=int(payload.get("core", -1)),
            root=Span.from_dict(payload["root"]),
            addr=int(payload.get("addr", -1)),
            op=str(payload.get("op", "")),
            served_from=str(payload.get("served_from", "")),
            issue=float(payload.get("issue", 0.0)),
            data_ready=float(payload.get("data_ready", 0.0)),
            finish=float(payload.get("finish", 0.0)),
            latency=float(payload.get("latency", 0.0)),
            evicted=bool(payload.get("evicted", False)),
            annotated=bool(payload.get("annotated", False)),
        )


@dataclass(slots=True)
class _OpenTrace:
    """Bookkeeping for one trace still being assembled."""

    record: SpanTrace
    stack: list[Span] = field(default_factory=list)
    sampled: bool = True


def parse_sample_spec(text: str) -> int:
    """Parse a ``--trace-sample`` value: ``"8"`` or ``"1/8"`` -> 8."""
    spec = text.strip()
    if spec.startswith("1/"):
        spec = spec[2:]
    try:
        every = int(spec)
    except ValueError as exc:
        raise ValueError(
            f"trace sample must be an integer N or '1/N', got {text!r}"
        ) from exc
    if every < 1:
        raise ValueError(f"trace sample must be >= 1, got {text!r}")
    return every


class SpanTracer:
    """Bus subscriber assembling completed span trees.

    Args:
        bus: The observability bus the simulation emits onto.
        sample_every: Keep one trace in ``sample_every`` (deterministic:
            trace sequence number modulo ``sample_every``; no RNG used).
    """

    def __init__(self, bus: EventBus, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.traces: list[SpanTrace] = []
        self.dropped = 0
        self._open: list[_OpenTrace] = []
        self._seq = 0
        bus.subscribe(
            self._on_event, SpanStarted, SpanFinished, RequestCompleted
        )

    def __len__(self) -> int:
        return len(self.traces)

    # ------------------------------------------------------------------
    def _on_event(self, event: object) -> None:
        wall = perf_counter()
        if type(event) is SpanStarted:
            span = Span(
                name=event.name,
                start=event.ts,
                wall_start=wall,
                addr=event.addr,
                detail=event.detail,
            )
            if event.name in ROOT_SPAN_NAMES or not self._open:
                sampled = self._seq % self.sample_every == 0
                self._seq += 1
                record = SpanTrace(
                    trace_id=self._seq - 1, core=-1, root=span
                )
                self._open.append(
                    _OpenTrace(record=record, stack=[span], sampled=sampled)
                )
                return
            trace = self._open[-1]
            trace.stack[-1].children.append(span)
            trace.stack.append(span)
        elif type(event) is SpanFinished:
            if not self._open:
                raise RuntimeError(
                    f"SpanFinished({event.name!r}) with no open trace"
                )
            trace = self._open[-1]
            span = trace.stack.pop()
            if span.name != event.name:
                raise RuntimeError(
                    f"span close mismatch: open {span.name!r}, "
                    f"got SpanFinished({event.name!r})"
                )
            span.end = event.ts
            span.wall_end = wall
            if event.detail:
                span.detail = (
                    f"{span.detail},{event.detail}"
                    if span.detail
                    else event.detail
                )
            if not trace.stack:
                self._open.pop()
                if trace.sampled:
                    self._keep(trace.record)
                else:
                    self.dropped += 1
        elif type(event) is RequestCompleted:
            if not self._open:
                return
            record = self._open[-1].record
            served = event.served_from
            if served is None:
                served = "dummy" if event.op == "dummy" else "unknown"
            record.addr = event.addr
            record.op = event.op
            record.served_from = served
            record.issue = event.issue
            record.data_ready = event.data_ready
            record.finish = event.finish
            record.latency = event.data_ready - event.issue
            record.evicted = event.evicted
            if event.core != -1:
                record.core = event.core
            record.annotated = True

    def _keep(self, record: SpanTrace) -> None:
        """Take one finished, sampled trace (subclasses may fold it)."""
        self.traces.append(record)

    # ------------------------------------------------------------------
    def feed_metrics(self, registry) -> None:
        """Merge per-phase exclusive-cycle histograms into ``registry``.

        Adds ``spans/exclusive/<phase>`` histograms (p50/p95/p99 come from
        :meth:`~repro.obs.metrics.Histogram.percentile` via ``to_dict``),
        per-kind trace counters and the invariant-violation count, so
        ``--metrics`` output carries the span attribution.
        """
        from repro.obs.metrics import LATENCY_BUCKETS

        registry.counter("spans/dropped").inc(self.dropped)
        violations = 0
        for trace in self.traces:
            registry.counter(f"spans/traces/{trace.kind}").inc()
            if validate_trace(trace):
                violations += 1
            for phase, excl in exclusive_by_phase(trace.root).items():
                registry.histogram(
                    f"spans/exclusive/{phase}", LATENCY_BUCKETS
                ).observe(float(excl))
        registry.counter("spans/invariant_violations").inc(violations)

    # ------------------------------------------------------------------
    def write_jsonl(self, stream: IO[str]) -> None:
        """One meta line, then one completed trace per line."""
        meta = {
            "meta": {
                "sample_every": self.sample_every,
                "traces": len(self.traces),
                "dropped": self.dropped,
            }
        }
        stream.write(json.dumps(meta) + "\n")
        for trace in self.traces:
            stream.write(
                json.dumps(trace.to_dict(), separators=(",", ":")) + "\n"
            )


def traces_from_events(events: list[object]) -> list[SpanTrace]:
    """Reassemble the completed span traces of a (possibly torn) stream.

    Skips to the first anchor ``SpanStarted`` so the tracer's LIFO stack
    never opens mid-trace (a flight-recorder ring truncates at its head);
    a torn nesting further in resets the assembly at the next anchor
    instead of failing the whole replay.  An unfinished tail trace is
    dropped, and the tracer ignores events outside the span family.
    """
    traces: list[SpanTrace] = []
    bus = EventBus()
    tracer = SpanTracer(bus)
    started = False
    for event in events:
        if not started:
            if type(event) is not SpanStarted:
                continue
            if event.name not in ANCHOR_SPAN_NAMES:
                continue
            started = True
        try:
            bus.emit(event)
        except RuntimeError:
            traces.extend(tracer.traces)
            bus = EventBus()
            tracer = SpanTracer(bus)
            started = False
    traces.extend(tracer.traces)
    return traces


def load_traces(
    source: IO[str] | str | Path,
) -> tuple[list[SpanTrace], int]:
    """Every span trace in a trace file, and the number of events read.

    Accepts a path or an open text stream.  Span-tree lines (written by
    :meth:`SpanTracer.write_jsonl`) load as trees; event lines (a
    ``--events`` log, a flight-recorder post-mortem) load through
    :func:`~repro.obs.log.load_events` and replay through
    :func:`traces_from_events`.  Header and unknown lines are skipped:
    the ``run_metadata`` and ``postmortem`` records, a span file's
    ``{"meta": ...}`` line, and the ``{"meta": ...}`` header that
    post-mortems carried before they were event logs.  A nonzero event
    count means replayed spans, whose wall stamps do not time the run.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            return load_traces(stream)
    records: list[dict] = []
    events = load_events(source, records)
    trees = [SpanTrace.from_dict(r) for r in records if "root" in r]
    return trees + traces_from_events(events), len(events)


# ----------------------------------------------------------------------
# Analysis: the cycle-exact invariant and phase attribution
# ----------------------------------------------------------------------
def validate_trace(trace: SpanTrace) -> list[str]:
    """Check one trace's structural + cycle-exact invariants.

    Returns a list of human-readable problems (empty == valid):

    * every span closes at or after it opens;
    * children lie inside their parent's ``[start, end]`` window;
    * non-zero-width siblings are chronologically ordered and disjoint;
    * every span's exclusive time is non-negative;
    * the exclusive times over the whole tree sum *exactly* (checked in
      :class:`~fractions.Fraction` arithmetic) to the root duration.
    """
    problems: list[str] = []

    def visit(span: Span) -> None:
        if span.end < span.start:
            problems.append(
                f"{span.name}: negative duration [{span.start}, {span.end}]"
            )
        prev_end: float | None = None
        for child in span.children:
            if child.start < span.start or child.end > span.end:
                problems.append(
                    f"{child.name} [{child.start}, {child.end}] escapes "
                    f"parent {span.name} [{span.start}, {span.end}]"
                )
            if child.end > child.start:
                if prev_end is not None and child.start < prev_end:
                    problems.append(
                        f"{child.name} overlaps a sibling in {span.name} "
                        f"(starts {child.start} before {prev_end})"
                    )
                prev_end = child.end
            visit(child)
        if span.exclusive() < 0:
            problems.append(
                f"{span.name}: children overflow parent "
                f"(exclusive {float(span.exclusive())})"
            )

    root = trace.root
    visit(root)
    total = sum(
        (span.exclusive() for span in root.walk()), start=Fraction(0)
    )
    duration = Fraction(root.end) - Fraction(root.start)
    if total != duration:
        problems.append(
            f"exclusive sum {float(total)} != root duration "
            f"{float(duration)} (trace {trace.trace_id})"
        )
    return problems


def exclusive_by_phase(root: Span) -> dict[str, Fraction]:
    """Exact exclusive cycles per phase name over one tree."""
    out: dict[str, Fraction] = {}
    for span in root.walk():
        out[span.name] = out.get(span.name, Fraction(0)) + span.exclusive()
    return out


def top_slowest(traces: list[SpanTrace], k: int) -> list[SpanTrace]:
    """The ``k`` slowest annotated request traces (by recorded latency).

    Dummy traces are excluded — their "latency" is scheduler-imposed, not
    experienced by the CPU.  Falls back to root duration for unannotated
    traces so standalone-controller captures still rank sensibly.
    """
    requests = [t for t in traces if t.kind != "dummy"]
    return sorted(
        requests,
        key=lambda t: (t.latency if t.annotated else t.duration),
        reverse=True,
    )[:k]


def render_tree(trace: SpanTrace) -> str:
    """ASCII rendering of one span tree (cycles + exclusive + wall us)."""
    lines: list[str] = []
    head = f"trace #{trace.trace_id} {trace.kind}"
    if trace.annotated:
        head += (
            f" addr={trace.addr} op={trace.op}"
            f" served_from={trace.served_from}"
            f" latency={trace.latency:g}cy"
        )
    if trace.core != -1:
        head += f" core={trace.core}"
    lines.append(head)

    def visit(span: Span, prefix: str, tail: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if tail else "├─ ")
        label = (
            f"{span.name} [{span.start:g} .. {span.end:g}]"
            f" {span.duration:g}cy excl={float(span.exclusive()):g}cy"
            f" wall={span.wall_duration * 1e6:.1f}us"
        )
        if span.detail:
            label += f" ({span.detail})"
        lines.append(prefix + connector + label)
        child_prefix = prefix if is_root else prefix + ("   " if tail else "│  ")
        for i, child in enumerate(span.children):
            visit(child, child_prefix, i == len(span.children) - 1, False)

    visit(trace.root, "", True, True)
    return "\n".join(lines)
