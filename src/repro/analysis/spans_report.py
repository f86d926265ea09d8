"""Span-trace analysis: phase attribution and per-request breakdowns.

This module is the reporting half of :mod:`repro.obs.spans`: given the
traces :func:`~repro.obs.spans.load_traces` read from a ``repro run
--spans`` file, a ``--events`` log or a flight-recorder post-mortem,
:func:`analyze` computes

* a **phase attribution report** — exclusive cycles per phase across all
  traces (cycle-exact: per trace the exclusive times sum to the root
  duration, so attributed cycles across a run add up to total traced
  occupancy with zero residue), next to exclusive host seconds per phase
  from the spans' wall clocks;
* a **per-request latency breakdown** — request counts and latency
  percentiles grouped by serving source, fed through the shared
  :class:`~repro.obs.metrics.Histogram` ladder;
* the **invariant audit** — every tree re-checked against the structural
  and cycle-exact rules of :func:`~repro.obs.spans.validate_trace`;
* the **top-K slowest requests**, each rendered as an ASCII span tree.

:func:`analyze` returns the ``--json`` payload; :func:`render_report`
renders that payload as text and computes nothing of its own.  ``python
-m repro trace analyze`` is a thin CLI shell over the two; tests drive
the same entry point.  ``python -m repro profile`` is
:func:`host_profile`: a span-traced run whose trees are folded into
per-phase host seconds as they finish.
"""

from __future__ import annotations

from fractions import Fraction
from math import fsum
from time import perf_counter

from repro.analysis.report import format_table
from repro.obs.events import EventBus
from repro.obs.metrics import LATENCY_BUCKETS, Histogram
from repro.obs.spans import (
    SPAN_PHASES,
    Span,
    SpanTrace,
    SpanTracer,
    exclusive_by_phase,
    render_tree,
    top_slowest,
    validate_trace,
)
from repro.system.config import SystemConfig
from repro.system.metrics import SimulationResult
from repro.system.simulator import SystemSimulator, build_miss_trace


def phase_attribution(traces: list[SpanTrace]) -> dict[str, Fraction]:
    """Total exclusive cycles per phase over all traces (exact)."""
    totals: dict[str, Fraction] = {}
    for trace in traces:
        for phase, excl in exclusive_by_phase(trace.root).items():
            totals[phase] = totals.get(phase, Fraction(0)) + excl
    return totals


def host_by_phase(
    traces: list[SpanTrace], totals: dict[str, float] | None = None
) -> dict[str, float]:
    """Exclusive host seconds per phase over all traces.

    A span's exclusive host time is its wall duration minus its direct
    children's.  A root that opened while another trace was still open
    (a timing-protection dummy fired during a request's slot wait) also
    lies inside that trace's wall window, so its wall time is subtracted
    from the span that was open around it: no host second counts twice.
    Adds into ``totals`` when given.
    """
    if totals is None:
        totals = {}
    stack = [trace.root for trace in traces]
    while stack:
        span = stack.pop()
        excl = span.wall_end - span.wall_start
        for child in span.children:
            excl -= child.wall_end - child.wall_start
            stack.append(child)
        totals[span.name] = totals.get(span.name, 0.0) + excl
    if len(traces) > 1:
        # Single-threaded emission makes root wall windows nested or
        # disjoint, so one sweep in start order finds each encloser.
        roots = sorted(
            (trace.root for trace in traces),
            key=lambda root: (root.wall_start, -root.wall_end),
        )
        open_roots: list[Span] = []
        for root in roots:
            while open_roots and open_roots[-1].wall_end <= root.wall_start:
                open_roots.pop()
            if open_roots:
                host = _enclosing_span(open_roots[-1], root)
                totals[host.name] -= root.wall_duration
            open_roots.append(root)
    return totals


def _enclosing_span(span: Span, inner: Span) -> Span:
    """The deepest span under ``span`` whose wall window holds ``inner``."""
    while True:
        for child in span.children:
            if (
                child.wall_start <= inner.wall_start
                and inner.wall_end <= child.wall_end
            ):
                span = child
                break
        else:
            return span


class PhaseHostTracer(SpanTracer):
    """A span tracer that keeps per-phase host seconds instead of trees.

    Finished traces are held only until no trace is open around them (a
    request plus the dummies fired inside it), then folded through
    :func:`host_by_phase` into :attr:`seconds` and dropped.
    """

    def __init__(self, bus: EventBus) -> None:
        super().__init__(bus)
        self.seconds: dict[str, float] = {}
        self._group: list[SpanTrace] = []

    def _keep(self, record: SpanTrace) -> None:
        self._group.append(record)
        if not self._open:
            host_by_phase(self._group, self.seconds)
            self._group.clear()


def host_profile(
    config: SystemConfig,
    workload_name: str,
    num_requests: int = 20_000,
    seed: int | None = None,
) -> tuple[dict[str, float], SimulationResult]:
    """Run one span-traced simulation and name where its host time went.

    Returns ``(seconds_by_stage, result)``.  The stages are the span
    phases (exclusive host seconds), ``trace build`` (workload generation
    and cache filtering, timed with the miss-trace cache cleared) and
    ``frontend``: the rest of :meth:`SystemSimulator.run` outside any
    request or dummy root (backend build, the scheduling loop, result
    aggregation).  They sum to the host time of the whole run, and the
    result equals an untraced run's.
    """
    if seed is None:
        seed = config.seed
    bus = EventBus()
    tracer = PhaseHostTracer(bus)
    sim = SystemSimulator(config, bus=bus)
    build_miss_trace.cache_clear()
    start = perf_counter()
    sim._per_core_traces(workload_name, num_requests, seed)
    built = perf_counter()
    result = sim.run(workload_name, num_requests=num_requests, seed=seed)
    done = perf_counter()
    stages = dict(tracer.seconds)
    stages["trace build"] = built - start
    stages["frontend"] = (done - built) - sum(tracer.seconds.values())
    return stages, result


def latency_histograms(traces: list[SpanTrace]) -> dict[str, Histogram]:
    """Per-serving-source latency histograms over annotated request traces.

    Unannotated traces (e.g. the insecure backend, which has no
    ``RequestCompleted`` emitter) fall back to the root span's duration
    under the source key ``"untracked"``.
    """
    hists: dict[str, Histogram] = {}
    for trace in traces:
        if trace.kind == "dummy":
            continue
        if trace.annotated:
            key, value = trace.served_from or "unknown", trace.latency
        else:
            key, value = "untracked", trace.duration
        hist = hists.get(key)
        if hist is None:
            hist = hists[key] = Histogram(LATENCY_BUCKETS)
        hist.observe(value)
    return hists


def audit(traces: list[SpanTrace]) -> list[tuple[SpanTrace, list[str]]]:
    """Re-validate every trace; returns the offenders with their problems."""
    failures = []
    for trace in traces:
        problems = validate_trace(trace)
        if problems:
            failures.append((trace, problems))
    return failures


def analyze(
    traces: list[SpanTrace], top: int = 5, host: bool = True
) -> dict[str, object]:
    """Machine-readable analysis of one trace file (the ``--json`` shape).

    ``host=False`` leaves out host seconds, for traces whose wall stamps
    do not measure the run (a flight-recorder post-mortem is stamped when
    its ring is replayed).
    """
    kinds: dict[str, int] = {}
    for trace in traces:
        kinds[trace.kind] = kinds.get(trace.kind, 0) + 1
    phases = phase_attribution(traces)
    total = sum(phases.values(), start=Fraction(0))
    seconds = host_by_phase(traces) if host else {}
    attribution: dict[str, dict[str, object]] = {}
    for phase, excl in sorted(phases.items(), key=lambda kv: -kv[1]):
        row: dict[str, object] = {
            "exclusive_cycles": float(excl),
            "share": float(excl / total) if total else 0.0,
        }
        if host:
            row["host_seconds"] = seconds[phase]
        row["meaning"] = SPAN_PHASES.get(phase, "")
        attribution[phase] = row
    failures = audit(traces)
    return {
        "traces": len(traces),
        "kinds": dict(sorted(kinds.items())),
        "phase_attribution": attribution,
        "latency_by_source": {
            source: hist.to_dict()
            for source, hist in sorted(latency_histograms(traces).items())
        },
        "invariant": {
            "checked": len(traces),
            "violations": len(failures),
            "problems": [
                {"trace_id": trace.trace_id, "problems": problems}
                for trace, problems in failures[:20]
            ],
        },
        "top_slowest": [
            trace.to_dict() for trace in top_slowest(traces, top)
        ],
    }


def render_report(payload: dict[str, object]) -> str:
    """Human-readable rendering of an :func:`analyze` payload.

    The text report and ``--json`` come from one computation.  Host
    seconds appear when the payload carries them.
    """
    sections: list[str] = []
    summary = ", ".join(f"{n} {k}" for k, n in payload["kinds"].items())
    sections.append(f"{payload['traces']} trace(s): {summary or 'none'}")

    phases = payload["phase_attribution"]
    host = all("host_seconds" in row for row in phases.values())
    total = fsum(row["exclusive_cycles"] for row in phases.values())
    rows = []
    for phase, row in phases.items():
        cells = [
            phase,
            f"{row['exclusive_cycles']:,.0f}",
            f"{row['share']:.1%}" if total else "-",
        ]
        if host:
            cells.append(f"{row['host_seconds']:.4f}")
        rows.append(cells + [row["meaning"]])
    totals = ["total", f"{total:,.0f}", "100.0%"]
    headers = ["phase", "exclusive cycles", "share"]
    title = "Phase attribution (exclusive cycles, cycle-exact)"
    if host:
        host_total = fsum(row["host_seconds"] for row in phases.values())
        totals.append(f"{host_total:.4f}")
        headers.append("host s")
        title = (
            "Phase attribution (exclusive cycles, cycle-exact; "
            "exclusive host seconds)"
        )
    rows.append(totals + [""])
    sections.append(format_table(headers + ["covers"], rows, title=title))

    latency = payload["latency_by_source"]
    if latency:
        rows = [
            [
                source,
                hist["total"],
                f"{hist['mean']:,.0f}",
                f"{hist['p50']:,.0f}",
                f"{hist['p95']:,.0f}",
                f"{hist['p99']:,.0f}",
            ]
            for source, hist in latency.items()
        ]
        sections.append(format_table(
            ["served from", "requests", "mean", "p50", "p95", "p99"], rows,
            title="Request latency breakdown (cycles, by serving source)",
        ))

    invariant = payload["invariant"]
    if invariant["violations"]:
        lines = [
            f"INVARIANT VIOLATIONS: {invariant['violations']} of "
            f"{invariant['checked']} trace(s) failed validation"
        ]
        for failure in invariant["problems"][:10]:
            lines.append(
                f"  trace #{failure['trace_id']}: {failure['problems'][0]}"
            )
        sections.append("\n".join(lines))
    else:
        sections.append(
            f"invariant check: all {invariant['checked']} trace(s) satisfy "
            "sum(exclusive) == root duration (cycle-exact)"
        )

    slowest = payload["top_slowest"]
    if slowest:
        lines = [f"Top {len(slowest)} slowest request(s):"]
        for trace in slowest:
            lines.append(render_tree(SpanTrace.from_dict(trace)))
            lines.append("")
        sections.append("\n".join(lines).rstrip())

    return "\n\n".join(sections)
