"""Unified observability layer: event bus, metrics, timelines, logs.

``repro.obs`` is the single source of truth for everything the simulator
reports about itself.  The components:

* :mod:`repro.obs.events` — the :class:`~repro.obs.events.EventBus` and
  the typed event taxonomy every stage of the stack emits;
* :mod:`repro.obs.metrics` — counters/gauges/histograms and the
  :class:`~repro.obs.metrics.MetricsCollector` bus subscriber;
* :mod:`repro.obs.spans` — causal per-request span trees with
  cycle-exact latency attribution and a host wall clock on every span
  (:class:`~repro.obs.spans.SpanTracer`); the one host-time instrument,
  which ``repro trace analyze`` and ``repro profile`` report from;
* :mod:`repro.obs.timeline` — Chrome trace-event (Perfetto) export;
* :mod:`repro.obs.log` — JSONL structured logging with run metadata;
* :mod:`repro.obs.aggregate` — cross-process telemetry snapshots and the
  per-worker/rollup merge used by parallel sweeps and shard fleets;
* :mod:`repro.obs.progress` — live sweep progress (TTY status line and
  machine-readable JSONL stream);
* :mod:`repro.obs.slo` — rolling windowed SLO evaluation driving the
  serving layer's healthy/degraded/breached state machine;
* :mod:`repro.obs.export` — Prometheus text-format / newline-JSON
  metrics rendering and the ``--metrics-port`` scrape endpoint;
* :mod:`repro.obs.flightrec` — the bounded crash flight recorder whose
  post-mortem dumps ``repro trace analyze`` replays.

Observability is strictly opt-in: with no subscribers attached the
instrumented hot paths reduce to one attribute test per emission site
and no event objects are ever created.  A subscriber that takes only the
span family leaves every other event family off (``EventBus._detail``).
"""

from repro.obs.aggregate import merge_snapshot, snapshot_registry
from repro.obs.events import (
    EVENT_BY_NAME,
    EVENT_TYPES,
    BlockServed,
    DuplicationPlaced,
    EventBus,
    HotAddressTouched,
    PartitionAdjusted,
    RequestCompleted,
    ServeRequestServed,
    ShardRecovered,
    SloStateChanged,
    SlotAligned,
    SpanFinished,
    SpanStarted,
    StashOccupancy,
    SweepPointFailed,
    SweepPointFinished,
    SweepPointRetried,
    SweepPointStarted,
    event_from_dict,
    event_to_dict,
)
from repro.obs.export import (
    MetricsEndpoint,
    render_json_lines,
    render_prometheus,
)
from repro.obs.flightrec import (
    FlightRecorder,
    is_postmortem,
    load_postmortem,
    load_postmortem_traces,
    traces_from_events,
)
from repro.obs.log import (
    AdversaryTraceWriter,
    JsonlLogger,
    load_events,
    run_metadata,
)
from repro.obs.metrics import MetricsCollector, MetricsRegistry
from repro.obs.progress import (
    ProgressJsonlWriter,
    ProgressReporter,
    SweepProgress,
)
from repro.obs.slo import SloMonitor, parse_slo_spec
from repro.obs.spans import (
    SPAN_PHASES,
    Span,
    SpanTrace,
    SpanTracer,
    exclusive_by_phase,
    load_traces,
    parse_sample_spec,
    render_tree,
    top_slowest,
    validate_trace,
)
from repro.obs.timeline import TimelineBuilder

__all__ = [
    "AdversaryTraceWriter",
    "BlockServed",
    "EVENT_BY_NAME",
    "EVENT_TYPES",
    "DuplicationPlaced",
    "EventBus",
    "FlightRecorder",
    "HotAddressTouched",
    "JsonlLogger",
    "MetricsCollector",
    "MetricsEndpoint",
    "MetricsRegistry",
    "PartitionAdjusted",
    "ProgressJsonlWriter",
    "ProgressReporter",
    "RequestCompleted",
    "SPAN_PHASES",
    "ServeRequestServed",
    "ShardRecovered",
    "SloMonitor",
    "SloStateChanged",
    "SlotAligned",
    "Span",
    "SpanFinished",
    "SpanStarted",
    "SpanTrace",
    "SpanTracer",
    "StashOccupancy",
    "SweepProgress",
    "SweepPointFailed",
    "SweepPointFinished",
    "SweepPointRetried",
    "SweepPointStarted",
    "TimelineBuilder",
    "event_from_dict",
    "event_to_dict",
    "exclusive_by_phase",
    "is_postmortem",
    "load_events",
    "load_postmortem",
    "load_postmortem_traces",
    "load_traces",
    "merge_snapshot",
    "parse_sample_spec",
    "parse_slo_spec",
    "render_json_lines",
    "render_prometheus",
    "render_tree",
    "run_metadata",
    "snapshot_registry",
    "top_slowest",
    "traces_from_events",
    "validate_trace",
]
