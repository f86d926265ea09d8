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
* :mod:`repro.obs.log` — JSONL structured logging with run metadata,
  and the one event-log reader;
* :mod:`repro.obs.aggregate` — cross-process telemetry snapshots and the
  per-worker/rollup merge used by parallel sweeps and shard fleets;
* :mod:`repro.obs.progress` — live sweep progress (TTY status line and
  machine-readable JSONL stream);
* :mod:`repro.obs.slo` — rolling windowed SLO evaluation driving the
  serving layer's healthy/degraded/breached state machine;
* :mod:`repro.obs.export` — Prometheus text-format / newline-JSON
  metrics rendering and the ``--metrics-port`` scrape endpoint;
* :mod:`repro.obs.flightrec` — the bounded crash flight recorder, whose
  post-mortem dumps are event logs that ``repro trace analyze`` replays.

Observability is strictly opt-in: with no subscribers attached the
instrumented hot paths reduce to one attribute test per emission site
and no event objects are ever created.  A subscriber that takes only the
span family leaves every other event family off (``EventBus._detail``).

The package re-exports nothing: import from the submodule that defines a
name.  A simulation then loads :mod:`repro.obs.events` alone, not the
serving stack's exporters (``asyncio``, ``ssl``) it never runs.
"""
