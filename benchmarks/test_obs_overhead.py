"""Observability overhead on the benchmark smoke settings.

Acceptance criterion for the obs layer: with no subscribers attached, an
instrumented ``simulate()`` must be within a few percent of the
uninstrumented path.  Both cases execute the same code (a controller
always owns a bus), so the comparison here pins down the cost of the
emission guards relative to run-to-run timer noise.  Two subscribed
cases put a number on tracing: a span-only run (a ``SpanTracer`` alone,
so only the span family is built) and a metrics-subscribed run (every
event family).

Run directly for the numbers::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -s
"""

from __future__ import annotations

import time

from _support import N_REQUESTS, SEED, make_config

from repro.obs.events import EventBus
from repro.obs.metrics import MetricsCollector
from repro.obs.spans import SpanTracer
from repro.system.simulator import build_miss_trace, simulate

WORKLOAD = "mcf"


def _timed(bus) -> float:
    start = time.perf_counter()
    simulate(
        make_config("dynamic-3"),
        WORKLOAD,
        num_requests=N_REQUESTS,
        seed=SEED,
        bus=bus,
    )
    return time.perf_counter() - start


def _best_of(n: int, bus_factory) -> float:
    return min(_timed(bus_factory()) for _ in range(n))


def test_no_subscriber_overhead_within_three_percent():
    build_miss_trace.cache_clear()
    _timed(None)  # warm-up: miss-trace cache + interpreter
    baseline = _best_of(5, lambda: None)
    unsubscribed = _best_of(5, EventBus)

    def subscribed_bus() -> EventBus:
        bus = EventBus()
        MetricsCollector(bus)
        return bus

    def span_bus() -> EventBus:
        bus = EventBus()
        SpanTracer(bus)
        return bus

    subscribed = _best_of(3, subscribed_bus)
    spans = _best_of(3, span_bus)
    ratio = unsubscribed / baseline
    print(
        f"\nobs overhead on {WORKLOAD} ({N_REQUESTS} requests): "
        f"baseline {baseline:.3f}s, unsubscribed bus {unsubscribed:.3f}s "
        f"({(ratio - 1) * 100:+.1f}%), span-only {spans:.3f}s "
        f"({spans / baseline:.2f}x), metrics-subscribed {subscribed:.3f}s "
        f"({subscribed / baseline:.2f}x)"
    )
    # 3% target plus an absolute floor so sub-second runs aren't judged
    # on scheduler jitter alone.
    assert unsubscribed <= baseline * 1.03 + 0.02, (
        f"unsubscribed-bus run {unsubscribed:.3f}s exceeds 3% over "
        f"baseline {baseline:.3f}s"
    )
