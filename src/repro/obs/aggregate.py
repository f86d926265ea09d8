"""Cross-process telemetry aggregation.

The PR 1 observability layer only sees the process it runs in: once a
sweep fans grid points out to ``ProcessPoolExecutor`` workers, every
counter and histogram generated inside a worker would be silently
dropped.  This module closes that gap:

* each worker runs its own :class:`~repro.obs.metrics.MetricsRegistry`
  (fed by a private :class:`~repro.obs.metrics.MetricsCollector`) and
  ships a plain-dict :func:`snapshot_registry` snapshot back alongside
  its ``SimulationResult``;
* the parent :class:`~repro.analysis.engine.SweepRunner` keeps the
  snapshot of every point that resolved to a result.  Only a point's one
  successful attempt ships a snapshot, so crash/timeout retries can never
  double-count;
* at the end of the sweep :func:`merge_labeled_snapshots` merges them
  into the parent registry twice: once under per-worker
  ``worker/<n>/...`` prefixes and once as un-prefixed cross-worker
  rollups, with merge semantics per instrument type (counter sum, gauge
  watermark union, histogram bucket add).

The runner merges snapshots in sorted point-key order and relabels raw
worker ids (PIDs) to dense ``worker/<n>`` indices, so the *rollup*
instruments of a parallel sweep are bit-identical to a serial run of the
same grid — only the per-worker breakdown depends on scheduling.  The
sharded serve path merges its shard registries the same way, under
``shard/<k>/`` plus a ``fleet/`` rollup.

Snapshots are JSON-safe dicts rendered through the same canonical-codec
conventions as :mod:`repro.serialize` (no ``inf``/``nan``, containers of
scalars only), so they survive both pickling across the pool boundary
and JSON export.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.metrics import MetricsRegistry

# Versions the snapshot dict layout; a mismatch is ignored rather than
# mis-merged (forward compatibility across mixed-version worker pools).
SNAPSHOT_SCHEMA = 1


class TelemetryMergeError(ValueError):
    """Raised when two snapshots disagree about an instrument's shape."""


def snapshot_registry(registry: MetricsRegistry) -> dict[str, object]:
    """Render a registry as a picklable, JSON-safe snapshot dict.

    Empty gauges are serialized with ``updates == 0`` and no watermarks,
    so the snapshot never contains ``inf`` (which the canonical JSON
    codec rejects).
    """
    gauges: dict[str, dict[str, float]] = {}
    for name, gauge in sorted(registry._gauges.items()):
        if gauge.updates:
            gauges[name] = {
                "value": gauge.value,
                "min": gauge.min,
                "max": gauge.max,
                "updates": gauge.updates,
            }
        else:
            gauges[name] = {"updates": 0}
    return {
        "schema": SNAPSHOT_SCHEMA,
        "counters": {
            name: counter.value
            for name, counter in sorted(registry._counters.items())
        },
        "gauges": gauges,
        "histograms": {
            name: {
                "bounds": list(hist.bounds),
                "counts": list(hist.counts),
                "total": hist.total,
                "sum": hist.sum,
            }
            for name, hist in sorted(registry._histograms.items())
        },
    }


def merge_snapshot(
    registry: MetricsRegistry, snapshot: dict[str, object], prefix: str = ""
) -> None:
    """Merge one snapshot into ``registry`` under an optional prefix.

    Merge semantics per instrument type:

    * **counter** — sum;
    * **gauge** — watermark union (min of mins, max of maxes, updates
      summed; ``value`` is the last snapshot merged, deterministic
      because callers iterate snapshots in sorted-key order);
    * **histogram** — per-bucket count addition; the bucket ladders must
      be identical or :class:`TelemetryMergeError` is raised.
    """
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        return
    for name, value in snapshot.get("counters", {}).items():
        registry.counter(prefix + name).inc(int(value))
    for name, snap in snapshot.get("gauges", {}).items():
        if not snap.get("updates"):
            # Instantiate the (empty) gauge so the namespace is complete.
            registry.gauge(prefix + name)
            continue
        gauge = registry.gauge(prefix + name)
        gauge.value = snap["value"]
        gauge.updates += int(snap["updates"])
        if snap["min"] < gauge.min:
            gauge.min = snap["min"]
        if snap["max"] > gauge.max:
            gauge.max = snap["max"]
    for name, snap in snapshot.get("histograms", {}).items():
        bounds = list(snap["bounds"])
        hist = registry.histogram(prefix + name, bounds)
        if hist.bounds != bounds:
            raise TelemetryMergeError(
                f"histogram {prefix + name!r}: bucket ladders differ "
                f"({hist.bounds} vs {bounds})"
            )
        counts = snap["counts"]
        if len(counts) != len(hist.counts):
            raise TelemetryMergeError(
                f"histogram {prefix + name!r}: bucket counts differ in "
                f"length ({len(hist.counts)} vs {len(counts)})"
            )
        for i, count in enumerate(counts):
            hist.counts[i] += int(count)
        hist.total += int(snap["total"])
        hist.sum += float(snap["sum"])


def merge_labeled_snapshots(
    registry: MetricsRegistry,
    snapshots: Iterable[tuple[object, dict[str, object]]],
    label: str,
    rollup_prefix: str = "",
) -> int:
    """Merge ``(index, snapshot)`` pairs under ``label/<index>/`` + a rollup.

    Each snapshot lands once under ``label/<index>/...`` (the per-worker
    or per-shard breakdown) and once under ``rollup_prefix`` (counter
    sum / gauge watermark union / histogram bucket add across all of
    them).  An index may repeat: its snapshots merge into one
    ``label/<index>/`` breakdown.  Pairs merge in the order given, which
    fixes every merged gauge's ``value``.  Returns the number of
    snapshots merged.
    """
    merged = 0
    for index, snapshot in snapshots:
        merge_snapshot(registry, snapshot, prefix=f"{label}/{index}/")
        merge_snapshot(registry, snapshot, prefix=rollup_prefix)
        merged += 1
    return merged
