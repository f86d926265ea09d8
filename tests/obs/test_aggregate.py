"""Telemetry snapshot/merge semantics (`repro.obs.aggregate`)."""

import json

import pytest

from repro.analysis.engine import SweepRunner
from repro.obs.aggregate import (
    TelemetryMergeError,
    merge_labeled_snapshots,
    merge_snapshot,
    snapshot_registry,
)
from repro.obs.metrics import MetricsRegistry


def make_registry(counter=5, gauge_values=(3.0, 7.0), hist_values=(1.0, 9.0)):
    reg = MetricsRegistry()
    reg.counter("c/events").inc(counter)
    g = reg.gauge("g/depth")
    for v in gauge_values:
        g.set(v)
    h = reg.histogram("h/lat", [2.0, 8.0])
    for v in hist_values:
        h.observe(v)
    return reg


class TestSnapshot:
    def test_snapshot_is_json_safe(self):
        reg = make_registry()
        reg.gauge("g/empty")  # never set: would hold inf watermarks
        snap = snapshot_registry(reg)
        text = json.dumps(snap, allow_nan=False)
        assert json.loads(text) == snap

    def test_empty_gauge_snapshots_without_watermarks(self):
        reg = MetricsRegistry()
        reg.gauge("g/empty")
        snap = snapshot_registry(reg)
        assert snap["gauges"]["g/empty"] == {"updates": 0}

    def test_unknown_schema_is_ignored(self):
        reg = MetricsRegistry()
        merge_snapshot(reg, {"schema": 999, "counters": {"c": 5}})
        assert reg.to_dict()["counters"] == {}


class TestMergeLabeled:
    def test_breakdown_plus_rollup(self):
        target = MetricsRegistry()
        merged = merge_labeled_snapshots(
            target,
            [
                (0, snapshot_registry(make_registry(counter=5))),
                (1, snapshot_registry(make_registry(counter=7))),
            ],
            label="shard",
            rollup_prefix="fleet/",
        )
        assert merged == 2
        assert target.counter("shard/0/c/events").value == 5
        assert target.counter("shard/1/c/events").value == 7
        assert target.counter("fleet/c/events").value == 12

    def test_iteration_order_is_deterministic(self):
        # Pairs merge in the order given: counters and histograms do not
        # depend on it, and each gauge's value is the last pair's.
        first = make_registry(counter=1, gauge_values=(4.0,))
        second = make_registry(counter=2, gauge_values=(6.0,))
        snaps = [
            (1, snapshot_registry(first)), (0, snapshot_registry(second)),
        ]
        a = MetricsRegistry()
        merge_labeled_snapshots(a, snaps, label="w", rollup_prefix="all/")
        b = MetricsRegistry()
        merge_labeled_snapshots(
            b, list(reversed(snaps)), label="w", rollup_prefix="all/"
        )
        assert a.to_dict()["counters"] == b.to_dict()["counters"]
        assert a.to_dict()["histograms"] == b.to_dict()["histograms"]
        assert a.gauge("all/g/depth").value == 6.0
        assert b.gauge("all/g/depth").value == 4.0

    def test_repeated_index_merges_into_one_breakdown(self):
        target = MetricsRegistry()
        merged = merge_labeled_snapshots(
            target,
            [
                (0, snapshot_registry(make_registry(counter=5))),
                (1, snapshot_registry(make_registry(counter=7))),
                (0, snapshot_registry(make_registry(counter=11))),
            ],
            label="worker",
        )
        assert merged == 3
        counters = target.to_dict()["counters"]
        assert counters == {
            "c/events": 23, "worker/0/c/events": 16, "worker/1/c/events": 7,
        }
        assert target.histogram("worker/0/h/lat").total == 4
        assert target.gauge("worker/0/g/depth").updates == 4


class TestMergeSemantics:
    def test_counters_sum(self):
        target = MetricsRegistry()
        merge_snapshot(target, snapshot_registry(make_registry(counter=5)))
        merge_snapshot(target, snapshot_registry(make_registry(counter=7)))
        assert target.counter("c/events").value == 12

    def test_gauges_union_watermarks(self):
        target = MetricsRegistry()
        merge_snapshot(
            target, snapshot_registry(make_registry(gauge_values=(3.0, 7.0)))
        )
        merge_snapshot(
            target, snapshot_registry(make_registry(gauge_values=(1.0, 5.0)))
        )
        g = target.gauge("g/depth")
        assert g.min == 1.0
        assert g.max == 7.0
        assert g.updates == 4
        assert g.value == 5.0  # last snapshot merged

    def test_empty_gauge_merge_creates_instrument_only(self):
        src = MetricsRegistry()
        src.gauge("g/empty")
        target = MetricsRegistry()
        merge_snapshot(target, snapshot_registry(src))
        assert target.gauge("g/empty").updates == 0

    def test_histograms_add_bucket_counts(self):
        target = MetricsRegistry()
        merge_snapshot(
            target, snapshot_registry(make_registry(hist_values=(1.0, 9.0)))
        )
        merge_snapshot(
            target, snapshot_registry(make_registry(hist_values=(3.0,)))
        )
        h = target.histogram("h/lat")
        assert h.counts == [1, 1, 1]
        assert h.total == 3
        assert h.sum == pytest.approx(13.0)

    def test_histogram_bounds_mismatch_raises(self):
        other = MetricsRegistry()
        other.histogram("h/lat", [1.0, 2.0, 3.0]).observe(1.5)
        target = MetricsRegistry()
        merge_snapshot(target, snapshot_registry(make_registry()))
        with pytest.raises(TelemetryMergeError):
            merge_snapshot(target, snapshot_registry(other))

    def test_prefix_namespaces_instruments(self):
        target = MetricsRegistry()
        merge_snapshot(
            target, snapshot_registry(make_registry()), prefix="worker/0/"
        )
        assert target.counter("worker/0/c/events").value == 5
        assert "c/events" not in target.to_dict()["counters"]


class TestAggregator:
    """The sweep runner's merge of its resolved points' snapshots."""

    def test_worker_relabeling_is_dense_and_sorted(self):
        reg = MetricsRegistry()
        SweepRunner(registry=reg)._merge_telemetry({
            "a": ("9731", snapshot_registry(make_registry(counter=1))),
            "b": ("104", snapshot_registry(make_registry(counter=2))),
        })
        counters = reg.to_dict()["counters"]
        assert counters["worker/0/c/events"] == 2  # raw id "104"
        assert counters["worker/1/c/events"] == 1  # raw id "9731"
        assert reg.gauge("sweep/telemetry/workers").value == 2
        assert reg.counter("sweep/telemetry/snapshots").value == 2

    def test_rollup_independent_of_ingest_order(self):
        def merged(keys):
            telemetry = {}
            for i, key in enumerate(keys):
                # Snapshot content is a function of the point (key), the
                # worker that ran it a function of scheduling (i).
                telemetry[key] = (str(i), snapshot_registry(
                    make_registry(counter=ord(key), gauge_values=(float(ord(key)),))
                ))
            reg = MetricsRegistry()
            SweepRunner(registry=reg)._merge_telemetry(telemetry)
            rollups = {
                kind: {
                    name: value for name, value in instruments.items()
                    if not name.startswith("worker/")
                }
                for kind, instruments in reg.to_dict().items()
            }
            return json.dumps(rollups, sort_keys=True)

        assert merged(["a", "b", "c"]) == merged(["c", "a", "b"])
