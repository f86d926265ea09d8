"""JSONL structured logging and run metadata."""

import io
import json
from random import Random

from repro.obs.events import EventBus, PartitionAdjusted
from repro.obs.log import (
    AdversaryTraceWriter,
    JsonlLogger,
    git_describe,
    run_metadata,
)
from repro.oram.config import OramConfig
from repro.oram.tiny import TinyOramController
from repro.system.config import SystemConfig


class TestRunMetadata:
    def test_git_describe_returns_string(self):
        assert isinstance(git_describe(), str)
        assert git_describe() != ""

    def test_metadata_includes_config_and_seed(self):
        meta = run_metadata(SystemConfig.dynamic(3), workload="mcf")
        assert meta["type"] == "run_metadata"
        assert "dynamic-3" in meta["config"]
        assert meta["seed"] == 1
        assert meta["workload"] == "mcf"
        assert "python" in meta and "git" in meta


class TestJsonlLogger:
    def test_events_stream_as_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = JsonlLogger(stream)
        bus = EventBus()
        logger.attach(bus)
        logger.write_metadata(SystemConfig.tiny())
        bus.emit(PartitionAdjusted(old_level=1, new_level=2, counter=3, ts=1.0))
        bus.emit(PartitionAdjusted(old_level=2, new_level=3, counter=2, ts=4.0))
        lines = stream.getvalue().splitlines()
        assert len(lines) == logger.lines == 3
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "run_metadata"
        assert records[1] == {
            "type": "PartitionAdjusted", "old_level": 1, "new_level": 2,
            "counter": 3, "ts": 1.0,
        }

    def test_typed_attach_filters(self):
        stream = io.StringIO()
        logger = JsonlLogger(stream)
        bus = EventBus()
        logger.attach(bus, PartitionAdjusted)
        bus.emit(PartitionAdjusted(old_level=1, new_level=2, counter=3, ts=1.0))
        bus.emit(object())  # not a PartitionAdjusted: filtered out
        assert logger.lines == 1


class TestAdversaryTraceWriter:
    def test_observer_hook_dumps_path_accesses(self):
        stream = io.StringIO()
        writer = AdversaryTraceWriter(stream)
        cfg = OramConfig(levels=6, utilization=0.25, stash_capacity=200)
        ctl = TinyOramController(cfg, Random(3), observer=writer)
        rng = Random(4)
        for _ in range(60):
            ctl.access(rng.randrange(ctl.num_blocks))
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert records
        assert all(r["type"] == "path_access" for r in records)
        kinds = {r["kind"] for r in records}
        assert kinds <= {"read", "write"}
        # The adversary sees exactly the path accesses the stats report.
        assert len(records) == ctl.stats.path_reads + ctl.stats.path_writes
        assert writer.lines == len(records)
