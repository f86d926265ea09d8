"""Tests for the fault taxonomy: round-tripping and CLI parsing."""

import errno

import pytest

from repro.faults.injector import FaultPlan
from repro.faults.spec import (
    FAULT_KINDS,
    BitFlip,
    CacheCorruption,
    CacheOsError,
    ClientDisconnect,
    FaultSpecError,
    PosmapCorrupt,
    ServerCrash,
    ShardCheckpointCorrupt,
    ShardCrash,
    ShardHang,
    SlowClient,
    StashPressure,
    WorkerCrash,
    WorkerHang,
    parse_spec,
    spec_from_dict,
)

ALL_SPECS = [
    WorkerCrash(point=2, attempt=3, mode="exit"),
    WorkerHang(point=1, attempt=2, hang_s=0.5),
    CacheCorruption(mode="garbage", first=1, count=4),
    CacheOsError(err=errno.EROFS, first=2, count=1),
    StashPressure(at_access=10, window=5, squeeze=3),
    BitFlip(at_access=42),
    PosmapCorrupt(at_access=7, addr=12),
    ClientDisconnect(at_request=4),
    SlowClient(at_request=2, stall_s=0.25),
    ServerCrash(at_access=100, mode="exit"),
    ShardCrash(shard=1, at_access=40),
    ShardHang(shard=2, at_access=8, hang_s=0.2),
    ShardCheckpointCorrupt(shard=0, mode="garbage"),
]


class TestRegistry:
    def test_every_spec_is_registered(self):
        assert set(FAULT_KINDS) == {
            "worker-crash",
            "worker-hang",
            "cache-corrupt",
            "cache-os-error",
            "stash-pressure",
            "bit-flip",
            "posmap-corrupt",
            "client-disconnect",
            "slow-client",
            "server-crash",
            "shard-crash",
            "shard-hang",
            "shard-checkpoint-corrupt",
        }

    def test_kinds_match_classes(self):
        for kind, cls in FAULT_KINDS.items():
            assert cls.kind == kind


class TestDictRoundTrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_round_trip(self, spec):
        assert spec_from_dict(spec.to_dict()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            spec_from_dict({"kind": "meteor-strike"})

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown fields"):
            spec_from_dict({"kind": "bit-flip", "at_access": 1, "blast": 9})
        with pytest.raises(FaultSpecError, match="unknown fields"):
            spec_from_dict({"kind": "shard-crash", "mode": "exit"})

    def test_bad_mode_rejected(self):
        with pytest.raises(FaultSpecError):
            WorkerCrash(mode="shrug")
        with pytest.raises(FaultSpecError):
            CacheCorruption(mode="shred")
        with pytest.raises(FaultSpecError):
            ServerCrash(mode="gently")
        with pytest.raises(FaultSpecError):
            ShardCheckpointCorrupt(mode="shred")


class TestParseSpec:
    def test_bare_kind(self):
        assert parse_spec("cache-corrupt") == CacheCorruption()

    def test_point_selector(self):
        assert parse_spec("worker-crash@2") == WorkerCrash(point=2)

    def test_point_plus_fields(self):
        assert parse_spec("worker-crash@2:mode=exit,attempt=3") == WorkerCrash(
            point=2, attempt=3, mode="exit"
        )

    def test_float_field_coercion(self):
        assert parse_spec("worker-hang@1:hang_s=2.5") == WorkerHang(
            point=1, hang_s=2.5
        )

    def test_multi_field(self):
        assert parse_spec(
            "stash-pressure:at_access=50,squeeze=4,window=10"
        ) == StashPressure(at_access=50, squeeze=4, window=10)

    def test_unknown_kind(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            parse_spec("gamma-ray@1")

    def test_point_on_pointless_kind(self):
        with pytest.raises(FaultSpecError, match="@point"):
            parse_spec("bit-flip@3")

    def test_bad_option(self):
        with pytest.raises(FaultSpecError, match="bad option"):
            parse_spec("worker-crash:sideways")
        with pytest.raises(FaultSpecError, match="bad option"):
            parse_spec("worker-crash:warp=9")
        with pytest.raises(FaultSpecError, match="bad option"):
            parse_spec("shard-crash:shard=1,mode=exit")


class TestFaultPlan:
    def test_dict_round_trip(self):
        plan = FaultPlan(specs=tuple(ALL_SPECS), seed=99)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_parse_builds_plan(self):
        plan = FaultPlan.parse(
            ["worker-crash@1", "cache-corrupt:mode=garbage"], seed=5
        )
        assert plan.seed == 5
        assert plan.specs == (
            WorkerCrash(point=1),
            CacheCorruption(mode="garbage"),
        )

    def test_plan_is_picklable_shape(self):
        # What actually ships inside a worker job is the dict form; it
        # must be plain JSON-compatible data.
        import json

        payload = FaultPlan(specs=tuple(ALL_SPECS), seed=3).to_dict()
        assert FaultPlan.from_dict(json.loads(json.dumps(payload))) == FaultPlan(
            specs=tuple(ALL_SPECS), seed=3
        )
