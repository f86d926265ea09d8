"""Tests for the consistent-hash placement of the fleet address space."""

import hashlib
import json

import pytest

from repro.oram.config import OramConfig
from repro.shard import HashRing, HashRingError
from repro.shard.hashring import _point


class TestDeterminism:
    def test_identical_rings_across_constructions(self):
        a = HashRing(4, space=500, capacity=160)
        b = HashRing(4, space=500, capacity=160)
        assert a.assignments == b.assignments
        assert [a.shard_of(x) for x in range(500)] == [
            b.shard_of(x) for x in range(500)
        ]

    def test_salt_changes_placement(self):
        a = HashRing(4, space=500, capacity=200)
        b = HashRing(4, space=500, capacity=200, salt="other-ring")
        assert a.assignments != b.assignments

    def test_known_placement_is_stable(self):
        # Placement is part of the durable state identity (intent logs
        # record shard-local addresses), so it must never drift between
        # releases.  Pin a tiny ring's full owner map.
        ring = HashRing(2, space=8, capacity=8, vnodes=4, salt="pin")
        assert [ring.shard_of(a) for a in range(8)] == [1, 1, 0, 1, 0, 1, 1, 0]
        assert ring.assignments == ((2, 4, 7), (0, 1, 3, 5, 6))

    def test_default_fleet_placement_is_stable(self):
        # The fleet `repro serve --shards 4` builds: owners, assignments
        # and local indices of all 139,257 addresses.
        ring = HashRing.fit(4, capacity=OramConfig().num_blocks)
        assert ring.space == 139_257
        owners = [ring.shard_of(a) for a in range(ring.space)]
        local = [ring.local_of(a) for a in range(ring.space)]
        blob = json.dumps([owners, ring.assignments, local], separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "8aa55d4645e6cb879c9d735ca0979e3657c1d9901c0548a6a45d68d854c86bda"
        )

    def test_dummy_slot_points_are_stable(self):
        # Padded rounds read the dummy address _point("dummy", seed, shard,
        # log length) picks; intent logs record it.
        assert _point("dummy", 1, 0, 0) == 1141817825030529707
        assert _point("dummy", 1, 0, 1) == 13638691918214157987
        assert _point("dummy", 1, 1, 7) == 11829224305584892535
        assert _point("dummy", 1, 3, 123) == 4535039057793643767


class TestPlacementInvariants:
    def test_every_address_owned_once_and_local_dense(self):
        ring = HashRing(4, space=600, capacity=200)
        seen = set()
        for shard, bucket in enumerate(ring.assignments):
            assert list(bucket) == sorted(bucket)
            for rank, addr in enumerate(bucket):
                assert ring.shard_of(addr) == shard
                assert ring.local_of(addr) == rank
                seen.add(addr)
        assert seen == set(range(600))

    def test_capacity_validated(self):
        with pytest.raises(HashRingError, match="holds only"):
            HashRing(2, space=100, capacity=10)

    def test_every_shard_owns_something(self):
        ring = HashRing(8, space=640, capacity=640)
        assert all(ring.shard_space(k) >= 1 for k in range(8))

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(HashRingError):
            HashRing(0, space=10, capacity=10)
        with pytest.raises(HashRingError):
            HashRing(4, space=2, capacity=10)
        with pytest.raises(HashRingError):
            HashRing(2, space=10, capacity=10, vnodes=0)


class TestFit:
    def test_fit_respects_headroom(self):
        ring = HashRing.fit(4, capacity=158)
        assert ring.space <= int(4 * 158 * 0.85)
        assert max(ring.shard_space(k) for k in range(4)) <= 158

    def test_fit_is_deterministic(self):
        assert HashRing.fit(3, capacity=158).space == HashRing.fit(
            3, capacity=158
        ).space

    def test_balance_within_headroom(self):
        # vnodes=64 keeps the realized imbalance well inside the 15%
        # headroom for paper-scale fleets.
        ring = HashRing.fit(4, capacity=638)
        loads = [ring.shard_space(k) for k in range(4)]
        assert max(loads) <= 638
        assert min(loads) > 0

    def test_describe_reports_balance(self):
        info = HashRing.fit(4, capacity=158).describe()
        assert info["num_shards"] == 4
        assert info["load_min"] >= 1
        assert info["load_max"] <= 158
