"""Tests for the self-healing recovery layer (escalation ladder et al.)."""

from random import Random

import pytest

from repro.obs.events import EventBus
from repro.obs.metrics import MetricsCollector
from repro.oram.block import Block
from repro.oram.config import OramConfig
from repro.oram.integrity import IntegrityError, MerkleTree, _slot_digest
from repro.oram.recovery import (
    SOURCE_DUMMY,
    SOURCE_PATH_DUPLICATE,
    SOURCE_REBUILD,
    SOURCE_SHADOW_STASH,
    SOURCE_STASH,
    SOURCE_TREE_DUPLICATE,
    RecoveryManager,
)
from repro.oram.tiny import TinyOramController

CFG = OramConfig(levels=5, z=4, a=3, utilization=0.25, stash_capacity=150)


def make_controller() -> TinyOramController:
    return TinyOramController(CFG, Random(1))


def manager(controller, policy="recover", **kw):
    merkle = MerkleTree(controller.tree)
    return merkle, RecoveryManager(controller, merkle, policy=policy, **kw)


def find_real(tree, min_level=1):
    """A tree-resident real block below the root (so paths differ)."""
    for idx, slot, blk in tree.iter_blocks():
        if not blk.is_shadow and tree.level_of_bucket(idx) >= min_level:
            return idx, slot, blk
    raise AssertionError("bootstrap left no real block in the tree")


def empty_slot_on_path(tree, leaf, avoid):
    for idx in tree.path_indices(leaf):
        if idx == avoid:
            continue
        for slot, blk in enumerate(tree.bucket(idx)):
            if blk is None:
                return idx, slot
    raise AssertionError("no empty slot on path")


def corrupt(blk: Block) -> None:
    blk.version ^= 1
    blk.payload = ("bitflip", blk.payload)


class TestLocalize:
    def test_localize_pinpoints_corrupt_slot(self):
        ctrl = make_controller()
        merkle = MerkleTree(ctrl.tree)
        idx, slot, blk = find_real(ctrl.tree)
        corrupt(blk)
        found = merkle.localize(blk.leaf)
        assert [(cs.bucket, cs.slot) for cs in found] == [(idx, slot)]
        meta = found[0].expected
        assert meta is not None and meta.addr == blk.addr

    def test_clean_path_localizes_nothing(self):
        ctrl = make_controller()
        merkle = MerkleTree(ctrl.tree)
        assert merkle.localize(0) == []


class TestEscalationLadder:
    def test_rebuild_restores_exact_contents(self):
        ctrl = make_controller()
        merkle, mgr = manager(ctrl)
        idx, slot, blk = find_real(ctrl.tree)
        original = (blk.addr, blk.leaf, blk.version, blk.payload, blk.is_shadow)
        corrupt(blk)
        assert mgr.heal_path(blk.leaf) == 1
        healed = ctrl.tree.bucket(idx)[slot]
        assert (healed.addr, healed.leaf, healed.version,
                healed.payload, healed.is_shadow) == original
        merkle.verify_path(healed.leaf)
        assert mgr.stats.corruptions == 1
        assert mgr.stats.recoveries == 1
        assert mgr.stats.recovered_from == {SOURCE_REBUILD: 1}

    def test_stash_real_copy_heals_shadow_slot(self):
        # RD/HD state after a path read: the real copy was absorbed into
        # the stash, a shadow duplicate stayed in the tree.
        ctrl = make_controller()
        idx, slot, blk = find_real(ctrl.tree)
        sidx, sslot = empty_slot_on_path(ctrl.tree, blk.leaf, avoid=idx)
        ctrl.tree.bucket(sidx)[sslot] = blk.shadow_copy()
        ctrl.tree.bucket(idx)[slot] = None
        ctrl.stash.insert(blk)
        merkle, mgr = manager(ctrl)
        corrupt(ctrl.tree.bucket(sidx)[sslot])
        assert mgr.heal_path(blk.leaf) == 1
        assert mgr.stats.recovered_from == {SOURCE_STASH: 1}
        healed = ctrl.tree.bucket(sidx)[sslot]
        assert healed.is_shadow and healed.payload == blk.payload
        merkle.verify_path(blk.leaf)

    def test_stash_shadow_copy_heals_real_slot(self):
        ctrl = make_controller()
        idx, slot, blk = find_real(ctrl.tree)
        ctrl.stash.insert(blk.shadow_copy())
        merkle, mgr = manager(ctrl)
        corrupt(blk)
        assert mgr.heal_path(blk.leaf) == 1
        assert mgr.stats.recovered_from == {SOURCE_SHADOW_STASH: 1}
        healed = ctrl.tree.bucket(idx)[slot]
        assert not healed.is_shadow
        merkle.verify_path(blk.leaf)

    def test_path_duplicate_heals_real_slot(self):
        ctrl = make_controller()
        idx, slot, blk = find_real(ctrl.tree)
        sidx, sslot = empty_slot_on_path(ctrl.tree, blk.leaf, avoid=idx)
        ctrl.tree.bucket(sidx)[sslot] = blk.shadow_copy()
        merkle, mgr = manager(ctrl)
        corrupt(blk)
        assert mgr.heal_path(blk.leaf) == 1
        assert mgr.stats.recovered_from == {SOURCE_PATH_DUPLICATE: 1}
        merkle.verify_path(blk.leaf)

    def test_tree_duplicate_heals_real_slot(self):
        # A stale-path shadow (left behind by a remap) lives off the
        # block's current path but still holds the bits.
        ctrl = make_controller()
        tree = ctrl.tree
        idx, slot, blk = find_real(tree)
        on_path = set(tree.path_indices(blk.leaf))
        placed = False
        for bidx in range(tree.num_buckets):
            if bidx in on_path:
                continue
            bucket = tree.bucket(bidx)
            for bslot, cand in enumerate(bucket):
                if cand is None:
                    bucket[bslot] = blk.shadow_copy()
                    placed = True
                    break
            if placed:
                break
        assert placed
        merkle, mgr = manager(ctrl, audit=False)
        corrupt(blk)
        assert mgr.heal_path(blk.leaf) == 1
        assert mgr.stats.recovered_from == {SOURCE_TREE_DUPLICATE: 1}
        merkle.verify_path(blk.leaf)

    def test_corrupted_dummy_slot_restored(self):
        ctrl = make_controller()
        tree = ctrl.tree
        leaf = find_real(tree)[2].leaf
        didx, dslot = empty_slot_on_path(tree, leaf, avoid=-1)
        merkle, mgr = manager(ctrl)
        tree.bucket(didx)[dslot] = Block(addr=999, leaf=leaf, payload="junk")
        assert mgr.heal_path(leaf) == 1
        assert tree.bucket(didx)[dslot] is None
        assert mgr.stats.recovered_from == {SOURCE_DUMMY: 1}
        merkle.verify_path(leaf)

    def test_stale_candidate_rejected(self):
        # A shadow one version behind must NOT be scrubbed in: with the
        # rebuild rung disabled the slot is unrecoverable.
        ctrl = make_controller()
        idx, slot, blk = find_real(ctrl.tree)
        stale = blk.shadow_copy()
        stale.version -= 1
        ctrl.stash.insert(stale)
        merkle, mgr = manager(ctrl, rebuild=False, audit=False)
        corrupt(blk)
        with pytest.raises(IntegrityError, match="unrecoverable"):
            mgr.heal_path(blk.leaf)
        assert mgr.stats.recoveries == 0


class TestPolicies:
    def test_raise_policy_raises_on_demand_path(self):
        ctrl = make_controller()
        merkle, mgr = manager(ctrl, policy="raise")
        idx, slot, blk = find_real(ctrl.tree)
        corrupt(blk)
        with pytest.raises(IntegrityError):
            mgr.before_request(blk.addr, blk.leaf)

    def test_degrade_drops_unrecoverable_slot(self):
        ctrl = make_controller()
        merkle, mgr = manager(ctrl, policy="degrade", rebuild=False)
        idx, slot, blk = find_real(ctrl.tree)
        corrupt(blk)
        assert mgr.heal_path(blk.leaf) == 0
        assert ctrl.tree.bucket(idx)[slot] is None
        assert mgr.stats.unrecoverable == 1
        merkle.verify_path(blk.leaf)  # structurally sound again

    def test_scrub_tick_heals_whole_tree(self):
        ctrl = make_controller()
        merkle, mgr = manager(ctrl, scrub_interval=2)
        idx, slot, blk = find_real(ctrl.tree)
        corrupt(blk)
        mgr.tick()
        assert mgr.stats.recoveries == 0  # not due yet
        mgr.tick()
        assert mgr.stats.recoveries == 1
        assert mgr.stats.scrubbed == 1
        assert merkle.verify_all() == []

    def test_scrub_under_raise_policy_is_fail_stop(self):
        ctrl = make_controller()
        merkle, mgr = manager(ctrl, policy="raise", scrub_interval=1)
        corrupt(find_real(ctrl.tree)[2])
        with pytest.raises(IntegrityError):
            mgr.tick()


class TestPosmapRepair:
    def test_stale_entry_repaired_from_tree(self):
        ctrl = make_controller()
        merkle, mgr = manager(ctrl)
        tree = ctrl.tree
        idx, slot, blk = find_real(tree, min_level=2)
        stale = next(
            leaf for leaf in range(tree.num_leaves)
            if not tree.on_path(leaf, idx)
        )
        ctrl.posmap._leaf[blk.addr] = stale
        assert mgr.before_request(blk.addr, stale) == blk.leaf
        assert ctrl.posmap.lookup(blk.addr) == blk.leaf
        assert mgr.stats.posmap_repairs == 1

    def test_consistent_entry_untouched(self):
        ctrl = make_controller()
        merkle, mgr = manager(ctrl)
        idx, slot, blk = find_real(ctrl.tree)
        assert mgr.before_request(blk.addr, blk.leaf) == blk.leaf
        assert mgr.stats.posmap_repairs == 0


class TestObservability:
    def test_events_feed_recovery_metrics(self):
        bus = EventBus()
        collector = MetricsCollector(bus)
        ctrl = make_controller()
        merkle = MerkleTree(ctrl.tree)
        mgr = RecoveryManager(ctrl, merkle, policy="recover", bus=bus)
        corrupt(find_real(ctrl.tree)[2])
        assert mgr.scrub_tree() == 1
        counters = collector.to_dict()["counters"]
        assert counters["oram/corruptions"] == 1
        assert counters["oram/recoveries"] == 1
        assert counters["oram/scrubbed"] == 1
        assert counters[f"oram/recovered_from/{SOURCE_REBUILD}"] == 1

    def test_recovery_consumes_no_rng(self):
        ctrl = make_controller()
        merkle, mgr = manager(ctrl)
        state = ctrl.rng.getstate()
        corrupt(find_real(ctrl.tree)[2])
        mgr.scrub_tree()
        assert ctrl.rng.getstate() == state


class TestSnapshot:
    def test_stats_round_trip(self):
        ctrl = make_controller()
        merkle, mgr = manager(ctrl, scrub_interval=5)
        corrupt(find_real(ctrl.tree)[2])
        mgr.tick()
        mgr.scrub_tree()
        state = mgr.snapshot_state()
        ctrl2 = make_controller()
        merkle2, mgr2 = manager(ctrl2, scrub_interval=5)
        mgr2.restore_state(state)
        assert mgr2.stats == mgr.stats
        assert mgr2.snapshot_state() == state


class TestControllerIntegration:
    def test_recovered_controller_matches_fault_free(self):
        """A flipped slot healed mid-run leaves state bit-identical."""
        cfg = OramConfig(levels=5, z=4, a=3, utilization=0.25,
                         stash_capacity=150, integrity=True,
                         recovery="recover", scrub_interval=1)
        healed = TinyOramController(cfg, Random(3))
        plain = TinyOramController(CFG, Random(3))
        rng = Random(9)
        addrs = [rng.randrange(plain.num_blocks) for _ in range(120)]
        for i, addr in enumerate(addrs):
            if i == 60:
                corrupt(find_real(healed.tree)[2])
            a = healed.access(addr, "write" if i % 3 else "read", payload=i)
            b = plain.access(addr, "write" if i % 3 else "read", payload=i)
            assert a.value == b.value
        assert healed.recovery.stats.recoveries >= 1
        sa = healed.snapshot_state()
        sa.pop("recovery")
        assert sa == plain.snapshot_state()

    def test_raise_config_aborts_on_corruption(self):
        cfg = OramConfig(levels=5, z=4, a=3, utilization=0.25,
                         stash_capacity=150, integrity=True)
        ctrl = TinyOramController(cfg, Random(3))
        corrupt(find_real(ctrl.tree)[2])
        with pytest.raises(IntegrityError):
            for addr in range(ctrl.num_blocks):
                ctrl.access(addr, "read")
