"""Functional tests for the shadow-block ORAM controller."""

from random import Random

import pytest

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.oram.block import Block
from repro.oram.config import OramConfig
from repro.oram.tiny import SERVED_SHADOW_STASH
from tests.conftest import check_path_invariant, check_shadow_versions


def make_controller(levels=6, shadow=None, seed=1, **oram_kwargs):
    cfg = OramConfig(levels=levels, utilization=0.25, stash_capacity=200, **oram_kwargs)
    return ShadowOramController(cfg, Random(seed), shadow or ShadowConfig.static(3))


def warm(controller, accesses=400, seed=2, footprint=None):
    rng = Random(seed)
    footprint = footprint or controller.num_blocks
    for _ in range(accesses):
        controller.access(rng.randrange(footprint), "read")


class TestShadowGeneration:
    def test_shadows_appear_in_tree_after_evictions(self):
        ctl = make_controller()
        warm(ctl)
        _real, shadows = ctl.tree.count_blocks()
        assert shadows > 0
        assert ctl.shadow_stats.dummy_slots_filled > 0

    def test_rd_only_creates_no_hd_shadows(self):
        ctl = make_controller(shadow=ShadowConfig.rd_only())
        warm(ctl)
        assert ctl.shadow_stats.rd_shadows > 0
        assert ctl.shadow_stats.hd_shadows == 0

    def test_hd_only_creates_no_rd_shadows(self):
        ctl = make_controller(shadow=ShadowConfig.hd_only(6))
        warm(ctl)
        assert ctl.shadow_stats.hd_shadows > 0
        assert ctl.shadow_stats.rd_shadows == 0

    def test_partition_splits_by_level(self):
        ctl = make_controller(shadow=ShadowConfig.static(3))
        warm(ctl)
        hd_levels = set()
        rd_levels = set()
        tree = ctl.tree
        for idx, _slot, blk in tree.iter_blocks():
            if not blk.is_shadow:
                continue
            lvl = tree.level_of_bucket(idx)
            (hd_levels if lvl < 3 else rd_levels).add(lvl)
        # Shadows exist on both sides of the boundary.
        assert hd_levels and rd_levels

    def test_shadow_rules_hold_after_workload(self):
        ctl = make_controller()
        warm(ctl, accesses=600)
        check_path_invariant(ctl)

    def test_shadow_versions_stay_consistent(self):
        ctl = make_controller()
        rng = Random(5)
        for i in range(600):
            addr = rng.randrange(ctl.num_blocks)
            if rng.random() < 0.5:
                ctl.access(addr, "write", payload=i)
            else:
                ctl.access(addr, "read")
        check_shadow_versions(ctl)


class TestFunctionalCorrectness:
    def test_read_after_write_with_heavy_duplication(self):
        ctl = make_controller(shadow=ShadowConfig.static(7))
        rng = Random(11)
        model = {}
        hot = list(range(16))
        for i in range(1200):
            if rng.random() < 0.5:
                addr = hot[rng.randrange(len(hot))]
            else:
                addr = rng.randrange(ctl.num_blocks)
            if rng.random() < 0.4:
                ctl.access(addr, "write", payload=i)
                model[addr] = i
            else:
                r = ctl.access(addr, "read")
                assert r.value == model.get(addr), (
                    f"addr {addr} served stale data from {r.served_from}"
                )

    def test_write_after_shadow_hit_invalidates_all_copies(self):
        ctl = make_controller()
        warm(ctl, footprint=8, accesses=100)
        # Find an address with a live stashed shadow.
        target = None
        for addr in range(8):
            if ctl.stash.lookup_shadow(addr) is not None:
                target = addr
                break
        if target is None:
            pytest.skip("no stashed shadow produced by this seed")
        ctl.access(target, "write", payload="fresh")
        assert ctl.access(target, "read").value == "fresh"
        check_shadow_versions(ctl)


class TestShadowStashHits:
    def test_read_hits_on_stashed_shadow(self):
        ctl = make_controller(shadow=ShadowConfig.static(7))
        warm(ctl, footprint=8, accesses=300)
        assert ctl.stats.shadow_stash_hits > 0

    def test_shadow_hit_result_is_onchip(self):
        ctl = make_controller()
        warm(ctl, footprint=8, accesses=100)
        target = None
        for addr in range(8):
            if (
                ctl.stash.lookup_shadow(addr) is not None
                and ctl.stash.lookup_real(addr) is None
            ):
                target = addr
                break
        if target is None:
            pytest.skip("no stashed shadow produced by this seed")
        r = ctl.access(target, "read", now=50.0)
        assert r.served_from == SERVED_SHADOW_STASH
        assert r.path_accesses == 0
        assert r.data_ready == pytest.approx(50.0 + ctl.config.onchip_latency)

    def test_hits_disabled_by_config(self):
        cfg = ShadowConfig.static(7).with_(serve_shadow_read_hits=False)
        ctl = make_controller(shadow=cfg)
        warm(ctl, footprint=8, accesses=300)
        assert ctl.stats.shadow_stash_hits == 0

    def test_writes_never_served_from_shadow(self):
        ctl = make_controller()
        warm(ctl, footprint=8, accesses=200)
        rng = Random(1)
        for i in range(100):
            r = ctl.access(rng.randrange(8), "write", payload=i)
            assert r.served_from != SERVED_SHADOW_STASH


class TestPeekOnchip:
    def test_peek_matches_access_behaviour(self):
        ctl = make_controller()
        warm(ctl, accesses=200)
        rng = Random(9)
        for _ in range(100):
            addr = rng.randrange(ctl.num_blocks)
            op = "read" if rng.random() < 0.7 else "write"
            peek = ctl.peek_onchip(addr, op)
            r = ctl.access(addr, op, payload=0)
            assert peek == (r.path_accesses == 0)


class TestStashSafety:
    def test_peak_real_occupancy_matches_tiny(self):
        # Rule-3: duplication must not worsen stash pressure.  With shadow
        # read hits disabled the two controllers perform identical real
        # accesses, so peaks must match exactly.
        from repro.oram.tiny import TinyOramController

        cfg = OramConfig(levels=6, utilization=0.25, stash_capacity=200)
        tiny = TinyOramController(cfg, Random(3))
        shadow_cfg = ShadowConfig.static(3).with_(serve_shadow_read_hits=False)
        shadow = ShadowOramController(cfg, Random(3), shadow_cfg)
        rng_a, rng_b = Random(4), Random(4)
        for _ in range(800):
            tiny.access(rng_a.randrange(cfg.num_blocks))
            shadow.access(rng_b.randrange(cfg.num_blocks))
        assert shadow.stash.peak_real == tiny.stash.peak_real

    def test_read_drops_shadows_when_every_stash_entry_is_real(self):
        # Rule-3 on the read path: a shadow a path read caches only takes
        # stash space that is left.  With every entry real it is dropped
        # and counted, and its tree copy stays.
        cfg = OramConfig(levels=4, stash_capacity=4)
        ctl = ShadowOramController(cfg, Random(1), ShadowConfig.static(3))
        stash = ctl.stash
        for blk in stash.real_blocks():
            stash.remove_real(blk.addr)
        for addr in range(1000, 1004):
            stash.insert(Block(addr, leaf=0))
        tree = ctl.tree
        for level, index in enumerate(tree.path_indices(0)):
            tree.bucket(index)[-1] = Block(2000 + level, leaf=0, is_shadow=True)
        ctl._path_read(0, 0.0, intended_addr=None)
        assert stash.real_count == 4
        assert stash.shadow_count == 0
        assert stash.shadow_drops == cfg.levels + 1
        assert tree.count_blocks()[1] == cfg.levels + 1


class TestDynamicPartitionIntegration:
    def test_dynamic_policy_adjusts_during_run(self):
        ctl = make_controller(shadow=ShadowConfig.dynamic_counter(3))
        warm(ctl, accesses=300)
        for _ in range(20):
            ctl.dummy_access()
        assert ctl.partition.adjustments > 0

    def test_note_idle_gap_reaches_policy(self):
        ctl = make_controller(shadow=ShadowConfig.dynamic_counter(3))
        ctl.access(0, "read")
        level_before = ctl.partition.level
        ctl.note_idle_gap(5000.0)
        ctl.access(1, "read")
        # The virtual dummy pushed the counter toward RD territory; the
        # level may only have moved by bounded steps.
        assert abs(ctl.partition.level - level_before) <= 2
