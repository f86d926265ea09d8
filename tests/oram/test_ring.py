"""Tests for the Ring ORAM extension (+ shadow-block integration)."""

from random import Random

import pytest

from repro.mem.dram import DramConfig
from repro.oram.ring import RingConfig, RingOramController
from repro.security.adversary import AccessPatternObserver, chi_square_uniformity


def make(enable_shadows=False, seed=3, levels=6, dram=False, **kwargs):
    cfg = RingConfig(levels=levels, enable_shadows=enable_shadows, **kwargs)
    return RingOramController(
        cfg, Random(seed), dram_config=DramConfig() if dram else None
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RingConfig(levels=0)
        with pytest.raises(ValueError):
            RingConfig(s=0)
        with pytest.raises(ValueError):
            RingConfig(utilization=0.0)

    def test_derived(self):
        cfg = RingConfig(levels=3, z=4, s=6, utilization=0.5)
        assert cfg.slots_per_bucket == 10
        assert cfg.num_buckets == 15
        assert cfg.num_blocks == 30


class TestFunctionalCorrectness:
    def test_read_after_write(self):
        ctl = make()
        ctl.access(3, "write", payload="v1")
        assert ctl.access(3, "read").value == "v1"
        ctl.access(3, "write", payload="v2")
        assert ctl.access(3, "read").value == "v2"

    def test_unknown_op_rejected(self):
        # Same contract as TinyOramController.access: anything but
        # "read"/"write" raises before the controller touches any state.
        ctl = make()
        for op in ("WRITE", "dummy", ""):
            with pytest.raises(ValueError, match="op must be"):
                ctl.access(3, op)
        assert ctl.stats_reads == ctl.stats_stash_hits == 0

    def test_random_workload_consistency(self):
        ctl = make()
        rng = Random(8)
        model = {}
        for i in range(1500):
            addr = rng.randrange(ctl.num_blocks)
            if rng.random() < 0.4:
                ctl.access(addr, "write", payload=i)
                model[addr] = i
            else:
                r = ctl.access(addr, "read")
                assert r.value == model.get(addr), (addr, r.served_from)

    def test_shadow_mode_consistency(self):
        ctl = make(enable_shadows=True)
        rng = Random(8)
        model = {}
        hot = list(range(12))
        for i in range(1500):
            addr = hot[rng.randrange(12)] if rng.random() < 0.5 else (
                rng.randrange(ctl.num_blocks)
            )
            if rng.random() < 0.4:
                ctl.access(addr, "write", payload=i)
                model[addr] = i
            else:
                r = ctl.access(addr, "read")
                assert r.value == model.get(addr), (addr, r.served_from)

    def test_stash_stays_bounded(self):
        ctl = make(enable_shadows=True)
        rng = Random(4)
        for _ in range(2000):
            ctl.access(rng.randrange(ctl.num_blocks), "read")
        assert ctl.stash.peak_real < ctl.config.stash_capacity


class TestRingMechanics:
    def test_reads_touch_one_block_per_bucket(self):
        ctl = make(dram=True)
        r = ctl.access(1, "read")
        # L+1 blocks on the bus for the read (plus any reshuffle traffic).
        assert ctl.stats_blocks_on_bus >= ctl.config.levels + 1

    def test_reshuffles_triggered_by_s_touches(self):
        ctl = make(s=2, a=10_000)  # evictions essentially disabled
        rng = Random(1)
        for _ in range(50):
            ctl.access(rng.randrange(ctl.num_blocks), "read")
        assert ctl.stats_reshuffles > 0

    def test_ring_read_cheaper_than_path_oram(self):
        # The selling point: RO accesses move L+1 blocks, not Z*(L+1).
        ctl = make(dram=True)
        r = ctl.access(2, "read")
        from repro.mem.dram import DramModel

        full_path = DramModel(
            DramConfig(), ctl.config.levels, ctl.config.slots_per_bucket
        ).read_path(0.0)
        assert (r.data_ready - r.issue) < full_path.finish


class TestShadowIntegration:
    def _hot_run(self, enable_shadows):
        ctl = make(enable_shadows=enable_shadows, seed=11, dram=True)
        rng = Random(12)
        latencies = []
        now = 0.0
        hot = list(range(10))
        for _ in range(1200):
            addr = hot[rng.randrange(10)] if rng.random() < 0.6 else (
                rng.randrange(ctl.num_blocks)
            )
            r = ctl.access(addr, "read", now=now)
            latencies.append(r.data_ready - r.issue)
            now = r.finish + 50
        return ctl, sum(latencies) / len(latencies)

    def test_shadows_serve_requests(self):
        ctl, _lat = self._hot_run(True)
        assert ctl.stats_shadow_serves > 0

    def test_shadows_reduce_mean_latency(self):
        _ctl_off, lat_off = self._hot_run(False)
        _ctl_on, lat_on = self._hot_run(True)
        assert lat_on < lat_off

    def test_no_shadows_without_flag(self):
        ctl, _ = self._hot_run(False)
        assert ctl.stats_shadow_serves == 0
        assert ctl.tree.count_blocks()[1] == 0


class TestRingSecurity:
    def test_observable_leaves_uniform(self):
        cfg = RingConfig(levels=6, enable_shadows=True)
        obs = AccessPatternObserver()
        ctl = RingOramController(cfg, Random(0), observer=obs)
        rng = Random(1)
        for _ in range(1200):
            ctl.access(rng.randrange(ctl.num_blocks), "read")
        reads = obs.read_leaves()
        assert chi_square_uniformity(reads, cfg.num_leaves, bins=16) < 60
