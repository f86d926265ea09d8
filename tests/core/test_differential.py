"""Differential tests: the shadow-selection routine vs the queue oracle.

:func:`repro.core.queues.place_shadows` flattens the class-based RD/HD
queues into parallel arrays (shared RD/HD candidate state, deferred
best-list sorts, a deepest-bound-first activation schedule).  The
queues survive as the oracle in ``tests/core/queue_oracle.py``; these
suites drive random workloads through controllers built on each and
assert the *entire* controller state stays bit-identical — every
placement decision, every statistic, every stash/tree mutation:

* the Tiny ORAM shadow controller, including under an injected bit flip
  healed by the recovery layer;
* Ring ORAM, whose reference also keeps its earlier eviction placement,
  tree bootstrap and read timing, so the switch to Tiny's substrate is
  checked along with the selection routine.
"""

from dataclasses import asdict
from operator import itemgetter
from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.mem.dram import DramConfig, PathTiming, _functional_offsets
from repro.obs.events import EventBus, SpanFinished, SpanStarted
from repro.oram.block import Block
from repro.oram.config import OramConfig
from repro.oram.ring import RingConfig, RingOramController
from repro.oram.stash import Stash
from repro.oram.tree import OramTree
from tests.core.queue_oracle import DupCandidate, hd_queue, rd_queue


class ReferenceShadowController(ShadowOramController):
    """Shadow controller whose path writes use the queue oracle.

    ``_fill_dummies`` here is the pre-refactor shape: build one
    :class:`DupCandidate` per written-back block and per eligible stash
    shadow, push each into *both* queues (shared ``level_bound`` state),
    and let :meth:`DuplicationQueue.select_many` pick per level.  The
    eligible stash shadows come from a full FIFO scan plus a stable
    descending hotness sort — the order the optimized hot-cache
    inversion reconstructs from arrival stamps.
    """

    def _fill_dummies(self, leaf, buf, fill, placed):
        cfg = self.config
        levels = cfg.levels
        hotness = self.hot_cache.hotness
        rd = rd_queue()
        hd = hd_queue()
        for blk, level in placed:
            cand = DupCandidate(
                block=blk, level_bound=level, hotness=hotness(blk.addr)
            )
            rd.push(cand)
            hd.push(cand)
        eligible = []
        for addr, sblk in self.stash._shadow.items():  # FIFO order
            lvl = self._shadow_source_level.get(addr, 0)
            if lvl > 0:
                eligible.append((hotness(addr), lvl, sblk))
        eligible.sort(key=itemgetter(0), reverse=True)  # stable: FIFO ties
        stash_cands = []
        for hot, lvl, sblk in eligible[: self._STASH_SHADOW_CANDIDATES]:
            cand = DupCandidate(
                block=sblk, level_bound=lvl, hotness=hot,
                from_stash_shadow=True,
            )
            rd.push(cand)
            hd.push(cand)
            stash_cands.append(cand)
        z = cfg.z
        sstats = self.shadow_stats
        uses_hd = self.partition.uses_hd
        for level in range(levels, -1, -1):
            free = z - fill[level]
            if free <= 0:
                continue
            sstats.dummy_slots_seen += free
            use_hd = uses_hd(level)
            queue = hd if use_hd else rd
            chosen = queue.select_many(level, free, leaf, levels)
            if not chosen:
                continue
            if use_hd:
                sstats.hd_shadows += len(chosen)
            else:
                sstats.rd_shadows += len(chosen)
            sstats.dummy_slots_filled += len(chosen)
            base = level * z + fill[level]
            for offset, cand in enumerate(chosen):
                buf[base + offset] = cand.block.shadow_copy()
        for cand in stash_cands:
            if cand.used:
                addr = cand.block.addr
                self.stash.remove_shadow(addr)
                self._shadow_source_level.pop(addr, None)
                sstats.stash_shadow_reevictions += 1


def _state_fingerprint(ctl):
    from repro.serialize import dataclass_to_dict

    return {
        "stats": dataclass_to_dict(ctl.stats),
        "shadow_stats": dataclass_to_dict(ctl.shadow_stats),
        "tree": ctl.tree.snapshot_state(),
        "stash": ctl.stash.snapshot_state(),
        "posmap": list(ctl.posmap._leaf),
        "hot_cache": ctl.hot_cache.snapshot_state(),
        "source_level": dict(ctl._shadow_source_level),
    }


operation = st.tuples(st.integers(min_value=0, max_value=31), st.booleans())


def _build(cls, seed, shadow):
    cfg = OramConfig(levels=5, z=4, a=3, utilization=0.25, stash_capacity=120)
    return cls(cfg, Random(seed), shadow)


@given(
    ops=st.lists(operation, min_size=5, max_size=80),
    partition_level=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_inline_fill_dummies_matches_queue_reference(ops, partition_level,
                                                     seed):
    shadow = ShadowConfig.static(min(partition_level, 6))
    optimized = _build(ShadowOramController, seed, shadow)
    reference = _build(ReferenceShadowController, seed, shadow)
    for i, (raw_addr, is_write) in enumerate(ops):
        results = []
        for ctl in (optimized, reference):
            addr = raw_addr % ctl.num_blocks
            if is_write:
                r = ctl.access(addr, "write", payload=i)
            else:
                r = ctl.access(addr, "read")
            results.append(
                (r.served_from, r.value, r.version, r.data_ready, r.finish)
            )
        assert results[0] == results[1], f"access {i} diverged"
    assert _state_fingerprint(optimized) == _state_fingerprint(reference)


@given(
    ops=st.lists(operation, min_size=5, max_size=60),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dynamic_partition_matches_queue_reference(ops, seed):
    shadow = ShadowConfig(dynamic=True)
    optimized = _build(ShadowOramController, seed, shadow)
    reference = _build(ReferenceShadowController, seed, shadow)
    rng = Random(seed ^ 0xD00D)
    for i, (raw_addr, is_write) in enumerate(ops):
        if rng.random() < 0.25:
            optimized.dummy_access()
            reference.dummy_access()
        for ctl in (optimized, reference):
            addr = raw_addr % ctl.num_blocks
            ctl.access(addr, "write" if is_write else "read",
                       payload=i if is_write else None)
    assert _state_fingerprint(optimized) == _state_fingerprint(reference)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(
    max_examples=5, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_inline_selection_matches_reference_under_bit_flip_recovery(seed):
    """Both forms heal the same injected flip to the same final state."""
    def build(cls):
        cfg = OramConfig(levels=5, z=4, a=3, integrity=True,
                         recovery="recover", scrub_interval=1)
        return cls(cfg, Random(seed), ShadowConfig.static(3))

    optimized = build(ShadowOramController)
    reference = build(ReferenceShadowController)
    rng = Random(seed ^ 0xF11F)
    ops = [(rng.randrange(40), rng.random() < 0.3) for _ in range(40)]
    for i, (raw_addr, is_write) in enumerate(ops):
        if i == 10:
            # Identical flip in both trees: first occupied slot, the
            # injector's mutation (version flip + payload wrap).
            for ctl in (optimized, reference):
                for _idx, _slot, blk in ctl.tree.iter_blocks():
                    blk.version ^= 1
                    blk.payload = ("bitflip", blk.payload)
                    break
        for ctl in (optimized, reference):
            addr = raw_addr % ctl.num_blocks
            ctl.access(addr, "write" if is_write else "read",
                       payload=i if is_write else None)
    assert optimized.recovery.stats.recoveries >= 1
    assert (optimized.recovery.stats.recoveries
            == reference.recovery.stats.recoveries)
    assert _state_fingerprint(optimized) == _state_fingerprint(reference)


# ----------------------------------------------------------------------
# Ring ORAM
# ----------------------------------------------------------------------


class _ReferenceReadTimer:
    """Ring's own read timing: a Z=1 DRAM model or an all-zero template,
    with the ``dram_read`` span emitted after the timing is computed."""

    def __init__(self, dram, levels, bus):
        self.dram = dram
        self.levels = levels
        self.bus = bus

    def read(self, now):
        if self.dram is None:
            timing = PathTiming(
                start=now,
                arrival_offsets=_functional_offsets(self.levels, 1),
                internal_finish=now,
                finish=now,
                activations=0,
                blocks_on_bus=self.levels + 1,
            )
        else:
            timing = self.dram.read_path(now)
        if self.bus._subs:
            self.bus.emit(SpanStarted(
                name="dram_read", ts=now,
                detail="functional" if self.dram is None else "stream",
            ))
            self.bus.emit(
                SpanFinished(name="dram_read", ts=timing.internal_finish)
            )
        return timing


class ReferenceRingController(RingOramController):
    """Ring ORAM with its own substrate: queue-based shadow selection, an
    inline deepest-first eviction placement, its own tree bootstrap and
    its own read timing."""

    def __init__(self, config, rng, dram_config=None, observer=None,
                 bus=None):
        super().__init__(config, rng, dram_config=dram_config,
                         observer=observer, bus=bus)
        self._read_timer = _ReferenceReadTimer(
            self._read_timer.dram, config.levels, self.bus
        )
        # Bootstrap draws no randomness: redo it on a fresh tree + stash.
        self.tree = OramTree(config.levels, config.slots_per_bucket)
        self.stash = Stash(config.stash_capacity)
        self._bootstrap()

    def _bootstrap(self):
        cfg = self.config
        slots = self.tree._slots
        spb = cfg.slots_per_bucket
        levels = cfg.levels
        fill = [0] * self.tree.num_buckets
        for addr in range(cfg.num_blocks):
            leaf = self.posmap.lookup(addr)
            blk = Block(addr=addr, leaf=leaf, version=0)
            level = levels
            while level >= 0:
                idx = (1 << level) - 1 + (leaf >> (levels - level))
                if fill[idx] < cfg.z:
                    slots[idx * spb + fill[idx]] = blk
                    fill[idx] += 1
                    break
                level -= 1
            else:
                self.stash.insert(blk)

    def _evict(self, now):
        cfg = self.config
        g = self._eviction_counter % cfg.num_leaves
        self._eviction_counter += 1
        leaf = self._rev_table[g]
        self.stats_evictions += 1
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            bus.emit(SpanStarted(name="eviction", ts=now, detail=f"leaf={leaf}"))
        if self.observer is not None:
            self.observer(("write", leaf, now))
        for level in range(cfg.levels + 1):
            idx = self.tree.bucket_index(leaf, level)
            bucket = self.tree.bucket(idx)
            for slot, blk in enumerate(bucket):
                if blk is not None:
                    bucket[slot] = None
                    self.stash.insert(blk)
            self._meta[idx].touched = [False] * cfg.slots_per_bucket
            self._meta[idx].reads = 0
        # Greedy deepest-first placement: a stable sort on the deepest
        # legal level, leaf-ward first.
        levels = cfg.levels
        spb = cfg.slots_per_bucket
        fill = [0] * (levels + 1)
        placed = []
        buf = [None] * ((levels + 1) * spb)
        deepest = sorted(
            self.stash.iter_real(),
            key=lambda b: OramTree.common_level(b.leaf, leaf, levels),
            reverse=True,
        )
        for blk in deepest:
            level = OramTree.common_level(blk.leaf, leaf, levels)
            while level >= 0 and fill[level] >= cfg.z:
                level -= 1
            if level < 0:
                continue
            buf[level * spb + fill[level]] = blk
            fill[level] += 1
            placed.append((blk, level))
        for blk, _level in placed:
            self.stash.remove_real(blk.addr)
        if cfg.enable_shadows:
            if observed:
                bus.emit(SpanStarted(name="shadow_fill", ts=now))
            self._fill_shadows(leaf, buf, fill, placed)
            if observed:
                bus.emit(SpanFinished(name="shadow_fill", ts=now))
        self.tree.write_path_buffer(leaf, buf)
        self.stats_blocks_on_bus += 2 * (cfg.levels + 1) * cfg.slots_per_bucket
        end = now
        if self._dram_bulk is not None:
            timing = self._dram_bulk.write_path(now)
            end = timing.finish + (timing.finish - timing.start)
            if observed:
                bus.emit(SpanStarted(name="dram_write", ts=now))
                bus.emit(
                    SpanFinished(name="dram_write", ts=timing.internal_finish)
                )
        if observed:
            bus.emit(SpanFinished(name="eviction", ts=end))
        return end

    def _fill_shadows(self, leaf, buf, fill, placed):
        cfg = self.config
        spb = cfg.slots_per_bucket
        queue = rd_queue()
        for blk, level in placed:
            queue.push(DupCandidate(block=blk, level_bound=level))
        for level in range(cfg.levels, -1, -1):
            free = spb - fill[level]
            if free <= 0:
                continue
            # Keep at least one untouchable dummy per bucket.
            chosen = queue.select_many(level, max(0, free - 1), leaf, cfg.levels)
            for offset, cand in enumerate(chosen):
                buf[level * spb + fill[level] + offset] = cand.block.shadow_copy()


def _ring_run(cls, config, seed, dram, ops):
    bus = EventBus()
    events = []
    bus.subscribe(events.append)
    adversary = []
    ctl = cls(config, Random(seed), dram_config=DramConfig() if dram else None,
              observer=adversary.append, bus=bus)
    results = []
    now = 0.0
    for i, (raw_addr, is_write) in enumerate(ops):
        addr = raw_addr % ctl.num_blocks
        if is_write:
            r = ctl.access(addr, "write", payload=i, now=now)
        else:
            r = ctl.access(addr, "read", now=now)
        results.append(asdict(r))
        now = r.finish + 7
    return {
        "results": results,
        "adversary": adversary,
        "events": events,
        "tree": ctl.tree.snapshot_state(),
        "stash": ctl.stash.snapshot_state(),
        "posmap": ctl.posmap.snapshot_state(),
        "stats": {k: v for k, v in vars(ctl).items() if k.startswith("stats_")},
        "rng": ctl.rng.getstate(),
    }


@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
        min_size=5, max_size=150,
    ),
    levels=st.integers(min_value=2, max_value=5),
    s=st.sampled_from([1, 2, 6]),
    a=st.sampled_from([1, 3]),
    shadows=st.booleans(),
    dram=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_ring_matches_reference_substrate(ops, levels, s, a, shadows, dram,
                                          seed):
    config = RingConfig(levels=levels, s=s, a=a, enable_shadows=shadows)
    refactored = _ring_run(RingOramController, config, seed, dram, ops)
    reference = _ring_run(ReferenceRingController, config, seed, dram, ops)
    for key in refactored:
        assert refactored[key] == reference[key], f"{key} diverged"
