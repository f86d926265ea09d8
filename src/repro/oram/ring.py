"""Ring ORAM substrate with optional shadow-block duplication.

Section II-C notes that shadow blocks apply "to any other ORAMs that
utilize dummy blocks, such as Ring ORAM"; this module demonstrates that
claim.  Ring ORAM (Ren et al.) differs from Tiny/Path ORAM in that a
read-only access fetches **one block per bucket** along the path — the
real block in the bucket that holds it, a fresh dummy everywhere else —
so reads cost ``L + 1`` blocks instead of ``Z * (L + 1)``.  Buckets carry
``S`` extra dummy slots and must be reshuffled (read + rewritten) after
``S`` single-block touches so no slot is ever read twice between
re-encryptions.

Shadow integration: during path writes (evictions and reshuffles) the
leftover dummy slots are filled with copies of the just-written blocks,
exactly as in the Tiny ORAM controller (Rule-1/2/3 of Section IV-A carry
over unchanged).  On a later read, a bucket that holds a *shadow of the
intended address* serves it as its one touched block — indistinguishable
from a dummy touch, because slot choices are hidden by the same
metadata-privacy argument Ring ORAM already relies on — and the CPU
un-stalls at that (root-ward) bucket's arrival time.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.core.queues import place_shadows
from repro.mem.dram import DramModel, PathTimer
from repro.obs.events import EventBus, SpanFinished, SpanStarted
from repro.oram.block import Block
from repro.oram.derived import bit_reverse_table
from repro.oram.posmap import PositionMap
from repro.oram.stash import Stash
from repro.oram.tiny import (
    AccessResult,
    Observer,
    bootstrap_tree,
    place_deepest_first,
)
from repro.oram.tree import OramTree


@dataclass(frozen=True, slots=True)
class RingConfig:
    """Ring ORAM parameters.

    Attributes:
        levels: Leaf level ``L``.
        z: Real-block slots per bucket.
        s: Extra dummy slots per bucket (the "ring"); a bucket is
            reshuffled after ``s`` single-block touches.
        a: Eviction rate (one reverse-lexicographic eviction per ``a``
            accesses), as in Ring ORAM's A parameter.
        utilization: Data blocks as a fraction of *real* slots.
        stash_capacity: Stash bound in real blocks.
        enable_shadows: Fill spare dummy slots with shadow copies.
        onchip_latency: Cycles for stash hits.
    """

    levels: int = 10
    z: int = 4
    s: int = 6
    a: int = 3
    utilization: float = 0.5
    stash_capacity: int = 400
    enable_shadows: bool = False
    onchip_latency: float = 4.0

    def __post_init__(self) -> None:
        if self.levels < 1 or self.z < 1 or self.s < 1 or self.a < 1:
            raise ValueError("levels, z, s and a must all be positive")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1], got {self.utilization}")

    @property
    def slots_per_bucket(self) -> int:
        return self.z + self.s

    @property
    def num_leaves(self) -> int:
        return 1 << self.levels

    @property
    def num_buckets(self) -> int:
        return (1 << (self.levels + 1)) - 1

    @property
    def num_blocks(self) -> int:
        real_slots = self.num_buckets * self.z
        return max(1, int(real_slots * self.utilization))


class _BucketMeta:
    """Controller-side metadata for one Ring bucket (valid/touched bits)."""

    __slots__ = ("touched", "reads")

    def __init__(self, slots: int) -> None:
        self.touched = [False] * slots
        self.reads = 0


class RingOramController:
    """Functional + timed Ring ORAM controller with optional shadows.

    The Path ORAM substrate is Tiny ORAM's: bootstrap, deepest-first
    eviction placement and shadow selection are the same routines, run
    with ``z`` real slots per ``z + s``-slot bucket.

    Timing: read-only accesses touch one block per bucket (a
    :class:`~repro.mem.dram.PathTimer` over a Z=1 DRAM geometry);
    evictions and reshuffles move whole buckets (modelled with the full
    ``z + s`` geometry).
    """

    def __init__(
        self,
        config: RingConfig,
        rng: Random,
        dram_config=None,
        observer: Observer | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self.config = config
        self.rng = rng
        self.observer = observer
        self.bus = bus if bus is not None else EventBus()
        self.tree = OramTree(config.levels, config.slots_per_bucket)
        self.stash = Stash(config.stash_capacity)
        self.posmap = PositionMap(config.num_blocks, config.num_leaves, rng)
        self._meta = [
            _BucketMeta(config.slots_per_bucket) for _ in range(self.tree.num_buckets)
        ]
        self._dram_bulk = None
        dram_read = None
        if dram_config is not None:
            dram_read = DramModel(dram_config, config.levels, 1)
            self._dram_bulk = DramModel(
                dram_config, config.levels, config.slots_per_bucket
            )
        self._read_timer = PathTimer(dram_read, config.levels, 1, bus=self.bus)
        self._access_count = 0
        self._eviction_counter = 0
        self._rev_table = bit_reverse_table(config.levels)
        self.stats_reads = 0
        self.stats_evictions = 0
        self.stats_reshuffles = 0
        self.stats_shadow_serves = 0
        self.stats_stash_hits = 0
        self.stats_blocks_on_bus = 0
        bootstrap_tree(
            self.tree, self.posmap, self.stash, config.num_blocks, config.z
        )

    @property
    def num_blocks(self) -> int:
        return self.config.num_blocks

    # ------------------------------------------------------------------
    def access(
        self, addr: int, op: str = "read", payload: object = None, now: float = 0.0
    ) -> AccessResult:
        """Serve one request: Ring RO access + scheduled eviction."""
        if not 0 <= addr < self.config.num_blocks:
            raise ValueError(f"address {addr} out of range")
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            bus.now = now
            bus.emit(SpanStarted(name="oram_access", ts=now, addr=addr, detail=op))
        blk = self.stash.lookup_real(addr)
        if blk is not None:
            if op == "write":
                blk.payload = payload
                blk.version += 1
            self.stats_stash_hits += 1
            ready = now + self.config.onchip_latency
            if observed:
                bus.emit(SpanStarted(name="stash_scan", ts=now))
                bus.emit(SpanFinished(name="stash_scan", ts=ready, detail="hit"))
                bus.emit(SpanFinished(name="oram_access", ts=ready))
            return AccessResult(
                addr=addr, op=op, served_from="stash", issue=now,
                data_ready=ready, finish=ready, value=blk.payload,
                version=blk.version,
            )
        if observed:
            bus.emit(SpanStarted(name="stash_scan", ts=now))
            bus.emit(SpanFinished(name="stash_scan", ts=now, detail="miss"))

        leaf = self.posmap.lookup(addr)
        new_leaf = self.posmap.remap(addr)
        data_ready, served_from, finish = self._read_only_access(addr, leaf, now)
        blk = self.stash.lookup_real(addr)
        if blk is None:
            raise RuntimeError(f"Ring ORAM invariant violated for addr {addr}")
        blk.leaf = new_leaf
        if op == "write":
            blk.payload = payload
            blk.version += 1
        if data_ready is None:
            data_ready = now + self.config.onchip_latency
            served_from = "shadow_stash"

        self._access_count += 1
        evicted = False
        if self._access_count % self.config.a == 0:
            finish = self._evict(finish)
            evicted = True
        if observed:
            if (
                served_from in ("shadow_path", "shadow_stash")
                and data_ready <= finish
            ):
                bus.emit(
                    SpanStarted(
                        name="shadow_serve",
                        ts=data_ready,
                        addr=addr,
                        detail=served_from,
                    )
                )
                bus.emit(SpanFinished(name="shadow_serve", ts=data_ready))
            bus.emit(SpanFinished(name="oram_access", ts=finish))
        return AccessResult(
            addr=addr, op=op, served_from=served_from, issue=now,
            data_ready=data_ready, finish=finish, value=blk.payload,
            version=blk.version, evicted=evicted, path_accesses=1,
        )

    # ------------------------------------------------------------------
    def _read_only_access(
        self, addr: int, leaf: int, now: float
    ) -> tuple[float | None, str | None, float]:
        """Touch one block per bucket along ``leaf``'s path."""
        cfg = self.config
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            bus.emit(SpanStarted(name="path_read", ts=now, detail="ro"))
        timing = self._read_timer.read(now)
        self.stats_reads += 1
        self.stats_blocks_on_bus += cfg.levels + 1
        if self.observer is not None:
            self.observer(("read", leaf, now))

        data_ready: float | None = None
        served_from: str | None = None
        finish = timing.finish
        for level in range(cfg.levels + 1):
            idx = self.tree.bucket_index(leaf, level)
            bucket = self.tree.bucket(idx)
            meta = self._meta[idx]
            arrival = timing.arrival(level, 0)

            slot = self._slot_holding(bucket, meta, addr)
            if slot is not None:
                blk = bucket[slot]
                if data_ready is None:
                    data_ready = arrival
                    served_from = "shadow_path" if blk.is_shadow else "path"
                    if blk.is_shadow:
                        self.stats_shadow_serves += 1
                bucket[slot] = None
                if not blk.is_shadow:
                    self.stash.insert(blk)
            else:
                slot, finish = self._dummy_touch(idx, finish)
                blk = bucket[slot]
                if blk is not None and blk.is_shadow:
                    # A "dummy" touch that lands on a shadow caches it in
                    # the stash (replaceable) — the Ring-flavoured HD-Dup
                    # effect.  The attacker sees one slot read either way.
                    bucket[slot] = None
                    self.stash.insert(blk)
            meta.touched[slot] = True
            meta.reads += 1
            if meta.reads >= cfg.s:
                finish = self._reshuffle(idx, finish)
        # Remaining copies of addr along the path (shadows in buckets whose
        # touched slot was something else) are stale after the remap: purge.
        self._purge_copies(leaf, addr)
        if observed:
            bus.emit(SpanFinished(name="path_read", ts=finish))
        return data_ready, served_from, finish

    def _slot_holding(self, bucket, meta: _BucketMeta, addr: int) -> int | None:
        """Untouched slot holding a (real or shadow) copy of ``addr``."""
        for slot, blk in enumerate(bucket):
            if blk is not None and blk.addr == addr and not meta.touched[slot]:
                return slot
        return None

    def _dummy_touch(self, bucket_index: int, now: float) -> tuple[int, float]:
        """Pick an untouched dummy slot (true dummy or foreign shadow).

        Real blocks are never touched by dummy reads — the controller's
        metadata knows where they are, exactly as in Ring ORAM — so a
        requested block's slot always remains readable.  An exhausted
        bucket forces an early reshuffle first.
        """
        meta = self._meta[bucket_index]
        bucket = self.tree.bucket(bucket_index)
        candidates = [
            slot
            for slot, touched in enumerate(meta.touched)
            if not touched
            and (bucket[slot] is None or bucket[slot].is_shadow)
        ]
        if not candidates:
            now = self._reshuffle(bucket_index, now)
            candidates = [
                slot
                for slot, blk in enumerate(bucket)
                if blk is None or blk.is_shadow
            ]
            if not candidates:
                # Bucket packed with real blocks: touch any slot; the read
                # is still indistinguishable (single re-encrypted block).
                candidates = list(range(self.config.slots_per_bucket))
        return self.rng.choice(candidates), now

    def _purge_copies(self, leaf: int, addr: int) -> None:
        for level in range(self.config.levels + 1):
            bucket = self.tree.bucket(self.tree.bucket_index(leaf, level))
            for slot, blk in enumerate(bucket):
                if blk is not None and blk.addr == addr:
                    bucket[slot] = None

    # ------------------------------------------------------------------
    def _reshuffle(self, bucket_index: int, now: float) -> float:
        """Re-encrypt and rewrite one exhausted bucket."""
        self.stats_reshuffles += 1
        meta = self._meta[bucket_index]
        meta.touched = [False] * self.config.slots_per_bucket
        meta.reads = 0
        self.stats_blocks_on_bus += 2 * self.config.slots_per_bucket
        end = now
        if self._dram_bulk is not None:
            # One bucket in, one bucket out at bulk rate.
            per_bucket = (
                self.config.slots_per_bucket
                * self._dram_bulk.config.block_transfer_cycles
            )
            end = now + 2 * per_bucket
        if self.bus._subs:
            self.bus.emit(
                SpanStarted(
                    name="reshuffle", ts=now, detail=f"bucket={bucket_index}"
                )
            )
            self.bus.emit(SpanFinished(name="reshuffle", ts=end))
        return end

    def _evict(self, now: float) -> float:
        """Reverse-lexicographic eviction: absorb + rewrite one path."""
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

        # Absorb every valid block on the path.
        for level in range(cfg.levels + 1):
            idx = self.tree.bucket_index(leaf, level)
            bucket = self.tree.bucket(idx)
            for slot, blk in enumerate(bucket):
                if blk is not None:
                    bucket[slot] = None
                    self.stash.insert(blk)
            self._meta[idx].touched = [False] * cfg.slots_per_bucket
            self._meta[idx].reads = 0

        buf, fill, placed = place_deepest_first(
            self.stash, leaf, cfg.levels, cfg.z, cfg.slots_per_bucket
        )
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
            read_cost = timing.finish - timing.start  # symmetric read first
            end = timing.finish + read_cost
            if observed:
                bus.emit(SpanStarted(name="dram_write", ts=now))
                bus.emit(
                    SpanFinished(name="dram_write", ts=timing.internal_finish)
                )
        if observed:
            bus.emit(SpanFinished(name="eviction", ts=end))
        return end

    def _fill_shadows(
        self,
        leaf: int,
        buf: list[Block | None],
        fill: list[int],
        placed: list[tuple[Block, int]],
    ) -> None:
        """RD-Dup over the ring's spare dummy slots (Section II-C claim).

        Tiny ORAM's selection routine with one dummy per bucket held back,
        so dummy touches stay available between reshuffles.
        """
        place_shadows(
            leaf, buf, fill, self.config.slots_per_bucket, 1,
            [blk for blk, _level in placed],
            [level for _blk, level in placed],
            len(placed),
        )
