"""Shadow-block ORAM controller: the paper's primary contribution.

:class:`ShadowOramController` extends the Tiny ORAM baseline with the
mechanisms of Sections IV and V:

* **shadow generation** during path writes (Algorithm 1): dummy slots are
  filled with re-encrypted copies of blocks just evicted on the same path,
  selected by RD-Dup or HD-Dup according to the partitioning level;
* **early forwarding** during path reads (Algorithm 2): the first arriving
  copy of the intended block — usually a root-ward shadow — un-stalls the
  CPU, while the access pattern seen by the adversary stays bit-identical
  to Tiny ORAM;
* **shadow stash hits**: read misses whose data sits in a stashed shadow
  block are served on chip without issuing an ORAM request at all (the
  HD-Dup payoff);
* the **Hot Address Cache**, **RD/HD queues** and the **DRI-counter
  partitioning** (static or dynamic).

The external behaviour (which paths are read/written and when) is
unchanged from the baseline — the security tests in
``tests/security`` verify this trace-for-trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.core.config import ShadowConfig
from repro.core.hot_cache import HotAddressCache
from repro.core.partition import (
    DUMMY,
    REAL,
    DynamicPartitionPolicy,
    PartitionPolicy,
)
from repro.core.queues import place_shadows
from repro.mem.dram import DramModel, PathTimer
from repro.obs.events import (
    DUP_HD,
    DUP_RD,
    BlockServed,
    DuplicationPlaced,
    EventBus,
    SpanFinished,
    SpanStarted,
)
from repro.oram.block import Block
from repro.oram.config import OramConfig
from repro.oram.tiny import (
    SERVED_SHADOW_STASH,
    AccessResult,
    Observer,
    TinyOramController,
)


@dataclass(slots=True)
class ShadowStats:
    """Counters specific to the duplication machinery."""

    rd_shadows: int = 0
    hd_shadows: int = 0
    stash_shadow_reevictions: int = 0
    dummy_slots_seen: int = 0
    dummy_slots_filled: int = 0


class ShadowOramController(TinyOramController):
    """Tiny ORAM controller augmented with shadow-block duplication.

    Class attribute ``_STASH_SHADOW_CANDIDATES`` bounds how many stashed
    shadow blocks are considered for re-eviction per path write, modelling
    the fixed-size hardware queues of Section V-B-2.

    Args:
        config: Baseline ORAM geometry/protocol parameters.
        rng: Randomness source shared with the baseline.
        shadow_config: Duplication parameters (partitioning mode, queues,
            hot cache geometry).
        dram: Optional timing model.
        observer: Optional adversary-view callback.
    """

    _STASH_SHADOW_CANDIDATES = 32

    def __init__(
        self,
        config: OramConfig,
        rng: Random,
        shadow_config: ShadowConfig | None = None,
        dram: DramModel | None = None,
        observer: Observer | None = None,
        bus: EventBus | None = None,
        timer: PathTimer | None = None,
    ) -> None:
        super().__init__(
            config, rng, dram=dram, observer=observer, bus=bus, timer=timer
        )
        self.shadow_config = shadow_config or ShadowConfig()
        self.hot_cache = HotAddressCache(
            self.shadow_config.hot_cache_sets,
            self.shadow_config.hot_cache_ways,
            bus=self.bus,
        )
        self.partition = self._build_partition_policy()
        self.shadow_stats = ShadowStats()

    def _build_partition_policy(self) -> PartitionPolicy:
        max_level = self.config.levels + 1
        cfg = self.shadow_config
        if cfg.dynamic:
            initial = cfg.partition_level
            return DynamicPartitionPolicy(
                max_level,
                counter_bits=cfg.dri_counter_bits,
                initial_level=initial,
                bus=self.bus,
            )
        level = cfg.partition_level
        if level is None:
            level = max_level // 2
        return PartitionPolicy(min(level, max_level), max_level, bus=self.bus)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _try_onchip(
        self, addr: int, op: str, payload: object, now: float
    ) -> AccessResult | None:
        self.hot_cache.touch(addr)
        hit = super()._try_onchip(addr, op, payload, now)
        if hit is not None:
            return hit
        if op != "read" or not self.shadow_config.serve_shadow_read_hits:
            return None
        shadow = self.stash.lookup_shadow(addr)
        if shadow is None:
            return None
        # A stashed shadow holds data identical to the tree's original (the
        # single-version argument of Section IV-A), so a read can be served
        # on chip; no ORAM request is issued, exactly like a stash hit.
        self.stats.shadow_stash_hits += 1
        self.stats.onchip_serves += 1
        ready = now + self.config.onchip_latency
        if self.bus._subs:
            self.bus.emit(
                BlockServed(
                    addr=addr,
                    op=op,
                    source=SERVED_SHADOW_STASH,
                    level=-1,
                    onchip=True,
                    core=self.bus.core,
                    ts=ready,
                )
            )
        return AccessResult(
            addr=addr,
            op=op,
            served_from=SERVED_SHADOW_STASH,
            issue=now,
            data_ready=ready,
            finish=ready,
            value=shadow.payload,
            version=shadow.version,
        )

    def peek_onchip(self, addr: int, op: str) -> bool:
        if super().peek_onchip(addr, op):
            return True
        return (
            op == "read"
            and self.shadow_config.serve_shadow_read_hits
            and self.stash.lookup_shadow(addr) is not None
        )

    def _oram_access(
        self,
        addr: int,
        op: str,
        payload: object,
        leaf: int,
        new_leaf: int,
        now: float,
    ) -> AccessResult:
        self.partition.observe(REAL)
        return super()._oram_access(addr, op, payload, leaf, new_leaf, now)

    def dummy_access(self, now: float = 0.0) -> AccessResult:
        self.partition.observe(DUMMY)
        return super().dummy_access(now)

    def note_idle_gap(self, gap: float) -> None:
        """Report CPU idle time between requests (no-timing-protection mode).

        Dynamic partitioning converts long gaps into virtual dummy-request
        observations for its DRI counter; see :mod:`repro.core.partition`.
        """
        self.partition.observe_idle_gap(gap, self.shadow_config.dummy_threshold)

    # ------------------------------------------------------------------
    # Shadow bookkeeping on path reads
    # ------------------------------------------------------------------
    def _stash_insert(self, blk: Block, level: int) -> None:
        # The stash owns the merge rules and each shadow's source level
        # (Rule-2) and arrival stamp; this override only keeps the
        # per-class seam that ``perfbench/layers.py`` times by name.
        self.stash.insert(blk, level)

    # ------------------------------------------------------------------
    # Shadow generation on path writes (Algorithm 1)
    # ------------------------------------------------------------------
    def _fill_dummies(
        self,
        leaf: int,
        buf: list[Block | None],
        fill: list[int],
        placed: list[tuple[Block, int]],
    ) -> None:
        """Algorithm 1: gather duplication candidates, then place shadows.

        Candidates are the blocks just written back on this path plus the
        hottest few eligible stash shadows, those with a source level
        above the root (:meth:`Stash.evictable_shadows
        <repro.oram.stash.Stash.evictable_shadows>` ranks them against the
        Hot Address Cache's counters); selection and placement are
        :func:`repro.core.queues.place_shadows`, the routine Ring ORAM's
        path writes run too.  The differential suite checks it against
        the class-based queue oracle in ``tests/core/queue_oracle.py``.
        """
        cfg = self.config
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            bus.emit(SpanStarted(name="shadow_fill", ts=bus.now))
        # Hot-cache lookups are inlined (``hotness(addr)`` is one get on
        # the cache's merged view): this loop body runs for every
        # written-back block on every path write.
        hot_all = self.hot_cache._all
        hot_get = hot_all.get
        # Candidate arrays.  Indices < n_placed are blocks written back on
        # this very path (automatically Rule-1-safe); indices >= n_placed
        # are re-evicted stash shadows.
        bounds: list[int] = []
        hots: list[int] = []
        blocks: list[Block] = []
        for blk, level in placed:
            bounds.append(level)
            hots.append(hot_get(blk.addr, 0))
            blocks.append(blk)
        n_placed = len(blocks)
        # Evictable shadow blocks from the stash (Section V-B-2).  The
        # hardware queues are small, so cap the stash-shadow candidates to
        # the hottest few.
        stash = self.stash
        for sblk, lvl, hotness in stash.evictable_shadows(
            hot_all, self._STASH_SHADOW_CANDIDATES
        ):
            bounds.append(lvl)
            hots.append(hotness)
            blocks.append(sblk)

        on_place = None
        if observed:
            def on_place(copy: Block, level: int, use_hd: bool, idx: int) -> None:
                bus.emit(
                    DuplicationPlaced(
                        addr=copy.addr,
                        level=level,
                        kind=DUP_HD if use_hd else DUP_RD,
                        from_stash=idx >= n_placed,
                        ts=bus.now,
                    )
                )

        used, rd_selected, hd_selected = place_shadows(
            leaf, buf, fill, cfg.z, 0, blocks, bounds, n_placed,
            hots, self.partition.uses_hd, on_place,
        )
        sstats = self.shadow_stats
        sstats.rd_shadows += rd_selected
        sstats.hd_shadows += hd_selected
        sstats.dummy_slots_filled += rd_selected + hd_selected
        # Every path slot not taken by a real block was a dummy slot.
        sstats.dummy_slots_seen += (cfg.levels + 1) * cfg.z - sum(fill)

        # A stash shadow that produced at least one tree copy has been
        # "evicted": drop the on-chip copy (its slot becomes free).
        for idx in range(n_placed, len(blocks)):
            if used[idx]:
                stash.evict_shadow(blocks[idx].addr)
                sstats.stash_shadow_reevictions += 1
        if observed:
            bus.emit(SpanFinished(
                name="shadow_fill",
                ts=bus.now,
                detail=(
                    f"rd={rd_selected},hd={hd_selected},"
                    f"candidates={len(blocks)}"
                ),
            ))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        from repro.serialize import dataclass_to_dict

        state = super().snapshot_state()
        state["hot_cache"] = self.hot_cache.snapshot_state()
        state["partition"] = self.partition.snapshot_state()
        state["shadow_stats"] = dataclass_to_dict(self.shadow_stats)
        state["shadow_source_level"] = self.stash.source_levels()
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        from repro.serialize import dataclass_from_dict

        super().restore_state(state)
        self.hot_cache.restore_state(state["hot_cache"])
        self.partition.restore_state(state["partition"])
        self.shadow_stats = dataclass_from_dict(
            ShadowStats, state["shadow_stats"]
        )
        self.stash.restore_source_levels(state["shadow_source_level"])
