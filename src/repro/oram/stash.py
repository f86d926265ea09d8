"""On-chip stash with shadow-block awareness.

The stash is a small content-addressable memory inside the trusted ORAM
controller (Section II-C).  It temporarily holds real data blocks between a
path read and a later eviction.  Shadow-block support (Section V-A) changes
it in two ways:

* a shadow block loaded from the tree is kept, but marked *replaceable*
  (Rule-3): it behaves as a free slot and may be silently dropped whenever a
  real block needs the space.  Overflow is therefore determined by real
  blocks only — exactly as in Tiny ORAM, which is the paper's stash-overflow
  security argument (Section IV-B-2).
* a *merge* operation resolves multiple copies of the same address: a real
  block always wins over its shadows; several shadows collapse into one.

The class tracks the peak number of real blocks so tests can compare
occupancy distributions against the baseline.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.oram.block import Block


class StashOverflowError(RuntimeError):
    """Raised when more real blocks are inserted than the stash can hold.

    With the configurations used in the paper (and in our defaults) this is
    a negligible-probability event; seeing it in a simulation means the
    ORAM was configured with too much load (utilization) for its stash.
    """


class Stash:
    """Bounded stash holding real blocks plus replaceable shadow blocks.

    Real blocks live in an addr-keyed dict; shadow blocks in an
    :class:`~collections.OrderedDict` whose order is the shadow FIFO, so
    dropping the oldest shadow is one ``popitem(last=False)``.  The stash
    also owns the Rule-2 bookkeeping of every shadow it keeps:

    * ``_shadow_source_level[addr]``: the tree level the shadow was read
      from.  A re-evicted copy must go strictly root-ward of it.  Set when
      a shadow is kept; dropped when a real copy of ``addr`` arrives, and
      by :meth:`evict_shadow`.  A shadow dropped FIFO or removed leaves a
      stale entry, which nothing reads (lookups go through the shadow
      store first) but checkpoints carry.
    * ``_shadow_seq[addr]``: a monotonic arrival stamp, so
      :meth:`evictable_shadows` can sort the shadows it collects out of
      FIFO order back into it.  Only relative order is ever compared.

    Args:
        capacity: Maximum number of *real* blocks (paper: ``M``, e.g. 200).
            Shadow blocks squat in whatever space is left and are evicted
            FIFO when a real block needs their slot.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"stash capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._real: dict[int, Block] = {}
        self._shadow: OrderedDict[int, Block] = OrderedDict()
        self._shadow_source_level: dict[int, int] = {}
        self._shadow_seq: dict[int, int] = {}
        self._shadow_seq_next = 0
        self.peak_real = 0
        self.shadow_drops = 0
        self.merges = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._real)

    @property
    def real_count(self) -> int:
        """Number of real (non-replaceable) blocks held."""
        return len(self._real)

    @property
    def shadow_count(self) -> int:
        """Number of shadow (replaceable) blocks held."""
        return len(self._shadow)

    def lookup(self, addr: int) -> Block | None:
        """Return the block for ``addr`` preferring the real copy."""
        blk = self._real.get(addr)
        if blk is not None:
            return blk
        return self._shadow.get(addr)

    def lookup_real(self, addr: int) -> Block | None:
        """Return the real block for ``addr`` if present."""
        return self._real.get(addr)

    def lookup_shadow(self, addr: int) -> Block | None:
        """Return the shadow block for ``addr`` if present."""
        return self._shadow.get(addr)

    def real_blocks(self) -> list[Block]:
        """Snapshot of all real blocks (eviction candidates)."""
        return list(self._real.values())

    def shadow_blocks(self) -> list[Block]:
        """Snapshot of all shadow blocks (re-duplication candidates)."""
        return list(self._shadow.values())

    def iter_real(self):
        """Live view over real blocks in insertion order (no copy).

        The eviction hot path scans this every path write; callers must
        not mutate the stash while iterating (collect first, remove
        after), which is what :meth:`real_blocks`'s copy used to paper
        over at O(stash) cost per scan.
        """
        return self._real.values()

    def evictable_shadows(
        self, hotness: dict[int, int], cap: int
    ) -> list[tuple[Block, int, int]]:
        """Up to ``cap`` stashed shadows to offer a path write, best first.

        Only shadows read from below the root qualify (Rule-2 puts a
        re-evicted copy strictly root-ward of its source level).  They
        rank by hotness descending, ties in FIFO order: the order a full
        FIFO scan plus a stable descending sort gives.  ``hotness`` maps
        the tracked addresses to positive counters (the Hot Address
        Cache's merged view); any other address has hotness 0.  So the
        tracked shadows, found by one key intersection and sorted once on
        (hotness descending, arrival stamp), rank first, and a FIFO walk
        that skips tracked addresses tops the list up to ``cap`` without
        touching every stashed shadow.

        Returns ``(block, source_level, hotness)`` triples.
        """
        shadow = self._shadow
        get_level = self._shadow_source_level.get
        arrival = self._shadow_seq
        hot: list[tuple[int, int, int, Block]] = []
        for addr in hotness.keys() & shadow.keys():
            lvl = get_level(addr, 0)
            if lvl > 0:
                hot.append((-hotness[addr], arrival[addr], lvl, shadow[addr]))
        hot.sort()
        out = [(sblk, lvl, -neg) for neg, _arrival, lvl, sblk in hot[:cap]]
        cold_needed = cap - len(out)
        if cold_needed > 0:
            for addr, sblk in shadow.items():
                if addr in hotness:
                    continue
                lvl = get_level(addr, 0)
                if lvl > 0:
                    out.append((sblk, lvl, 0))
                    cold_needed -= 1
                    if cold_needed == 0:
                        break
        return out

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, blk: Block, level: int = 0) -> None:
        """Insert a block read from tree ``level``, applying merge rules.

        Merge semantics (Section IV-A):

        * incoming real + stashed shadow -> shadows discarded, real kept;
        * incoming shadow + stashed real -> incoming discarded;
        * incoming shadow + stashed shadow -> merged into a single shadow.

        A shadow only takes space that is left (Rule-3): in a full stash
        it replaces the oldest shadow, or is dropped itself when every
        entry is real.  A kept shadow records ``level`` as its source
        level and gets the next arrival stamp.
        """
        real = self._real
        shadow = self._shadow
        addr = blk.addr
        if blk.is_shadow:
            if addr in shadow or addr in real:
                self.merges += 1
                return
            if len(real) + len(shadow) >= self.capacity:
                self.shadow_drops += 1
                if not shadow:
                    return
                shadow.popitem(last=False)
            shadow[addr] = blk
            self._shadow_source_level[addr] = level
            self._shadow_seq[addr] = self._shadow_seq_next
            self._shadow_seq_next += 1
            return

        if shadow.pop(addr, None) is not None:
            self.merges += 1
        if addr in real:
            raise StashOverflowError(
                f"duplicate real block for addr {addr}: the single-version "
                "invariant was violated upstream"
            )
        nreal = len(real)
        if nreal >= self.capacity:
            raise StashOverflowError(
                f"stash overflow: capacity {self.capacity} exceeded"
            )
        real[addr] = blk
        nreal += 1
        if nreal + len(shadow) > self.capacity and shadow:
            shadow.popitem(last=False)
            self.shadow_drops += 1
        if nreal > self.peak_real:
            self.peak_real = nreal
        self._shadow_source_level.pop(addr, None)

    def remove_real(self, addr: int) -> Block:
        """Remove and return the real block for ``addr`` (after eviction).

        The paper marks evicted blocks *replaceable* and reuses their slots;
        dropping the entry entirely is the equivalent software model — the
        authoritative copy now lives in the tree.
        """
        return self._real.pop(addr)

    def remove_shadow(self, addr: int) -> Block | None:
        """Remove and return the shadow block for ``addr`` if present."""
        return self._shadow.pop(addr, None)

    def evict_shadow(self, addr: int) -> None:
        """Drop the stashed shadow for ``addr`` once a path write has
        copied it back into the tree, and forget its source level.

        :meth:`remove_shadow` keeps the level entry; recovery relies on
        that to leave the checkpointed bookkeeping as it was.
        """
        self.remove_shadow(addr)
        self._shadow_source_level.pop(addr, None)

    def repair_shadow(self, addr: int, blk: Block) -> None:
        """Replace the stashed shadow for ``addr`` with a healed copy.

        HD-Dup keeps the *same object* in the stash's shadow store and in
        the tree slot it was absorbed from, so a fault that corrupts the
        tree copy corrupts the stash alias too.  Recovery calls this to
        re-sync the stash after healing the tree slot.  Assigning to an
        existing key preserves its FIFO position, so the shadow-drop
        sequence — and with it bit-identity — is unaffected.
        """
        if addr in self._shadow:
            self._shadow[addr] = blk

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable rendering; preserves FIFO insertion order.

        Source levels are not part of it: the shadow controller
        checkpoints :meth:`source_levels` next to the stash
        (``shadow_source_level``), so a baseline or Ring ORAM stash
        renders as it always has.
        """
        from repro.oram.block import block_to_jsonable

        return {
            "real": [block_to_jsonable(blk) for blk in self._real.values()],
            "shadow": [block_to_jsonable(blk) for blk in self._shadow.values()],
            "peak_real": self.peak_real,
            "shadow_drops": self.shadow_drops,
            "merges": self.merges,
        }

    def source_levels(self) -> list[list[int]]:
        """``[addr, level]`` source-level pairs in insertion order, stale
        entries included (the shadow controller's checkpoint field)."""
        return [
            [addr, level] for addr, level in self._shadow_source_level.items()
        ]

    def restore_source_levels(self, pairs: list[list[int]]) -> None:
        """Inverse of :meth:`source_levels`."""
        self._shadow_source_level = {
            int(addr): int(level) for addr, level in pairs
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`; source levels start empty
        (:meth:`restore_source_levels` brings them back).

        Restored shadows are re-stamped in their FIFO order.  The stamps
        differ from an uninterrupted run's, but only their relative order
        is compared, so the continuation stays bit-identical.
        """
        from repro.oram.block import block_from_jsonable

        self._real = {}
        for data in state["real"]:
            blk = block_from_jsonable(data)
            self._real[blk.addr] = blk
        self._shadow = OrderedDict()
        for data in state["shadow"]:
            blk = block_from_jsonable(data)
            self._shadow[blk.addr] = blk
        self._shadow_source_level = {}
        self._shadow_seq = {addr: seq for seq, addr in enumerate(self._shadow)}
        self._shadow_seq_next = len(self._shadow_seq)
        self.peak_real = state["peak_real"]
        self.shadow_drops = state["shadow_drops"]
        self.merges = state["merges"]
