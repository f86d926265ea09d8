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

from repro.obs.events import EventBus, StashOccupancy
from repro.oram.block import Block


class StashOverflowError(RuntimeError):
    """Raised when more real blocks are inserted than the stash can hold.

    With the configurations used in the paper (and in our defaults) this is
    a negligible-probability event; seeing it in a simulation means the
    ORAM was configured with too much load (utilization) for its stash.
    """


class Stash:
    """Bounded stash holding real blocks plus replaceable shadow blocks.

    Args:
        capacity: Maximum number of *real* blocks (paper: ``M``, e.g. 200).
            Shadow blocks squat in whatever space is left and are evicted
            FIFO when a real block needs their slot.
        bus: Observability bus; occupancy events are emitted after every
            mutation while subscribers are attached (timestamped with the
            bus's ambient clock).
    """

    def __init__(self, capacity: int, bus: EventBus | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"stash capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.bus = bus if bus is not None else EventBus()
        self._real: dict[int, Block] = {}
        self._shadow: dict[int, Block] = {}
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

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, blk: Block) -> None:
        """Insert a block arriving from a path read, applying merge rules.

        Merge semantics (Section IV-A):

        * incoming real + stashed shadow -> shadows discarded, real kept;
        * incoming shadow + stashed real -> incoming discarded;
        * incoming shadow + stashed shadow -> merged into a single shadow.
        """
        real = self._real
        shadow = self._shadow
        addr = blk.addr
        if blk.is_shadow:
            if addr in real or addr in shadow:
                self.merges += 1
                return
            if len(real) + len(shadow) + 1 > self.capacity and shadow:
                # FIFO shadow drop: the insertion-ordered ``_shadow`` dict
                # is the shadow free-list, its first key the oldest entry.
                del shadow[next(iter(shadow))]
                self.shadow_drops += 1
            shadow[addr] = blk
            if self.bus._subs:
                self._emit_occupancy()
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
            del shadow[next(iter(shadow))]
            self.shadow_drops += 1
        if nreal > self.peak_real:
            self.peak_real = nreal
        if self.bus._subs:
            self._emit_occupancy()

    def remove_real(self, addr: int) -> Block:
        """Remove and return the real block for ``addr`` (after eviction).

        The paper marks evicted blocks *replaceable* and reuses their slots;
        dropping the entry entirely is the equivalent software model — the
        authoritative copy now lives in the tree.
        """
        blk = self._real.pop(addr)
        if self.bus._subs:
            self._emit_occupancy()
        return blk

    def remove_shadow(self, addr: int) -> Block | None:
        """Remove and return the shadow block for ``addr`` if present."""
        blk = self._shadow.pop(addr, None)
        if blk is not None and self.bus._subs:
            self._emit_occupancy()
        return blk

    def discard(self, addr: int) -> None:
        """Drop every copy of ``addr`` (used when data is invalidated)."""
        self._real.pop(addr, None)
        self._shadow.pop(addr, None)

    def repair_shadow(self, addr: int, blk: Block) -> None:
        """Replace the stashed shadow for ``addr`` with a healed copy.

        HD-Dup keeps the *same object* in the stash's shadow store and in
        the tree slot it was absorbed from, so a fault that corrupts the
        tree copy corrupts the stash alias too.  Recovery calls this to
        re-sync the stash after healing the tree slot.  Assigning to an
        existing key preserves dict order, so the FIFO shadow-drop
        sequence — and with it bit-identity — is unaffected.
        """
        if addr in self._shadow:
            self._shadow[addr] = blk

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable rendering; preserves FIFO insertion order."""
        from repro.oram.block import block_to_jsonable

        return {
            "real": [block_to_jsonable(blk) for blk in self._real.values()],
            "shadow": [block_to_jsonable(blk) for blk in self._shadow.values()],
            "peak_real": self.peak_real,
            "shadow_drops": self.shadow_drops,
            "merges": self.merges,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        from repro.oram.block import block_from_jsonable

        self._real = {}
        for data in state["real"]:
            blk = block_from_jsonable(data)
            self._real[blk.addr] = blk
        self._shadow = {}
        for data in state["shadow"]:
            blk = block_from_jsonable(data)
            self._shadow[blk.addr] = blk
        self.peak_real = state["peak_real"]
        self.shadow_drops = state["shadow_drops"]
        self.merges = state["merges"]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _emit_occupancy(self) -> None:
        bus = self.bus
        bus.emit(
            StashOccupancy(
                real=len(self._real), shadow=len(self._shadow), ts=bus.now
            )
        )
