"""Tiny ORAM baseline controller (Section II-C).

Tiny ORAM is the RAW-style Path ORAM the paper builds on: every LLC miss
becomes a read-only (RO) path access that absorbs the path into the stash,
and after every ``A`` RO accesses the controller performs one read-write
(RW) eviction along the next path in reverse-lexicographic order.

The controller here is *functional and timed*: block movement, stash state,
position-map remapping and (optional) payload versions are simulated
exactly, while per-access timing comes from an attached
:class:`~repro.mem.dram.DramModel`.  Passing ``dram=None`` runs the
controller in pure functional mode (all timestamps zero), which the
security and correctness test suites use for speed.

Every externally observable action — which path was touched, when, and in
which direction — is reported to an optional observer, which is exactly the
adversary's view in the paper's threat model (Section II-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable

from repro.mem.dram import DramModel, PathTimer, PathTiming
from repro.obs.events import (
    PURPOSE_DUMMY,
    PURPOSE_EVICTION,
    PURPOSE_REQUEST,
    BlockServed,
    DummyIssued,
    EventBus,
    EvictionPerformed,
    PathReadFinished,
    PathReadStarted,
    RequestCompleted,
    SpanFinished,
    SpanStarted,
)
from repro.oram.block import Block
from repro.oram.config import OramConfig
from repro.oram.derived import bit_reverse_table
from repro.oram.posmap import PositionMap
from repro.oram.stash import Stash
from repro.oram.tree import OramTree

ObservedEvent = tuple[str, int, float]
Observer = Callable[[ObservedEvent], None]


# Where an access was served from. "path" = the real block arriving along
# the read path; "shadow_path" = a shadow copy arriving earlier on the read
# path; "stash"/"shadow_stash" = on-chip hits; "treetop" = the serving block
# lived in the on-chip treetop levels.
SERVED_STASH = "stash"
SERVED_SHADOW_STASH = "shadow_stash"
SERVED_PATH = "path"
SERVED_SHADOW_PATH = "shadow_path"
SERVED_TREETOP = "treetop"


@dataclass(slots=True)
class AccessResult:
    """Outcome of one ORAM request.

    Attributes:
        addr: Requested program address (``-1`` for dummy requests).
        op: ``"read"`` or ``"write"`` (``"dummy"`` for dummy requests).
        served_from: One of the ``SERVED_*`` constants, or ``None`` for a
            dummy request.
        issue: Cycle the request entered the controller.
        data_ready: Cycle the intended data reached the LLC (``None`` for
            dummies).  This is the moment the CPU un-stalls — the quantity
            Shadow Block advances.
        finish: Cycle the controller became free again (includes the RW
            eviction when this request triggered one).
        value: Payload returned on a read.
        version: Payload version returned on a read (consistency checks).
        evicted: Whether this request triggered the RW eviction phase.
        path_accesses: Number of full path accesses performed (0 for
            on-chip hits, 1 for RO, 3 for RO + eviction read + write).
    """

    addr: int
    op: str
    served_from: str | None
    issue: float
    data_ready: float | None
    finish: float
    value: object = None
    version: int = -1
    evicted: bool = False
    path_accesses: int = 0


def _completed(result: AccessResult, core: int) -> RequestCompleted:
    """Flatten an :class:`AccessResult` into the bus event."""
    data_ready = (
        result.data_ready if result.data_ready is not None else result.finish
    )
    return RequestCompleted(
        addr=result.addr,
        op=result.op,
        served_from=result.served_from,
        issue=result.issue,
        data_ready=data_ready,
        finish=result.finish,
        evicted=result.evicted,
        path_accesses=result.path_accesses,
        core=core,
    )


@dataclass(slots=True)
class OramStats:
    """Running counters the experiment harness aggregates."""

    accesses: int = 0
    dummy_accesses: int = 0
    stash_hits: int = 0
    shadow_stash_hits: int = 0
    shadow_path_serves: int = 0
    treetop_serves: int = 0
    path_reads: int = 0
    path_writes: int = 0
    evictions: int = 0
    activations: int = 0
    blocks_on_bus: int = 0
    blocks_internal: int = 0
    onchip_serves: int = 0


def place_deepest_first(
    stash: Stash, leaf: int, levels: int, capacity: int, stride: int
) -> tuple[list[Block | None], list[int], list[tuple[Block, int]]]:
    """Greedy deepest-first eviction of the stash's real blocks onto ``leaf``.

    Each bucket takes at most ``capacity`` real blocks.  Returns
    ``(buf, fill, placed)``: a fresh flat path buffer (level ``lvl``
    occupies ``buf[lvl * stride : (lvl + 1) * stride]``, dummies are
    ``None``), the real blocks placed per level, and ``(block, level)``
    for every placed block in placement order.  Placed blocks leave the
    stash.

    Candidates go in the order of a stable ``sorted(..., reverse=True)``
    on their deepest legal level: blocks are grouped by that level and
    the groups walked leaf-ward first, keeping stash insertion order
    within each group.
    """
    buf: list[Block | None] = [None] * ((levels + 1) * stride)
    fill = [0] * (levels + 1)
    groups: list[list[Block]] = [[] for _ in range(levels + 1)]
    for blk in stash.iter_real():
        diff = blk.leaf ^ leaf
        groups[levels if diff == 0 else levels - diff.bit_length()].append(blk)
    placed: list[tuple[Block, int]] = []
    for lvl in range(levels, -1, -1):
        for blk in groups[lvl]:
            level = lvl
            while level >= 0 and fill[level] >= capacity:
                level -= 1
            if level < 0:
                continue
            buf[level * stride + fill[level]] = blk
            fill[level] += 1
            placed.append((blk, level))
    remove_real = stash.remove_real
    for blk, _level in placed:
        remove_real(blk.addr)
    return buf, fill, placed


def bootstrap_tree(
    tree: OramTree,
    posmap: PositionMap,
    stash: Stash,
    num_blocks: int,
    capacity: int,
) -> None:
    """Place every program block in the tree at its mapped path.

    Blocks are installed leaf-first along their assigned path, at most
    ``capacity`` real blocks per bucket (the tree's bucket width is the
    slot stride); anything that does not fit near its leaf percolates
    root-ward, mirroring a warmed-up ORAM.  A residual handful may start
    in the stash.
    """
    slots = tree._slots
    stride = tree.z
    leaf_first = tree.path_geometry[::-1]
    fill = [0] * tree.num_buckets
    leaf_of = posmap._leaf
    for addr in range(num_blocks):
        leaf = leaf_of[addr]
        blk = Block(addr, leaf, 0)
        for offset, shift in leaf_first:
            base = offset + (leaf >> shift) * stride
            idx = base // stride
            if fill[idx] < capacity:
                slots[base + fill[idx]] = blk
                fill[idx] += 1
                break
        else:
            stash.insert(blk)


class TinyOramController:
    """Baseline Tiny ORAM controller.

    Args:
        config: Protocol geometry and parameters.
        rng: Randomness source (position map init and remapping, dummy
            request leaves).  Supplying a seeded :class:`random.Random`
            makes a whole simulation deterministic.
        dram: Timing model, or ``None`` for pure functional simulation.
        observer: Optional callback receiving ``(kind, leaf, time)`` for
            every externally visible path access (``kind`` is ``"read"`` or
            ``"write"``).  This is the adversary's trace.
        bus: Observability event bus.  When ``None`` a private bus is
            created; emission sites are no-ops until a subscriber attaches
            (the fast path is a single ``if not bus._subs`` check).
        timer: Path-access timing strategy.  ``None`` derives the standard
            one from ``config`` + ``dram`` (treetop/XOR selection lives in
            :class:`~repro.mem.dram.PathTimer`, not here); the scheduling
            backend injects its own.
    """

    def __init__(
        self,
        config: OramConfig,
        rng: Random,
        dram: DramModel | None = None,
        observer: Observer | None = None,
        bus: EventBus | None = None,
        timer: PathTimer | None = None,
    ) -> None:
        self.config = config
        self.rng = rng
        self.dram = dram
        self.observer = observer
        self.bus = bus if bus is not None else EventBus()
        self.timer = (
            timer
            if timer is not None
            else PathTimer(
                dram,
                config.levels,
                config.z,
                config.treetop_levels,
                config.xor_compression,
            )
        )
        if self.timer.bus is None:
            # The timer emits dram_read/dram_write spans; wire it to the
            # controller's resolved bus so they nest inside path spans.
            self.timer.bus = self.bus
        self.tree = OramTree(config.levels, config.z)
        self.stash = Stash(config.stash_capacity, bus=self.bus)
        self.posmap = PositionMap(config.num_blocks, config.num_leaves, rng)
        self.stats = OramStats()
        # Per-access seam for runtime auditing: when set, called with the
        # AccessResult after every access()/dummy_access().  The fault
        # harness attaches RuntimeInvariants here (repro.faults); None
        # keeps the hot path at a single attribute check.
        self.post_access_hook: Callable[[AccessResult], None] | None = None
        self._ro_since_eviction = 0
        self._eviction_counter = 0
        # Geometry the hot path reads instead of recomputing it per
        # access: the eviction-order bit-reversal table, the address-space
        # size and the DRAM-resident blocks of one path (treetop excluded).
        self._rev_table = bit_reverse_table(config.levels)
        self._num_blocks = config.num_blocks
        self._blocks_per_path = (
            (config.levels + 1 - config.treetop_levels) * config.z
        )
        bootstrap_tree(
            self.tree, self.posmap, self.stash, config.num_blocks, config.z
        )
        # Integrated integrity verification + self-healing recovery
        # (Tiny ORAM ships with integrity verification).  Built after
        # bootstrap so the initial tree state is what gets authenticated.
        self.integrity: "MerkleTree | None" = None
        self.recovery: "RecoveryManager | None" = None
        if config.integrity:
            from repro.oram.integrity import MerkleTree
            from repro.oram.recovery import RecoveryManager

            self.integrity = MerkleTree(self.tree)
            self.recovery = RecoveryManager(
                self,
                self.integrity,
                policy=config.recovery,
                scrub_interval=config.scrub_interval,
                bus=self.bus,
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of program addresses this ORAM serves."""
        return self._num_blocks

    def access(
        self, addr: int, op: str = "read", payload: object = None, now: float = 0.0
    ) -> AccessResult:
        """Serve one LLC miss: the paper's Step-1 .. Step-6 sequence."""
        if not 0 <= addr < self._num_blocks:
            raise ValueError(
                f"address {addr} outside ORAM space 0..{self._num_blocks - 1}"
            )
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        self.stats.accesses += 1
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            bus.now = now
            bus.emit(SpanStarted(name="oram_access", ts=now, addr=addr, detail=op))
        if self.recovery is not None:
            self.recovery.tick()

        if observed:
            bus.emit(SpanStarted(name="stash_scan", ts=now))
        hit = self._try_onchip(addr, op, payload, now)
        if observed:
            # A hit tiles the whole access with the on-chip lookup; a miss
            # leaves a zero-cycle marker that still measures wall time.
            scan_end = hit.data_ready if hit is not None else now
            bus.emit(SpanFinished(name="stash_scan", ts=scan_end))
        if hit is not None:
            if observed:
                if hit.served_from == SERVED_SHADOW_STASH:
                    bus.emit(SpanStarted(
                        name="shadow_serve", ts=hit.data_ready,
                        addr=addr, detail=SERVED_SHADOW_STASH,
                    ))
                    bus.emit(SpanFinished(name="shadow_serve", ts=hit.data_ready))
                bus.emit(_completed(hit, bus.core))
                bus.emit(SpanFinished(name="oram_access", ts=hit.finish))
            if self.post_access_hook is not None:
                self.post_access_hook(hit)
            return hit

        leaf = self.posmap.lookup(addr)
        if self.recovery is not None:
            # Verify (and under recover/degrade heal) the demand path
            # before it is read; a stale posmap entry is repaired here,
            # redirecting the access to the authenticated leaf.  Runs
            # before the remap so the at-rest state is what is audited
            # and no RNG draw separates detection from repair.
            leaf = self.recovery.before_request(addr, leaf)
        new_leaf = self.posmap.remap(addr)
        result = self._oram_access(addr, op, payload, leaf, new_leaf, now)
        if observed:
            bus.emit(_completed(result, bus.core))
            bus.emit(SpanFinished(name="oram_access", ts=result.finish))
        if self.post_access_hook is not None:
            self.post_access_hook(result)
        return result

    def peek_onchip(self, addr: int, op: str) -> bool:
        """Whether ``access(addr, op)`` would be served on chip right now.

        The request scheduler uses this to decide if a miss needs an ORAM
        launch slot; it performs no state changes.
        """
        return self.stash.lookup_real(addr) is not None

    def dummy_access(self, now: float = 0.0) -> AccessResult:
        """Issue a dummy ORAM request (timing protection, Section II-B).

        A dummy request reads a uniformly random path — indistinguishable
        from a real request — and participates in the eviction schedule.
        """
        self.stats.dummy_accesses += 1
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            bus.now = now
            bus.emit(SpanStarted(name="dummy", ts=now))
        if self.recovery is not None:
            self.recovery.tick()
        leaf = self.rng.randrange(self.config.num_leaves)
        if self.recovery is not None:
            self.recovery.before_path_read(leaf)
        _, _, _, read_timing = self._path_read(leaf, now, intended_addr=None)
        finish, evicted, extra_paths = self._maybe_evict(read_timing.finish)
        result = AccessResult(
            addr=-1,
            op="dummy",
            served_from=None,
            issue=now,
            data_ready=None,
            finish=finish,
            evicted=evicted,
            path_accesses=1 + extra_paths,
        )
        if observed:
            bus.emit(DummyIssued(leaf=leaf, ts=now, finish=finish))
            bus.emit(_completed(result, bus.core))
            bus.emit(SpanFinished(name="dummy", ts=finish))
        if self.post_access_hook is not None:
            self.post_access_hook(result)
        return result

    # ------------------------------------------------------------------
    # On-chip hit handling (Step-1)
    # ------------------------------------------------------------------
    def _try_onchip(
        self, addr: int, op: str, payload: object, now: float
    ) -> AccessResult | None:
        blk = self.stash.lookup_real(addr)
        if blk is None:
            return None
        if op == "write":
            blk.payload = payload
            blk.version += 1
        self.stats.stash_hits += 1
        self.stats.onchip_serves += 1
        ready = now + self.config.onchip_latency
        if self.bus._subs:
            self.bus.emit(
                BlockServed(
                    addr=addr,
                    op=op,
                    source=SERVED_STASH,
                    level=-1,
                    onchip=True,
                    core=self.bus.core,
                    ts=ready,
                )
            )
        return AccessResult(
            addr=addr,
            op=op,
            served_from=SERVED_STASH,
            issue=now,
            data_ready=ready,
            finish=ready,
            value=blk.payload,
            version=blk.version,
        )

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def _oram_access(
        self,
        addr: int,
        op: str,
        payload: object,
        leaf: int,
        new_leaf: int,
        now: float,
    ) -> AccessResult:
        data_ready, served_from, served_level, timing = self._path_read(
            leaf, now, intended_addr=addr
        )
        blk = self.stash.lookup_real(addr)
        if blk is None:
            raise RuntimeError(
                f"Path ORAM invariant violated: addr {addr} mapped to leaf {leaf} "
                "was neither in the stash nor on its path"
            )
        blk.leaf = new_leaf
        if op == "write":
            blk.payload = payload
            blk.version += 1
        if data_ready is None:
            # The block was in the stash as a shadow before the read (the
            # real copy just arrived); the shadow already had valid data.
            data_ready = now + self.config.onchip_latency
            served_from = SERVED_SHADOW_STASH
            served_level = -1
        if (
            self.bus._subs
            and served_from in (SERVED_SHADOW_PATH, SERVED_SHADOW_STASH)
            and data_ready <= timing.finish
        ):
            # Zero-cycle marker: the moment a shadow copy un-stalled the
            # CPU early.  (Skipped in functional mode, where the on-chip
            # latency would push the marker past the degenerate window.)
            self.bus.emit(SpanStarted(
                name="shadow_serve", ts=data_ready,
                addr=addr, detail=served_from,
            ))
            self.bus.emit(SpanFinished(name="shadow_serve", ts=data_ready))

        finish, evicted, extra_paths = self._maybe_evict(timing.finish)
        if served_from == SERVED_SHADOW_PATH:
            self.stats.shadow_path_serves += 1
        if served_from == SERVED_TREETOP:
            self.stats.treetop_serves += 1
            self.stats.onchip_serves += 1
        if self.bus._subs:
            self.bus.emit(
                BlockServed(
                    addr=addr,
                    op=op,
                    source=served_from,
                    level=served_level,
                    onchip=served_from == SERVED_TREETOP,
                    core=self.bus.core,
                    ts=data_ready,
                )
            )
        return AccessResult(
            addr=addr,
            op=op,
            served_from=served_from,
            issue=now,
            data_ready=data_ready,
            finish=finish,
            value=blk.payload,
            version=blk.version,
            evicted=evicted,
            path_accesses=1 + extra_paths,
        )

    def _maybe_evict(self, now: float) -> tuple[float, bool, int]:
        """Run the RW eviction phase when the eviction rate says so."""
        self._ro_since_eviction += 1
        if self._ro_since_eviction < self.config.a:
            return now, False, 0
        self._ro_since_eviction = 0
        leaf = self._next_eviction_leaf()
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            bus.now = now
            bus.emit(SpanStarted(name="eviction", ts=now))
        if self.recovery is not None:
            self.recovery.before_path_read(leaf)
        _, _, _, read_timing = self._path_read(
            leaf, now, intended_addr=None, absorb_all=True
        )
        write_timing = self._path_write(leaf, read_timing.finish)
        self.stats.evictions += 1
        if observed:
            bus.emit(
                EvictionPerformed(leaf=leaf, start=now, finish=write_timing.finish)
            )
            bus.emit(SpanFinished(name="eviction", ts=write_timing.finish))
        return write_timing.finish, True, 2

    def _next_eviction_leaf(self) -> int:
        """Reverse-lexicographic eviction order (Step-5, after Ring ORAM)."""
        g = self._eviction_counter % self.config.num_leaves
        self._eviction_counter += 1
        return self._rev_table[g]

    @staticmethod
    def _bit_reverse(value: int, bits: int) -> int:
        """Loop-based bit reversal: the reference the cached table mirrors
        (see :func:`repro.oram.derived.bit_reverse_table` and the
        differential suite in ``tests/oram/test_differential.py``)."""
        out = 0
        for _ in range(bits):
            out = (out << 1) | (value & 1)
            value >>= 1
        return out

    # ------------------------------------------------------------------
    # Path read (Step-3 / Algorithm 2)
    # ------------------------------------------------------------------
    def _path_read(
        self,
        leaf: int,
        now: float,
        intended_addr: int | None,
        absorb_all: bool = False,
    ) -> tuple[float | None, str | None, int, PathTiming]:
        """Stream path ``leaf`` root to leaf.

        Following RAW Path ORAM (Tiny ORAM's underlying protocol), a
        read-only access removes only the *requested* block (every copy of
        it, real and shadow, since the block is about to be remapped) and
        absorbs shadow blocks of other addresses into the stash as
        replaceable entries; other real blocks stay in place.  The RW
        eviction read (``absorb_all=True``) absorbs the whole path, which
        is what Algorithm 2 describes.  Timing and the external trace are
        identical either way: the full path is always streamed.

        Returns ``(data_ready, served_from, served_level, timing)`` where
        ``served_level`` is the tree level the serving copy was found at
        (``-1`` when the intended block was not found on the path).
        """
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            if absorb_all:
                purpose = PURPOSE_EVICTION
            elif intended_addr is not None:
                purpose = PURPOSE_REQUEST
            else:
                purpose = PURPOSE_DUMMY
            span_name = "eviction_read" if absorb_all else "path_read"
            # Opened before the timing query so the timer's dram_read span
            # nests inside this phase.
            bus.emit(SpanStarted(name=span_name, ts=now, detail=purpose))
        timing = self._read_timing(now)
        stats = self.stats
        stats.path_reads += 1
        stats.activations += timing.activations
        stats.blocks_on_bus += timing.blocks_on_bus
        stats.blocks_internal += self._blocks_per_path
        if self.observer is not None:
            self.observer(("read", leaf, now))
        if observed:
            bus.emit(PathReadStarted(leaf=leaf, purpose=purpose, ts=now))
            bus.emit(SpanStarted(name="stash_scan", ts=now))

        data_ready: float | None = None
        served_from: str | None = None
        served_level = -1
        tree = self.tree
        z = tree.z
        slots = tree._slots
        geometry = tree.path_geometry
        insert = self.stash.insert
        # Each bucket is read as one slice, in streaming order: level
        # ascending, slot ascending.
        if absorb_all:
            # RW eviction read: every block on the path moves to the stash.
            empty = [None] * z
            for level, (offset, shift) in enumerate(geometry):
                base = offset + (leaf >> shift) * z
                bucket = slots[base:base + z]
                slots[base:base + z] = empty
                for blk in bucket:
                    if blk is not None:
                        insert(blk, level)
        else:
            treetop = self.config.treetop_levels
            onchip = now + self.config.onchip_latency
            offsets = timing.arrival_offsets
            tstart = timing.start
            for level, (offset, shift) in enumerate(geometry):
                base = offset + (leaf >> shift) * z
                bucket = slots[base:base + z]
                for blk in bucket:
                    if blk is None:
                        continue
                    # ``intended_addr`` is None for dummy reads and block
                    # addresses are non-negative, so the comparison alone
                    # decides (None never equals an int).
                    if blk.addr == intended_addr:
                        slot = 0
                        while bucket[slot] is not blk:
                            slot += 1
                        if data_ready is None:
                            served_level = level
                            if level < treetop:
                                data_ready = onchip
                                served_from = SERVED_TREETOP
                            else:
                                data_ready = tstart + offsets[level][slot]
                                if blk.is_shadow:
                                    served_from = SERVED_SHADOW_PATH
                                else:
                                    served_from = SERVED_PATH
                        slots[base + slot] = None
                        if not blk.is_shadow:
                            self._stash_insert(blk, level)
                        # Shadow copies of the requested block are
                        # discarded: the block is being remapped and they
                        # would go stale.
                    elif blk.is_shadow:
                        # HD-Dup payoff: a shadow met on any path read is
                        # cached in the stash (replaceable) while its tree
                        # copy stays valid, since its original has not
                        # moved.
                        insert(blk, level)
        if observed:
            bus.emit(SpanFinished(name="stash_scan", ts=now))
            bus.emit(
                PathReadFinished(leaf=leaf, purpose=purpose, ts=timing.finish)
            )
        if self.integrity is not None:
            # The read removed blocks from the path; re-hash it so the
            # tree stays authenticated (the hardware re-encrypts and
            # re-hashes what it streams back).
            if observed:
                bus.emit(SpanStarted(
                    name="merkle", ts=timing.finish, detail="update"
                ))
            self.integrity.update_path(leaf)
            if observed:
                bus.emit(SpanFinished(name="merkle", ts=timing.finish))
        if observed:
            bus.emit(SpanFinished(name=span_name, ts=timing.finish))
        return data_ready, served_from, served_level, timing

    def _read_timing(self, now: float) -> PathTiming:
        return self.timer.read(now)

    def _stash_insert(self, blk: Block, level: int) -> None:
        """Insert the requested block, read from tree ``level``, into the
        stash (:meth:`Stash.insert` applies the merge rules)."""
        self.stash.insert(blk, level)

    # ------------------------------------------------------------------
    # Path write (Step-6 / Algorithm 1)
    # ------------------------------------------------------------------
    def _path_write(self, leaf: int, now: float) -> PathTiming:
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            # Advance the ambient clock so clock-less emitters inside the
            # write (shadow fill, stash occupancy) stamp the write phase.
            bus.now = now
            bus.emit(SpanStarted(name="eviction_write", ts=now))
        buf = self._build_path_contents(leaf)
        self.tree.write_path_buffer(leaf, buf)
        timing = self.timer.write(now)
        self.stats.path_writes += 1
        self.stats.activations += timing.activations
        self.stats.blocks_on_bus += timing.blocks_on_bus
        self.stats.blocks_internal += self._blocks_per_path
        if self.observer is not None:
            self.observer(("write", leaf, now))
        if self.integrity is not None:
            if observed:
                bus.emit(SpanStarted(
                    name="merkle", ts=timing.finish, detail="update"
                ))
            self.integrity.update_path(leaf)
            if observed:
                bus.emit(SpanFinished(name="merkle", ts=timing.finish))
        if observed:
            bus.emit(SpanFinished(name="eviction_write", ts=timing.finish))
        return timing

    def _build_path_contents(self, leaf: int) -> list[Block | None]:
        """Evict the stash onto path ``leaf`` and return the path buffer.

        Real blocks go deepest-first (:func:`place_deepest_first`); level
        ``lvl`` occupies ``buf[lvl * z : (lvl + 1) * z]``, dummies are
        ``None``.  Subclasses fill the remaining dummy slots with shadow
        blocks through :meth:`_fill_dummies` (Algorithm 1, line 4).
        """
        cfg = self.config
        buf, fill, placed = place_deepest_first(
            self.stash, leaf, cfg.levels, cfg.z, cfg.z
        )
        self._fill_dummies(leaf, buf, fill, placed)
        return buf

    def _fill_dummies(
        self,
        leaf: int,
        buf: list[Block | None],
        fill: list[int],
        placed: list[tuple[Block, int]],
    ) -> None:
        """Hook for shadow-block generation; the baseline writes dummies."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """JSON-compatible snapshot of the full runtime state.

        Everything an uninterrupted continuation depends on is captured:
        tree buckets, stash (with FIFO order), position map, the shared
        RNG stream, eviction bookkeeping and the stats counters.  The
        Merkle tree is *not* serialized — it is a pure function of the
        tree contents and is rebuilt on restore.
        """
        from repro.serialize import dataclass_to_dict

        rng_state = self.rng.getstate()
        state: dict[str, object] = {
            "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
            "stats": dataclass_to_dict(self.stats),
            "ro_since_eviction": self._ro_since_eviction,
            "eviction_counter": self._eviction_counter,
            "tree": self.tree.snapshot_state(),
            "stash": self.stash.snapshot_state(),
            "posmap": self.posmap.snapshot_state(),
        }
        if self.recovery is not None:
            state["recovery"] = self.recovery.snapshot_state()
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`; re-authenticates the tree."""
        from repro.serialize import dataclass_from_dict

        rng_state = state["rng"]
        self.rng.setstate(
            (rng_state[0], tuple(rng_state[1]), rng_state[2])
        )
        self.stats = dataclass_from_dict(OramStats, state["stats"])
        self._ro_since_eviction = state["ro_since_eviction"]
        self._eviction_counter = state["eviction_counter"]
        self.tree.restore_state(state["tree"])
        self.stash.restore_state(state["stash"])
        self.posmap.restore_state(state["posmap"])
        if self.recovery is not None and "recovery" in state:
            self.recovery.restore_state(state["recovery"])
        if self.integrity is not None:
            self.integrity._rebuild_all()
