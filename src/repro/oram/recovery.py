"""Self-healing recovery for integrity-verified ORAM controllers.

Shadow blocks are *extra encrypted copies of real data* scattered into
dummy slots (Sections IV-A/IV-C) — which makes them natural redundancy,
not just a latency trick.  When Merkle verification finds a corrupt tree
slot, this module recovers it through an **escalation ladder** that
prefers copies the controller already holds or has already touched
(after Ren et al.'s "constants count" principle: stay on the path the
access pays for anyway):

1. ``stash`` — the on-chip real copy of the same address;
2. ``shadow_stash`` — an on-chip shadow copy (RD-Dup/HD-Dup absorbed it
   on an earlier path read);
3. ``path_duplicate`` — another slot on the same path holding a copy
   (shadow duplicates obey Rule-1: they live on their original's path);
4. ``tree_duplicate`` — a root-ward duplicate anywhere else in the tree;
5. ``rebuild`` — a posmap-guided repair fetch from the authenticated
   slot directory (the simulator's stand-in for a durable replica);

and only then fails.  Every candidate is *normalized* to the slot's
authenticated identity (address, leaf, version, shadow bit) and accepted
only if its digest matches the trusted slot digest — a stale shadow or a
second corrupted copy can never be scrubbed in.  Healed buckets are
re-hashed root-ward, the repaired state is audited by
:class:`~repro.faults.invariants.RuntimeInvariants`, and typed events
(:class:`~repro.obs.events.CorruptionDetected`,
:class:`~repro.obs.events.BlockRecovered`, ...) feed the
``oram/recoveries|scrubbed|unrecoverable`` metrics.

**Recovery is invisible on the adversary channel.**  Healing mutates
only state the controller already holds (tree slots being re-written
in place, the on-chip stash, the on-chip posmap) and consumes *no*
randomness, issues *no* path accesses, and advances *no* clocks — so the
access sequence an adversary observes (see
:mod:`repro.security.adversary`) is bit-identical with recovery on or
off, and a healed run finishes bit-identical to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.events import (
    BlockRecovered,
    CorruptionDetected,
    EventBus,
    PosmapRepaired,
    RecoveryFailed,
    SpanFinished,
    SpanStarted,
)
from repro.oram.block import Block
from repro.oram.integrity import (
    CorruptSlot,
    IntegrityError,
    MerkleTree,
    _slot_digest,
)

POLICY_RAISE = "raise"
POLICY_RECOVER = "recover"
POLICY_DEGRADE = "degrade"

SOURCE_STASH = "stash"
SOURCE_SHADOW_STASH = "shadow_stash"
SOURCE_PATH_DUPLICATE = "path_duplicate"
SOURCE_TREE_DUPLICATE = "tree_duplicate"
SOURCE_REBUILD = "rebuild"
SOURCE_DUMMY = "dummy"


@dataclass(slots=True)
class RecoveryStats:
    """Counters the recovery layer maintains (not part of results).

    These deliberately live *outside* :class:`~repro.oram.tiny.OramStats`
    and the :class:`~repro.system.metrics.SimulationResult`: a recovered
    run must be bit-identical to a fault-free run, so recovery accounting
    flows through the observability bus and this side table only.
    """

    corruptions: int = 0
    recoveries: int = 0
    scrubbed: int = 0
    unrecoverable: int = 0
    posmap_repairs: int = 0
    audit_violations: int = 0
    recovered_from: dict[str, int] = field(default_factory=dict)


class RecoveryManager:
    """Integrity-driven corruption recovery for one ORAM controller.

    Args:
        controller: The (Tiny or Shadow) controller being protected.
        merkle: Its Merkle tree (built over ``controller.tree``).
        policy: ``raise`` | ``recover`` | ``degrade`` — see
            :class:`~repro.oram.config.OramConfig`.
        scrub_interval: Full-tree background scrub every this many
            accesses (0 disables; fail-stop under the ``raise`` policy).
        rebuild: Allow the final escalation rung (directory rebuild).
            Disabled in tests that exercise the unrecoverable branches.
        audit: Run a :class:`RuntimeInvariants` scan after any heal.
        bus: Event bus for typed recovery events.
    """

    def __init__(
        self,
        controller,
        merkle: MerkleTree,
        policy: str = POLICY_RAISE,
        scrub_interval: int = 0,
        rebuild: bool = True,
        audit: bool = True,
        bus: EventBus | None = None,
    ) -> None:
        if policy not in (POLICY_RAISE, POLICY_RECOVER, POLICY_DEGRADE):
            raise ValueError(
                f"policy must be raise|recover|degrade, got {policy!r}"
            )
        self.controller = controller
        self.merkle = merkle
        self.policy = policy
        self.scrub_interval = scrub_interval
        self.rebuild = rebuild
        self.audit = audit
        self.bus = bus if bus is not None else controller.bus
        self.stats = RecoveryStats()
        self._since_scrub = 0

    # ------------------------------------------------------------------
    # Controller-facing hooks
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Per-access heartbeat: runs the background scrub when due.

        Under the ``raise`` policy a scrub hit is fail-stop — the scrub
        raises at the first corrupt slot instead of healing it.
        """
        if self.scrub_interval <= 0:
            return
        self._since_scrub += 1
        if self._since_scrub >= self.scrub_interval:
            self._since_scrub = 0
            self.scrub_tree()

    def before_request(self, addr: int, leaf: int) -> int:
        """Authenticate (and heal) the demand path before it is read.

        Called after the posmap lookup and *before* the remap, so the
        pre-access state is still at rest.  Returns the leaf the access
        should actually use: normally ``leaf`` unchanged, or the repaired
        leaf when a stale position-map entry was detected and fixed.
        """
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            # Zero-cycle span (recovery advances no clocks) whose wall
            # time is the real cost of hashing/healing the demand path.
            bus.emit(SpanStarted(name="merkle", ts=bus.now, detail="verify"))
        try:
            if self.policy == POLICY_RAISE:
                self.merkle.verify_path(leaf)
                return leaf
            self.heal_path(leaf)
            return self._check_posmap(addr, leaf)
        finally:
            if observed:
                bus.emit(SpanFinished(name="merkle", ts=bus.now))

    def before_path_read(self, leaf: int) -> None:
        """Authenticate (and heal) a dummy or eviction path.

        The eviction read absorbs the whole path into the stash; a
        corrupt block absorbed undetected would be re-hashed as authentic
        on the following path write, so eviction paths are verified with
        the same rigor as demand paths.
        """
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            bus.emit(SpanStarted(name="merkle", ts=bus.now, detail="verify"))
        try:
            if self.policy == POLICY_RAISE:
                self.merkle.verify_path(leaf)
                return
            self.heal_path(leaf)
        finally:
            if observed:
                bus.emit(SpanFinished(name="merkle", ts=bus.now))

    # ------------------------------------------------------------------
    # Healing
    # ------------------------------------------------------------------
    def heal_path(self, leaf: int) -> int:
        """Verify path ``leaf`` slot-by-slot, healing what is corrupt.

        Returns the number of slots healed.
        """
        return self._heal(self.merkle.localize(leaf), scrub=False)

    def scrub_tree(self) -> int:
        """Full-tree verification sweep, healing every corrupt slot.

        Besides the slot digests, the scrub reconciles the position map
        against the authenticated tree contents: a tree-resident real
        block whose (digest-verified) leaf label disagrees with its
        posmap entry proves the on-chip entry is stale, and the
        authenticated label is the fault-free value to restore.  Without
        this a latent posmap upset would survive every scrub untouched
        and trip the post-heal audit of an unrelated recovery.
        """
        bus = self.bus
        observed = bool(bus._subs)
        if observed:
            bus.emit(SpanStarted(name="merkle", ts=bus.now, detail="scrub"))
        try:
            healed = self._heal(
                self.merkle.verify_all(), scrub=True, audit=False
            )
            repaired = self._scrub_posmap()
            if (healed or repaired) and self.audit:
                self._audit()
            return healed
        finally:
            if observed:
                bus.emit(SpanFinished(name="merkle", ts=bus.now))

    def _scrub_posmap(self) -> int:
        posmap = self.controller.posmap
        bus = self.bus
        repaired = 0
        for idx, slot, blk in self.controller.tree.iter_blocks():
            if blk.is_shadow:
                continue
            if not self.merkle.is_authentic(idx, slot, blk):
                continue  # unauthenticated slot: the heal pass owns it
            current = posmap.lookup(blk.addr)
            if current == blk.leaf:
                continue
            if self.policy == POLICY_RAISE:
                raise IntegrityError(
                    f"posmap entry for addr {blk.addr} ({current}) disagrees "
                    f"with the authenticated leaf label {blk.leaf}"
                )
            posmap.repair(blk.addr, blk.leaf)
            self.stats.posmap_repairs += 1
            repaired += 1
            if bus._detail:
                bus.emit(
                    PosmapRepaired(
                        addr=blk.addr,
                        stale_leaf=current,
                        leaf=blk.leaf,
                        ts=bus.now,
                    )
                )
        return repaired

    def _heal(
        self, corrupt: list[CorruptSlot], scrub: bool, audit: bool = True
    ) -> int:
        if not corrupt:
            return 0
        bus = self.bus
        healed = 0
        for cs in corrupt:
            self.stats.corruptions += 1
            addr = -1 if cs.expected is None else cs.expected.addr
            if bus._detail:
                bus.emit(
                    CorruptionDetected(
                        bucket=cs.bucket,
                        level=cs.level,
                        slot=cs.slot,
                        addr=addr,
                        ts=bus.now,
                    )
                )
            if self.policy == POLICY_RAISE:
                raise IntegrityError(
                    f"integrity violation at {cs.describe()}"
                )
            source = self._heal_slot(cs)
            if source is not None:
                healed += 1
                self.stats.recoveries += 1
                if scrub:
                    self.stats.scrubbed += 1
                self.stats.recovered_from[source] = (
                    self.stats.recovered_from.get(source, 0) + 1
                )
                if bus._detail:
                    bus.emit(
                        BlockRecovered(
                            bucket=cs.bucket,
                            level=cs.level,
                            slot=cs.slot,
                            addr=addr,
                            source=source,
                            scrub=scrub,
                            ts=bus.now,
                        )
                    )
                continue
            if self.policy == POLICY_RECOVER:
                if bus._detail:
                    bus.emit(
                        RecoveryFailed(
                            bucket=cs.bucket,
                            level=cs.level,
                            slot=cs.slot,
                            addr=addr,
                            action="raise",
                            ts=bus.now,
                        )
                    )
                raise IntegrityError(
                    f"unrecoverable corruption at {cs.describe()}: no valid "
                    "copy in stash, on the path, or elsewhere in the tree"
                )
            # Degrade: drop the slot and keep running.  The data is lost
            # (a later access to it will fail the Path ORAM invariant),
            # but the tree is structurally sound again.
            self._drop_slot(cs)
            self.stats.unrecoverable += 1
            if bus._detail:
                bus.emit(
                    RecoveryFailed(
                        bucket=cs.bucket,
                        level=cs.level,
                        slot=cs.slot,
                        addr=addr,
                        action="degrade",
                        ts=bus.now,
                    )
                )
        if healed and audit and self.audit:
            self._audit()
        return healed

    def _heal_slot(self, cs: CorruptSlot) -> str | None:
        """Try each escalation rung; returns the winning source or None."""
        meta = cs.expected
        if meta is None:
            # The authenticated contents were a dummy: restore the dummy.
            self._install(cs, None)
            return SOURCE_DUMMY
        for source, cand in self._candidates(cs):
            # Normalize to the slot's authenticated identity: a real stash
            # copy healing a shadow slot becomes a shadow, and vice versa.
            repaired = Block(
                addr=meta.addr,
                leaf=meta.leaf,
                version=cand.version,
                payload=cand.payload,
                is_shadow=meta.is_shadow,
            )
            if _slot_digest(repaired) == cs.digest:
                self._install(cs, repaired)
                return source
        if self.rebuild:
            # Last rung: rebuild from the authenticated slot directory —
            # the repair fetch against a durable replica.
            self._install(cs, meta.make_block())
            return SOURCE_REBUILD
        return None

    def _candidates(self, cs: CorruptSlot) -> Iterator[tuple[str, Block]]:
        """Yield ``(source, candidate)`` pairs in escalation order."""
        meta = cs.expected
        stash = self.controller.stash
        tree = self.controller.tree
        blk = stash.lookup_real(meta.addr)
        if blk is not None:
            yield SOURCE_STASH, blk
        blk = stash.lookup_shadow(meta.addr)
        if blk is not None:
            yield SOURCE_SHADOW_STASH, blk
        path = tree.path_indices(meta.leaf)
        for idx in path:
            bucket = tree.bucket(idx)
            for slot, cand in enumerate(bucket):
                if cand is None or (idx == cs.bucket and slot == cs.slot):
                    continue
                if cand.addr == meta.addr:
                    yield SOURCE_PATH_DUPLICATE, cand
        on_path = set(path)
        for idx, _slot, cand in tree.iter_blocks():
            if idx in on_path:
                continue
            if cand.addr == meta.addr:
                yield SOURCE_TREE_DUPLICATE, cand

    def _install(self, cs: CorruptSlot, blk: Block | None) -> None:
        """Scrub ``blk`` into the corrupt slot and re-hash root-ward.

        HD-Dup aliases absorbed tree shadows into the stash (same object
        in both places), so a corrupted tree shadow may have a corrupted
        stash alias; re-sync it with the healed copy so the on-chip state
        matches the fault-free run by value.
        """
        bucket = self.controller.tree.bucket(cs.bucket)
        old = bucket[cs.slot]
        bucket[cs.slot] = blk
        if old is not None and old.is_shadow:
            stash = self.controller.stash
            if stash.lookup_shadow(old.addr) is old:
                if blk is None:
                    stash.remove_shadow(old.addr)
                else:
                    stash.repair_shadow(
                        old.addr, blk if blk.is_shadow else blk.shadow_copy()
                    )
        self.merkle.rehash_bucket(cs.bucket)

    def _drop_slot(self, cs: CorruptSlot) -> None:
        """Degrade-mode disposal: blank the slot and re-authenticate."""
        self._install(cs, None)

    # ------------------------------------------------------------------
    # Posmap repair
    # ------------------------------------------------------------------
    def _check_posmap(self, addr: int, leaf: int) -> int:
        """Detect and repair a stale position-map entry for ``addr``.

        The caller established that ``addr`` is not in the stash, so the
        Path ORAM invariant requires its real copy on path ``leaf``.  If
        it is not there, the posmap entry is stale: the authoritative
        leaf is recovered from the block's own (digest-verified) ``leaf``
        field — the repair fetch a real deployment would issue against
        the recursive posmap's durable levels.  No randomness is consumed
        and no extra path access is issued, so the repair is invisible on
        the adversary channel.
        """
        tree = self.controller.tree
        for idx in tree.path_indices(leaf):
            for cand in tree.bucket(idx):
                if cand is not None and cand.addr == addr and not cand.is_shadow:
                    return leaf
        for idx, slot, cand in tree.iter_blocks():
            if cand.addr != addr or cand.is_shadow:
                continue
            if not self.merkle.is_authentic(idx, slot, cand):
                continue
            self.controller.posmap.repair(addr, cand.leaf)
            self.stats.posmap_repairs += 1
            bus = self.bus
            if bus._detail:
                bus.emit(
                    PosmapRepaired(
                        addr=addr, stale_leaf=leaf, leaf=cand.leaf, ts=bus.now
                    )
                )
            self.heal_path(cand.leaf)
            self._audit_after_repair()
            return cand.leaf
        # No authenticated copy anywhere: let the controller hit the
        # natural Path ORAM invariant error on this access.
        return leaf

    # ------------------------------------------------------------------
    # Post-heal auditing
    # ------------------------------------------------------------------
    def _audit(self) -> None:
        """Invariant scan over the healed state.

        A heal that restored the exact authenticated contents leaves the
        controller indistinguishable from a fault-free run, so any
        violation here means recovery itself is broken — raise under
        ``recover``, count under ``degrade`` (where dropped slots make
        some violations expected).  Tree slots the Merkle tree does not
        authenticate are left out, as :meth:`_scrub_posmap` leaves them:
        a latent corruption no read or scrub has reached yet is the heal
        pass's job when one does, not evidence against this heal.
        """
        from repro.faults.invariants import RuntimeInvariants

        violations = RuntimeInvariants(self.controller).scan(
            authentic=self.merkle.is_authentic
        )
        if not violations:
            return
        if self.policy == POLICY_RECOVER:
            raise IntegrityError(
                f"post-recovery invariant violations: {violations[0]}"
                + (f" (+{len(violations) - 1} more)" if len(violations) > 1 else "")
            )
        self.stats.audit_violations += len(violations)

    def _audit_after_repair(self) -> None:
        if self.audit:
            self._audit()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable rendering of the recovery counters."""
        from repro.serialize import dataclass_to_dict

        state = dataclass_to_dict(self.stats)
        state["recovered_from"] = dict(self.stats.recovered_from)
        state["since_scrub"] = self._since_scrub
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        self._since_scrub = state["since_scrub"]
        self.stats = RecoveryStats(
            corruptions=state["corruptions"],
            recoveries=state["recoveries"],
            scrubbed=state["scrubbed"],
            unrecoverable=state["unrecoverable"],
            posmap_repairs=state["posmap_repairs"],
            audit_violations=state["audit_violations"],
            recovered_from=dict(state["recovered_from"]),
        )
