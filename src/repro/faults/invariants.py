"""Runtime invariant checking for ORAM controllers.

The protocol code in :mod:`repro.oram` and :mod:`repro.core` maintains a
set of structural invariants that every paper argument quietly assumes:

1. **Bucket occupancy** — no tree bucket ever holds more than ``Z``
   blocks (bucket lists stay exactly ``Z`` slots long).
2. **Stash bound** — the stash never holds more real blocks than its
   configured capacity (the Section IV-B-2 overflow argument).
3. **Position-map consistency** — every real block lies on the path of
   the leaf the position map currently assigns to its address, and its
   own leaf label agrees with the map.
4. **Single-version real copy** — at most one real (non-shadow) copy of
   any address exists across tree + stash.
5. **Shadow freshness** — every shadow copy carries the same version as
   its real original (a stale shadow served to the CPU would violate the
   single-version consistency guarantee of Section IV-A).

:class:`RuntimeInvariants` walks the whole controller state and checks
all five.  It can be attached to a controller as a per-access hook (the
``post_access_hook`` seam on :class:`~repro.oram.tiny.TinyOramController`)
with a configurable **degrade-vs-raise policy**: ``"raise"`` aborts the
run on the first violation (what the fault-injection tests want),
``"degrade"`` counts violations into metrics and warns once, letting the
run limp onward (what a long sweep wants).  Full-state checks are O(tree)
— use ``stride`` to sample on big configurations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.oram.block import Block

POLICY_RAISE = "raise"
POLICY_DEGRADE = "degrade"


class InvariantViolation(RuntimeError):
    """Raised (under the ``raise`` policy) when controller state is corrupt."""


@dataclass(slots=True)
class InvariantReport:
    """Outcome of the checks run so far."""

    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


class RuntimeInvariants:
    """Structural checker over a (Tiny or Shadow) ORAM controller.

    Args:
        controller: The controller whose tree/stash/posmap to audit.
        policy: ``"raise"`` aborts on the first violation;
            ``"degrade"`` records and warns but lets the run continue.
        stride: With the per-access hook attached, run a full check every
            ``stride`` accesses (1 = every access).
        registry: Optional metrics registry; maintains
            ``invariants/checks`` and ``invariants/violations`` counters.
        max_recorded: Cap on stored violation strings in degrade mode.
    """

    def __init__(
        self,
        controller,
        policy: str = POLICY_RAISE,
        stride: int = 1,
        registry: MetricsRegistry | None = None,
        max_recorded: int = 100,
    ) -> None:
        if policy not in (POLICY_RAISE, POLICY_DEGRADE):
            raise ValueError(
                f"policy must be 'raise' or 'degrade', got {policy!r}"
            )
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.controller = controller
        self.policy = policy
        self.stride = stride
        self.registry = registry
        self.max_recorded = max_recorded
        self.report = InvariantReport()
        self._warned = False
        self._accesses_seen = 0

    # ------------------------------------------------------------------
    def attach(self) -> "RuntimeInvariants":
        """Install as the controller's per-access hook; returns self."""
        self.controller.post_access_hook = self.on_access
        return self

    def detach(self) -> None:
        # == not `is`: bound methods are re-created on every attribute read.
        if self.controller.post_access_hook == self.on_access:
            self.controller.post_access_hook = None

    def on_access(self, _result) -> None:
        """Per-access hook: runs a full check every ``stride`` accesses."""
        self._accesses_seen += 1
        if self._accesses_seen % self.stride == 0:
            self.check()

    # ------------------------------------------------------------------
    def check(self) -> list[str]:
        """Run every invariant; returns (and handles) the violations."""
        violations = self.scan()
        self.report.checks += 1
        if self.registry is not None:
            self.registry.counter("invariants/checks").inc()
            if violations:
                self.registry.counter("invariants/violations").inc(
                    len(violations)
                )
        if violations:
            if self.policy == POLICY_RAISE:
                raise InvariantViolation(
                    f"{len(violations)} invariant violation(s): "
                    + "; ".join(violations[:5])
                )
            room = self.max_recorded - len(self.report.violations)
            self.report.violations.extend(violations[:max(room, 0)])
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"ORAM invariant violation (degrade policy, run "
                    f"continues): {violations[0]}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return violations

    # ------------------------------------------------------------------
    def scan(
        self, authentic: Callable[[int, int, Block], bool] | None = None
    ) -> list[str]:
        """Pure inspection: every violation currently present, no policy.

        With ``authentic`` (e.g. :meth:`MerkleTree.is_authentic
        <repro.oram.integrity.MerkleTree.is_authentic>`), tree slots it
        rejects are left out of the census: their contents are not what
        the controller wrote, so they say nothing about its state.
        """
        ctrl = self.controller
        cfg = ctrl.config
        tree = ctrl.tree
        stash = ctrl.stash
        posmap = ctrl.posmap
        out: list[str] = []

        real_seen: dict[int, str] = {}
        real_version: dict[int, int] = {}
        shadows: list[tuple[int, int, str]] = []  # (addr, version, where)

        # Tree walk: occupancy, posmap membership, copy census.
        for idx in range(tree.num_buckets):
            bucket = tree.bucket(idx)
            if len(bucket) != cfg.z:
                out.append(
                    f"bucket {idx} holds {len(bucket)} slots, Z={cfg.z}"
                )
            occupied = [blk for blk in bucket if blk is not None]
            if len(occupied) > cfg.z:
                out.append(
                    f"bucket {idx} occupancy {len(occupied)} exceeds Z={cfg.z}"
                )
            level = tree.level_of_bucket(idx)
            for slot, blk in enumerate(bucket):
                if blk is None or (
                    authentic is not None and not authentic(idx, slot, blk)
                ):
                    continue
                where = f"bucket {idx} (level {level})"
                mapped = posmap.lookup(blk.addr)
                if blk.is_shadow:
                    shadows.append((blk.addr, blk.version, where))
                    continue
                if blk.addr in real_seen:
                    out.append(
                        f"addr {blk.addr}: duplicate real copy in {where} "
                        f"(also {real_seen[blk.addr]})"
                    )
                real_seen[blk.addr] = where
                real_version[blk.addr] = blk.version
                if blk.leaf != mapped:
                    out.append(
                        f"addr {blk.addr}: leaf label {blk.leaf} disagrees "
                        f"with posmap {mapped}"
                    )
                if not tree.on_path(mapped, idx):
                    out.append(
                        f"addr {blk.addr}: real copy in {where} is off its "
                        f"mapped path (leaf {mapped})"
                    )

        # Stash: bound + census.
        if stash.real_count > stash.capacity:
            out.append(
                f"stash holds {stash.real_count} real blocks, "
                f"capacity {stash.capacity}"
            )
        for blk in stash.real_blocks():
            if blk.addr in real_seen:
                out.append(
                    f"addr {blk.addr}: real copy in both stash and "
                    f"{real_seen[blk.addr]}"
                )
            real_seen[blk.addr] = "stash"
            real_version[blk.addr] = blk.version
            mapped = posmap.lookup(blk.addr)
            if blk.leaf != mapped:
                out.append(
                    f"addr {blk.addr}: stashed leaf label {blk.leaf} "
                    f"disagrees with posmap {mapped}"
                )
        for blk in stash.shadow_blocks():
            shadows.append((blk.addr, blk.version, "stash"))

        # Shadow freshness: a shadow whose version trails its real copy is
        # stale — serving it would return overwritten data.
        for addr, version, where in shadows:
            real = real_version.get(addr)
            if real is not None and version != real:
                out.append(
                    f"addr {addr}: stale shadow in {where} "
                    f"(version {version}, real version {real})"
                )
        return out
