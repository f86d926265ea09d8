"""ORAM tree partitioning between RD-Dup and HD-Dup (Section IV-D).

The tree is split at the *partitioning level* ``P``: dummy slots at levels
``0 .. P-1`` (root-ward, shared by many paths — where cached hot data pays
off) are filled by HD-Dup, and dummy slots at levels ``>= P`` (leaf-ward)
by RD-Dup.  ``P = 0`` is pure RD-Dup; ``P = L + 1`` is pure HD-Dup; raising
``P`` hands more dummy slots to HD-Dup, matching the paper's description of
Figure 9.

``P`` is either fixed (*static partitioning*) or steered by a saturating
**DRI counter** (*dynamic partitioning*): after each ORAM request the
counter is incremented when a dummy request follows a real one (the data
request interval was long — RD-Dup territory) and decremented when two
real requests are back to back (short DRIs — HD-Dup territory).  When the
counter sits below half of its range the partitioning level grows by one,
otherwise it shrinks.

Without timing protection there are no dummy requests, so the simulator
reports long idle gaps as *virtual* dummy requests (one per
``dummy_threshold`` cycles of idleness) — see DESIGN.md interpretation
notes.
"""

from __future__ import annotations

from repro.obs.events import EventBus, PartitionAdjusted

REAL = "real"
DUMMY = "dummy"


class DriCounter:
    """Saturating Data-Request-Interval counter (Section IV-D-2).

    Args:
        bits: Counter width; the counter saturates in
            ``0 .. 2**bits - 1`` and starts at the midpoint.
    """

    def __init__(self, bits: int = 3) -> None:
        if bits < 1:
            raise ValueError(f"counter width must be >= 1 bit, got {bits}")
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.value = (self.max_value + 1) // 2
        self._prev: str | None = None

    def observe(self, kind: str) -> None:
        """Feed one ORAM request (``"real"`` or ``"dummy"``).

        Update rule from the paper: real->dummy increments, real->real
        decrements, anything else leaves the counter unchanged.
        """
        if kind not in (REAL, DUMMY):
            raise ValueError(f"request kind must be 'real' or 'dummy', got {kind!r}")
        prev = self._prev
        self._prev = kind
        if prev != REAL:
            return
        if kind == DUMMY:
            self.value = min(self.max_value, self.value + 1)
        else:
            self.value = max(0, self.value - 1)

    @property
    def wants_more_hd(self) -> bool:
        """True when short DRIs dominate (counter below half of range)."""
        return self.value < (self.max_value + 1) // 2


class PartitionPolicy:
    """Static partitioning: a fixed level ``P`` for the whole run."""

    # Times ``P`` moved; a static level never does.
    adjustments = 0

    def __init__(
        self, level: int, max_level: int, bus: EventBus | None = None
    ) -> None:
        if not 0 <= level <= max_level:
            raise ValueError(f"partition level {level} outside 0..{max_level}")
        self._level = level
        self.max_level = max_level
        self.bus = bus if bus is not None else EventBus()

    @property
    def level(self) -> int:
        """Current partitioning level ``P``."""
        return self._level

    def uses_hd(self, slot_level: int) -> bool:
        """Whether the dummy slot at ``slot_level`` belongs to HD-Dup."""
        return slot_level < self._level

    def observe(self, kind: str) -> None:
        """Static partitioning ignores the request stream."""

    def observe_idle_gap(self, gap: float, dummy_threshold: float) -> None:
        """Static partitioning ignores idle gaps."""

    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable rendering of the policy state."""
        return {"level": self._level}

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        self._level = state["level"]


class DynamicPartitionPolicy(PartitionPolicy):
    """DRI-counter-driven partitioning (Section IV-D-2).

    Args:
        max_level: ``L + 1`` — the exclusive upper bound for ``P``.
        counter_bits: DRI counter width (paper's best: 3).
        initial_level: Starting ``P`` (defaults to the middle of the tree).
    """

    def __init__(
        self,
        max_level: int,
        counter_bits: int = 3,
        initial_level: int | None = None,
        bus: EventBus | None = None,
    ) -> None:
        if initial_level is None:
            initial_level = max_level // 2
        super().__init__(initial_level, max_level, bus=bus)
        self.counter = DriCounter(counter_bits)
        self.adjustments = 0

    def observe(self, kind: str) -> None:
        """Feed one ORAM request and re-steer the partitioning level."""
        self.counter.observe(kind)
        if self.counter.wants_more_hd:
            new_level = min(self.max_level, self._level + 1)
        else:
            new_level = max(0, self._level - 1)
        if new_level != self._level:
            old_level = self._level
            self._level = new_level
            self.adjustments += 1
            if self.bus._detail:
                bus = self.bus
                bus.emit(
                    PartitionAdjusted(
                        old_level=old_level,
                        new_level=new_level,
                        counter=self.counter.value,
                        ts=bus.now,
                    )
                )

    def observe_idle_gap(self, gap: float, dummy_threshold: float) -> None:
        """Convert an idle gap into virtual dummy requests (no-TP mode).

        A gap long enough to have fitted a dummy request (had timing
        protection been on) is reported as one dummy observation; the
        counter rule only reacts to the first dummy after a real request,
        so one observation per gap is sufficient.
        """
        if dummy_threshold > 0 and gap >= dummy_threshold:
            self.observe(DUMMY)

    def snapshot_state(self) -> dict[str, object]:
        state = super().snapshot_state()
        state["counter_value"] = self.counter.value
        state["counter_prev"] = self.counter._prev
        state["adjustments"] = self.adjustments
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        super().restore_state(state)
        self.counter.value = state["counter_value"]
        self.counter._prev = state["counter_prev"]
        self.adjustments = state["adjustments"]
