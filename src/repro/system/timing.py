"""Request launch scheduling, with optional constant-rate timing protection.

Without timing protection a real ORAM request launches as soon as both the
CPU needs it and the controller is free.  With timing protection
(Section II-B, Fletcher et al. [16]) the controller launches exactly one
request per ``rate_cycles`` slot; when no real request is ready the slot
fires a *dummy* request.  A real request that misses its slot by a cycle
waits out the dummy plus the next slot — the exact penalty Figure 2(d/e)
shows RD-Dup removing.

The scheduler also aggregates the Equation (1) decomposition: the busy
time of real requests is *data access time*; dummy busy time and idle
stretches land in the DRI.  A run ends when the controller frees after
its last real request: every dummy it counts filled an empty slot
before some real request launched.
"""

from __future__ import annotations

from repro.obs.events import EventBus, SpanFinished, SpanStarted
from repro.system.config import TimingProtectionConfig


class RequestScheduler:
    """Arbiter deciding when each ORAM request launches.

    Args:
        controller: Any object with ``dummy_access(now) -> AccessResult``
            and optionally ``note_idle_gap(gap)`` (the shadow controller's
            hook for virtual-dummy DRI-counter updates).
        timing: Timing-protection settings.
        bus: Observability bus (defaults to the controller's own bus so
            scheduler events interleave with controller events).
    """

    def __init__(
        self,
        controller,
        timing: TimingProtectionConfig,
        bus: EventBus | None = None,
    ) -> None:
        self.controller = controller
        self.timing = timing
        if bus is None:
            bus = getattr(controller, "bus", None) or EventBus()
        self.bus = bus
        self.controller_free = 0.0
        self.next_slot = 0.0
        self.dummy_requests = 0
        self.data_busy = 0.0
        self.dummy_busy = 0.0
        # Timing-protected launches.  Kept out of :meth:`snapshot_state`,
        # which the serve bridge's state digest covers; the simulator's
        # backend checkpoints it beside its own counters.
        self.slot_waits = 0
        self._notes_gaps = hasattr(controller, "note_idle_gap")

    def launch_real(self, ready: float) -> float:
        """Launch time for a real request that became ready at ``ready``.

        With timing protection on, every slot between now and ``ready``
        fires a dummy ORAM request first (state changes happen here).
        """
        if not self.timing.enabled:
            launch = max(ready, self.controller_free)
            gap = launch - self.controller_free
            if gap > 0 and self._notes_gaps:
                if self.bus._subs:
                    self.bus.now = launch
                self.controller.note_idle_gap(gap)
            if launch > ready and self.bus._subs:
                self.bus.emit(SpanStarted(name="queue", ts=ready))
                self.bus.emit(SpanFinished(name="queue", ts=launch))
            return launch
        rate = self.timing.rate_cycles
        while True:
            slot = max(self.next_slot, self.controller_free)
            self.next_slot = slot + rate
            if ready <= slot:
                self.slot_waits += 1
                if slot > ready and self.bus._subs:
                    self.bus.emit(SpanStarted(name="stall", ts=ready))
                    self.bus.emit(SpanFinished(name="stall", ts=slot))
                return slot
            result = self.controller.dummy_access(slot)
            self.controller_free = result.finish
            self.dummy_busy += result.finish - slot
            self.dummy_requests += 1

    def complete_real(self, launch: float, finish: float) -> None:
        """Record a real request's busy interval."""
        self.controller_free = finish
        self.data_busy += finish - launch

    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable rendering of the arbiter's clocks/counters."""
        return {
            "controller_free": self.controller_free,
            "next_slot": self.next_slot,
            "dummy_requests": self.dummy_requests,
            "data_busy": self.data_busy,
            "dummy_busy": self.dummy_busy,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        self.controller_free = state["controller_free"]
        self.next_slot = state["next_slot"]
        self.dummy_requests = state["dummy_requests"]
        self.data_busy = state["data_busy"]
        self.dummy_busy = state["dummy_busy"]
