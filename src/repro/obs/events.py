"""Typed event bus: the spine of the observability layer.

Every stage of the simulator (`TinyOramController`, `ShadowOramController`,
`RequestScheduler`, the partition policies, the system backend) emits
small, slotted, frozen event dataclasses onto a shared
:class:`EventBus`.  Subscribers — the metrics collector, the Perfetto
timeline builder, the JSONL logger, the span tracer — are strictly
opt-in; with no subscribers attached the bus costs one attribute test
per would-be emission site, and no event object is ever constructed.

Events come in two families with one guard each.  The span family
(:data:`SPAN_EVENT_TYPES`: ``SpanStarted``, ``SpanFinished``, each
request root's ``RequestCompleted`` and the run's one ``RunFinished``)
is emitted whenever anyone subscribes; every other event only when some
subscriber declared it wants more than the span family (``bus._detail``,
derived from the subscriptions)::

    bus = self.bus
    if bus._subs:
        bus.emit(SpanStarted(name="stash_scan", ts=now))
    if bus._detail:
        bus.emit(DuplicationPlaced(addr=addr, level=level, ...))

A span-only run (``repro run --spans``, ``repro profile``) therefore
builds no duplication, partition or recovery event it would throw away.
Nothing is counted twice: path reads, RW evictions and dummy requests
are recorded by their spans alone (``path_read``/``eviction_read`` with
the read's purpose as ``detail``, ``eviction``, and the ``dummy`` root);
per-access facts no stat holds (the serving level, the stash occupancy
after the access) ride on ``RequestCompleted``; and the counts the
simulator's stats already keep arrive once, on ``RunFinished``.  The
detail family holds what neither the stats nor the roots record: which
copy went to which slot (``DuplicationPlaced``), the series of partition
levels (``PartitionAdjusted``), and the rare sweep, recovery, checkpoint,
shard and SLO events.

Components without their own clock (the partition policy, the shadow
fill) stamp events with ``bus.now``, which the controller advances at the
start of every access while subscribers are attached.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

# Duplication kinds (mirrors the RD/HD split of Section IV).
DUP_RD = "rd"
DUP_HD = "hd"

# Path-access purposes.
PURPOSE_REQUEST = "request"
PURPOSE_DUMMY = "dummy"
PURPOSE_EVICTION = "eviction"


# ----------------------------------------------------------------------
# Event taxonomy
# ----------------------------------------------------------------------
@dataclass(slots=True, frozen=True)
class RequestCompleted:
    """One ``access()``/``dummy_access()`` call returned.

    Carries the full :class:`~repro.oram.tiny.AccessResult` timeline so
    subscribers (the span tracer, the timeline builder, the metrics
    collector) need no access to controller internals.  ``data_ready``
    is ``finish`` for dummies.  ``level`` is the tree level the serving
    copy was read from (``-1`` for on-chip serves and dummies);
    ``stash_real``/``stash_shadow`` count the stash's real blocks and
    replaceable shadows after the call, the occupancy Path ORAM's stash
    bound speaks of.  The last three default so that logs written before
    they existed still load.
    """

    addr: int
    op: str
    served_from: str | None
    issue: float
    data_ready: float
    finish: float
    evicted: bool
    path_accesses: int
    core: int
    level: int = -1
    stash_real: int = 0
    stash_shadow: int = 0


@dataclass(slots=True, frozen=True)
class RunFinished:
    """A full-system ORAM run ended; carries the simulator's own stats.

    Emitted once by :meth:`OramBackend.finalize
    <repro.system.backend.OramBackend.finalize>` from checkpointed
    state, so it covers the whole run after a restore too: ``OramStats``
    counters, the backend's real launches, the scheduler's
    timing-protected launches, ``ShadowStats``' shadows per kind, the Hot
    Address Cache's hits and misses and the partition level's moves
    (``0`` where a scheme has no such part).
    """

    accesses: int
    real_requests: int
    dummy_accesses: int
    stash_hits: int
    shadow_stash_hits: int
    shadow_path_serves: int
    treetop_serves: int
    onchip_serves: int
    path_reads: int
    evictions: int
    slot_waits: int
    rd_shadows: int
    hd_shadows: int
    hot_cache_hits: int
    hot_cache_misses: int
    partition_adjustments: int


@dataclass(slots=True, frozen=True)
class DuplicationPlaced:
    """A shadow copy was written into a dummy slot (Algorithm 1)."""

    addr: int
    level: int
    kind: str  # rd | hd
    from_stash: bool
    ts: float


@dataclass(slots=True, frozen=True)
class PartitionAdjusted:
    """The dynamic partitioning level moved (Section IV-D-2)."""

    old_level: int
    new_level: int
    counter: int
    ts: float


@dataclass(slots=True, frozen=True)
class SweepPointStarted:
    """The sweep engine picked up one grid point (before cache lookup)."""

    workload: str
    scheme: str
    index: int
    total: int


@dataclass(slots=True, frozen=True)
class SweepPointFinished:
    """One grid point resolved — from the cache or by simulation.

    ``elapsed_s`` is wall-clock simulation time (``0.0`` for cache hits);
    unlike the simulator events above it is host time, not model cycles.
    """

    workload: str
    scheme: str
    index: int
    total: int
    cached: bool
    elapsed_s: float


@dataclass(slots=True, frozen=True)
class SweepPointRetried:
    """One grid point's attempt failed and the runner is retrying it.

    ``attempt`` is the attempt number that failed (1-based); ``error`` is
    the repr of the exception (or ``"timeout"`` for a hung point).
    """

    workload: str
    scheme: str
    index: int
    total: int
    attempt: int
    error: str


@dataclass(slots=True, frozen=True)
class SweepPointFailed:
    """One grid point exhausted its retry budget and was abandoned.

    ``status`` is ``"failed"`` (the job raised), ``"timed-out"`` (every
    attempt exceeded the per-point timeout) or ``"interrupted"``.
    """

    workload: str
    scheme: str
    index: int
    total: int
    status: str
    attempts: int
    error: str


@dataclass(slots=True, frozen=True)
class CorruptionDetected:
    """Integrity verification localized one corrupt tree slot."""

    bucket: int
    level: int
    slot: int
    addr: int  # -1 when the authenticated contents were a dummy
    ts: float


@dataclass(slots=True, frozen=True)
class BlockRecovered:
    """A corrupt slot was healed and scrubbed back into the tree.

    ``source`` names the escalation-ladder rung that supplied the valid
    copy: ``stash`` / ``shadow_stash`` / ``path_duplicate`` /
    ``tree_duplicate`` / ``rebuild`` / ``dummy``.  ``scrub`` is ``True``
    when the heal came from a background scrub pass rather than a
    demand-path verification.
    """

    bucket: int
    level: int
    slot: int
    addr: int
    source: str
    scrub: bool
    ts: float


@dataclass(slots=True, frozen=True)
class RecoveryFailed:
    """No rung of the escalation ladder produced a valid copy.

    ``action`` is what the policy did about it: ``raise`` (the run is
    about to die with :class:`~repro.oram.integrity.IntegrityError`) or
    ``degrade`` (the slot was dropped and the run continues).
    """

    bucket: int
    level: int
    slot: int
    addr: int
    action: str
    ts: float


@dataclass(slots=True, frozen=True)
class PosmapRepaired:
    """A stale position-map entry was repaired from the tree.

    The authoritative leaf was recovered from the block's own ``leaf``
    field (verified against the slot digest), as a posmap-guided repair
    fetch would do against a durable replica.
    """

    addr: int
    stale_leaf: int
    leaf: int
    ts: float


@dataclass(slots=True, frozen=True)
class SpanStarted:
    """A causal span opened (see :mod:`repro.obs.spans`).

    ``name`` is the phase name from the span glossary (``request``,
    ``dummy``, ``queue``, ``stall``, ``oram_access``, ``path_read``,
    ``eviction``, ``eviction_read``, ``eviction_write``, ``dram_read``,
    ``dram_write``, ``stash_scan``, ``merkle``, ``shadow_fill``,
    ``shadow_serve``, ``reshuffle``).  ``ts`` is the simulated cycle the
    phase began; the tracer stamps host wall time at receipt, giving every
    span dual clocks.  ``addr``/``detail`` are optional annotations
    (request address, op, path-read purpose, merkle action, ...).
    """

    name: str
    ts: float
    addr: int = -1
    detail: str = ""


@dataclass(slots=True, frozen=True)
class SpanFinished:
    """The matching close of the innermost open :class:`SpanStarted`.

    Spans close strictly LIFO per trace (emission order == host execution
    order == nesting order).  ``detail`` may carry close-time annotations
    (e.g. shadow-fill selection counts) merged into the span record.
    """

    name: str
    ts: float
    detail: str = ""


@dataclass(slots=True, frozen=True)
class ServeRequestServed:
    """The serving frontend completed one admitted client request.

    Emitted by :class:`~repro.serve.server.OramServer` after the ORAM
    access returns, carrying both clocks: ``wall_ms`` is queue-to-reply
    host time, ``latency_cycles`` the bridge's simulated access latency.
    ``ts`` is the server's monotone progress stamp (served-access
    ordinal for sharded fleets, simulated cycles otherwise).
    """

    addr: int
    op: str
    served_from: str
    wall_ms: float
    latency_cycles: float
    ts: float


@dataclass(slots=True, frozen=True)
class ShardRecovered:
    """A dead shard finished respawn + replay and rejoined the fleet.

    ``respawns`` is the shard's cumulative respawn count after this
    recovery; ``replayed`` the number of intent-log entries replayed to
    catch the fresh worker up.  ``ts`` is the supervisor's dispatch-round
    ordinal at recovery time.
    """

    shard: int
    respawns: int
    replayed: int
    ts: float


@dataclass(slots=True, frozen=True)
class SloStateChanged:
    """The rolling SLO monitor's state machine transitioned.

    ``previous``/``state`` are ``healthy`` / ``degraded`` / ``breached``;
    ``window`` is the roll ordinal the transition was evaluated at;
    ``violations`` is a compact ``key=value>threshold`` list (empty on a
    recovery transition).  ``ts`` is the monitor clock (host seconds
    under the server, an injected fake in tests).
    """

    previous: str
    state: str
    window: int
    violations: str
    ts: float


@dataclass(slots=True, frozen=True)
class CheckpointSaved:
    """The simulator persisted an intra-run checkpoint."""

    access_index: int
    path: str
    ts: float


@dataclass(slots=True, frozen=True)
class CheckpointRestored:
    """The simulator resumed from an intra-run checkpoint."""

    access_index: int
    path: str
    ts: float


EVENT_TYPES: tuple[type, ...] = (
    RequestCompleted,
    RunFinished,
    DuplicationPlaced,
    PartitionAdjusted,
    SweepPointStarted,
    SweepPointFinished,
    SweepPointRetried,
    SweepPointFailed,
    CorruptionDetected,
    BlockRecovered,
    RecoveryFailed,
    PosmapRepaired,
    SpanStarted,
    SpanFinished,
    ServeRequestServed,
    ShardRecovered,
    SloStateChanged,
    CheckpointSaved,
    CheckpointRestored,
)


EVENT_BY_NAME: dict[str, type] = {cls.__name__: cls for cls in EVENT_TYPES}

#: The span family: the spans, their request roots' ``RequestCompleted``
#: and the run's ``RunFinished``, emitted whenever anyone subscribes.
#: Emission sites of every other event test :attr:`EventBus._detail`
#: instead of ``_subs``.
SPAN_EVENT_TYPES = frozenset(
    {SpanStarted, SpanFinished, RequestCompleted, RunFinished}
)


def event_to_dict(event: object) -> dict[str, object]:
    """Flatten an event dataclass into ``{"type": ..., field: value}``."""
    out: dict[str, object] = {"type": type(event).__name__}
    for f in fields(event):
        out[f.name] = getattr(event, f.name)
    return out


def event_from_dict(payload: dict[str, object]) -> object:
    """Rebuild an event from :func:`event_to_dict` output.

    The inverse half of the JSONL round-trip: unknown ``type`` names
    raise (a logged event must stay replayable), extra keys are ignored
    so files written by newer code still load.
    """
    name = payload.get("type")
    cls = EVENT_BY_NAME.get(str(name))
    if cls is None:
        raise ValueError(f"unknown event type {name!r}")
    kwargs = {
        f.name: payload[f.name] for f in fields(cls) if f.name in payload
    }
    return cls(**kwargs)


# ----------------------------------------------------------------------
# The bus
# ----------------------------------------------------------------------
Handler = Callable[[object], None]


class EventBus:
    """Minimal synchronous pub/sub bus.

    Emission sites check ``bus._subs`` (a plain list) or ``bus._detail``
    (a bool) before constructing an event, so an unsubscribed bus adds a
    single attribute load and truthiness test to the hot path.
    ``_detail`` is derived from the subscriptions alone: it is true when
    an untyped subscriber is attached, or a typed one that accepts an
    event outside :data:`SPAN_EVENT_TYPES`.  ``now`` and ``core`` are
    mutable ambient context: the simulator/controller set them while
    subscribers are attached so clock-less components can stamp their
    events.
    """

    __slots__ = ("_subs", "_accepts", "_typed", "_detail", "now", "core")

    def __init__(self) -> None:
        self._subs: list[Handler] = []
        # Accepted event types per entry of ``_subs`` (None: every type).
        self._accepts: list[frozenset[type] | None] = []
        # handler -> wrapped handler, for unsubscribe.
        self._typed: dict[Handler, Handler] = {}
        self._detail = False
        self.now: float = 0.0
        self.core: int = -1

    # ------------------------------------------------------------------
    def subscribe(self, handler: Handler, *event_types: type) -> Handler:
        """Attach ``handler``; with ``event_types`` it only sees those.

        Returns the callable actually registered (useful for
        :meth:`unsubscribe` when a filter wrapper was installed).
        """
        if event_types:
            accepted = tuple(event_types)

            def filtered(event: object, _h=handler, _t=accepted) -> None:
                if isinstance(event, _t):
                    _h(event)

            self._typed[handler] = filtered
            registered, accepts = filtered, frozenset(accepted)
        else:
            registered, accepts = handler, None
        self._subs.append(registered)
        self._accepts.append(accepts)
        self._derive()
        return registered

    def unsubscribe(self, handler: Handler) -> None:
        """Detach a handler registered with :meth:`subscribe`."""
        registered = self._typed.pop(handler, handler)
        try:
            index = self._subs.index(registered)
        except ValueError:
            return
        del self._subs[index]
        del self._accepts[index]
        self._derive()

    def _derive(self) -> None:
        self._detail = any(
            accepts is None or not accepts <= SPAN_EVENT_TYPES
            for accepts in self._accepts
        )

    @property
    def active(self) -> bool:
        """Whether any subscriber is attached."""
        return bool(self._subs)

    def emit(self, event: object) -> None:
        """Deliver ``event`` synchronously to every subscriber."""
        for sub in self._subs:
            sub(event)
