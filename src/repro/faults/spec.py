"""Fault taxonomy: small, serializable descriptions of what goes wrong.

Each :class:`FaultSpec` names one adverse runtime condition the simulator
or the sweep engine must survive, and *where* in the run it fires (grid
point, attempt number, access index).  Specs are plain frozen dataclasses
with a ``kind`` registry and dict round-tripping, so a whole
:class:`FaultPlan` can be shipped to worker processes inside a sweep job
and reconstructed bit-identically — same plan + same seed produces the
same failure sequence in every process, which is what makes fault runs
reproducible.

The taxonomy (DESIGN.md §8):

========================  =====================================================
kind                      what it models
========================  =====================================================
``worker-crash``          a sweep worker dying mid-point (exception or hard
                          ``os._exit`` that breaks the process pool)
``worker-hang``           a grid point that never finishes (worker sleeps past
                          the runner's per-point timeout)
``cache-corrupt``         a torn / bit-rotted on-disk cache entry (truncation
                          at a seeded offset, or garbage bytes)
``cache-os-error``        the cache directory failing with ``OSError`` —
                          ``ENOSPC``, read-only mount, quota
``stash-pressure``        a transient stash-occupancy spike (capacity squeezed
                          for a window of accesses)
``bit-flip``              a DRAM payload/metadata bit-flip in a tree bucket,
                          the fault :mod:`repro.oram.integrity` exists to catch
``posmap-corrupt``        a stale position-map entry (on-chip SRAM upset or a
                          lost remap), the fault recovery's posmap-repair
                          branch exists to fix
``client-disconnect``     a serving client dropping its connection mid-request
                          (the load generator aborts the socket after sending
                          request N; the server must abandon, not crash)
``slow-client``           a client that stops reading responses for a while
                          (the server's per-session window must throttle its
                          reads instead of buffering unboundedly)
``server-crash``          the serve process dying between two ORAM accesses
                          (``repro serve`` restarts with ``--restore`` and
                          resumes from the last checkpoint bit-identically)
``shard-crash``           one shard worker of a sharded fleet dying at a
                          given intent ordinal (the supervisor respawns it
                          from checkpoint + intent-log replay)
``shard-hang``            a shard worker that stops answering (the
                          supervisor's access timeout must declare it dead
                          and recover exactly like a crash)
``shard-checkpoint-corrupt``  a shard's newest checkpoint file torn or
                          rotted at recovery time (recovery must fall back
                          to an older snapshot or a from-scratch replay)
========================  =====================================================
"""

from __future__ import annotations

import errno
from dataclasses import asdict, dataclass, fields


class FaultSpecError(ValueError):
    """Raised for unknown fault kinds or malformed spec strings."""


@dataclass(slots=True, frozen=True)
class FaultSpec:
    """Base class: every spec knows its registry ``kind``."""

    kind = "abstract"

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"kind": self.kind}
        out.update(asdict(self))
        return out


@dataclass(slots=True, frozen=True)
class WorkerCrash(FaultSpec):
    """Crash the execution of grid point ``point`` on attempt ``attempt``.

    ``mode="exception"`` raises :class:`~repro.faults.injector.InjectedCrash`
    (a job failure the runner retries); ``mode="exit"`` calls ``os._exit``
    inside a worker process, breaking the whole pool — when executed
    in-process (serial path, or the post-respawn re-execution) it degrades
    to the exception form so the parent never kills itself.
    """

    kind = "worker-crash"

    point: int = 0
    attempt: int = 1
    mode: str = "exception"  # exception | exit

    def __post_init__(self) -> None:
        if self.mode not in ("exception", "exit"):
            raise FaultSpecError(f"worker-crash mode must be "
                                 f"'exception' or 'exit', got {self.mode!r}")


@dataclass(slots=True, frozen=True)
class WorkerHang(FaultSpec):
    """Stall grid point ``point`` on attempt ``attempt`` for ``hang_s``.

    ``hang_s`` should comfortably exceed the runner's per-point timeout
    but stay bounded (an abandoned worker sleeps it out in the
    background; an unbounded sleep would stall interpreter shutdown).
    """

    kind = "worker-hang"

    point: int = 0
    attempt: int = 1
    hang_s: float = 5.0


@dataclass(slots=True, frozen=True)
class CacheCorruption(FaultSpec):
    """Corrupt cache entries as they are read back.

    ``mode="truncate"`` cuts the entry file at a seeded random offset
    (modelling a torn write); ``mode="garbage"`` overwrites it with
    non-JSON bytes.  ``first``/``count`` select which cache *reads* are
    hit (0-based read index); the default corrupts every entry, turning
    the whole cache directory into a miss — the degraded mode the
    acceptance criteria exercise.
    """

    kind = "cache-corrupt"

    mode: str = "truncate"  # truncate | garbage
    first: int = 0
    count: int = -1  # -1 = every read from `first` on

    def __post_init__(self) -> None:
        if self.mode not in ("truncate", "garbage"):
            raise FaultSpecError(f"cache-corrupt mode must be "
                                 f"'truncate' or 'garbage', got {self.mode!r}")


@dataclass(slots=True, frozen=True)
class CacheOsError(FaultSpec):
    """Make cache writes fail with ``OSError(err)`` from put ``first`` on.

    Models ``ENOSPC`` / read-only cache directories; the cache must
    degrade to write-disabled mode, never abort the sweep.
    """

    kind = "cache-os-error"

    err: int = errno.ENOSPC
    first: int = 0
    count: int = -1


@dataclass(slots=True, frozen=True)
class StashPressure(FaultSpec):
    """Squeeze the stash's real-block capacity during one access window.

    From access ``at_access`` (0-based, counted per controller) for
    ``window`` accesses, capacity is reduced by ``squeeze`` real slots.
    With the invariant checker in ``degrade`` mode this surfaces as
    counted violations; in ``raise`` mode (or if the squeeze is deep
    enough to overflow) the run aborts loudly — either way the behaviour
    is decided by policy, not by accident.
    """

    kind = "stash-pressure"

    at_access: int = 0
    window: int = 1
    squeeze: int = 1


@dataclass(slots=True, frozen=True)
class BitFlip(FaultSpec):
    """Flip payload/version bits of one occupied tree bucket slot.

    Fires before access ``at_access``; the victim slot is chosen with the
    injector's seeded RNG.  :class:`~repro.oram.integrity.MerkleTree`
    verification catches the tamper as an
    :class:`~repro.oram.integrity.IntegrityError`; the
    :class:`~repro.faults.invariants.RuntimeInvariants` checker catches
    the stale shadow / version skew it leaves behind.
    """

    kind = "bit-flip"

    at_access: int = 0


@dataclass(slots=True, frozen=True)
class PosmapCorrupt(FaultSpec):
    """Make one position-map entry stale before access ``at_access``.

    ``addr=-1`` lets the injector pick (with its seeded RNG) an address
    whose real block currently rests in the tree, so the fault is always
    repairable by the recovery layer's posmap-guided branch; a fixed
    ``addr`` targets that block regardless of where it lives.  The stale
    leaf is drawn uniformly from the *other* leaves, so the entry is
    guaranteed wrong.
    """

    kind = "posmap-corrupt"

    at_access: int = 0
    addr: int = -1


@dataclass(slots=True, frozen=True)
class ClientDisconnect(FaultSpec):
    """Drop a serving client's connection right after request ``at_request``.

    Applied by the load generator (:mod:`repro.serve.load`): the request
    whose 0-based global ordinal equals ``at_request`` is sent and then
    the socket is *aborted* (RST, no FIN handshake), modelling a client
    crash mid-request.  The generator reconnects and retries; the server
    must abandon the orphaned work without wasting ORAM accesses on it.
    """

    kind = "client-disconnect"

    at_request: int = 0


@dataclass(slots=True, frozen=True)
class SlowClient(FaultSpec):
    """Stop reading responses for ``stall_s`` after request ``at_request``.

    Applied by the load generator: the connection that sent the matching
    request stops draining its receive side for ``stall_s`` seconds.  The
    server's per-session admission window must throttle further reads
    from that client (bounded buffering) while other clients keep being
    served.
    """

    kind = "slow-client"

    at_request: int = 0
    stall_s: float = 0.5


@dataclass(slots=True, frozen=True)
class ServerCrash(FaultSpec):
    """Kill the serve process before ORAM access ``at_access``.

    Fires in :meth:`repro.faults.injector.FaultInjector.before_serve_access`
    when the bridge's served-access counter reaches ``at_access``.
    ``mode="exit"`` hard-kills the process (``os._exit``), the CI-smoke
    form; ``mode="exception"`` raises
    :class:`~repro.faults.injector.ServerCrashed`, which the in-process
    tests catch to simulate the kill.  Restarting with ``--restore``
    resumes from the last checkpoint; a crash aligned to a checkpoint
    boundary loses no state at all.
    """

    kind = "server-crash"

    at_access: int = 0
    mode: str = "exception"  # exception | exit

    def __post_init__(self) -> None:
        if self.mode not in ("exception", "exit"):
            raise FaultSpecError(f"server-crash mode must be "
                                 f"'exception' or 'exit', got {self.mode!r}")


@dataclass(slots=True, frozen=True)
class ShardCrash(FaultSpec):
    """Kill shard ``shard`` of a sharded fleet before intent ``at_access``.

    Fires in :meth:`repro.faults.injector.FaultInjector.before_shard_access`,
    which the supervisor calls before every live slot, when the shard's
    intent ordinal (its position in the per-shard append-only intent
    log, real and dummy slots alike) reaches ``at_access``.  The
    supervisor then kills the shard's handle before the intent applies:
    an in-process shard drops its bridge, a worker process is killed.
    Either way the handle raises :class:`~repro.faults.injector.ShardDied`
    and the supervisor recovers the shard as after any death.  One-shot
    per spec: neither recovery replay nor the live retry of the slot
    re-triggers the crash, or the shard could never come back.
    """

    kind = "shard-crash"

    shard: int = 0
    at_access: int = 0


@dataclass(slots=True, frozen=True)
class ShardHang(FaultSpec):
    """Make shard ``shard`` stop answering before intent ``at_access``.

    Fires in the supervisor like ``shard-crash``, which then stalls the
    shard's handle for ``hang_s`` seconds.  A shard *worker process*
    sleeps without answering, so the supervisor's per-access pipe
    timeout expires, declares the shard dead and kills the worker (a
    ``hang_s`` under the timeout only delays the slot).  An in-process
    shard cannot usefully sleep on the event loop, so it dies at once —
    the post-detection behaviour is identical either way.  One-shot per
    spec, like ``shard-crash``.
    """

    kind = "shard-hang"

    shard: int = 0
    at_access: int = 0
    hang_s: float = 5.0


@dataclass(slots=True, frozen=True)
class ShardCheckpointCorrupt(FaultSpec):
    """Corrupt shard ``shard``'s newest checkpoint at recovery time.

    Fires in
    :meth:`repro.faults.injector.FaultInjector.corrupt_shard_checkpoint`
    when the supervisor is about to reload the shard's state:
    ``mode="truncate"`` cuts the newest checkpoint file at a seeded
    offset (a torn write), ``mode="garbage"`` overwrites it with
    non-JSON bytes.  :meth:`~repro.system.checkpoint.Checkpointer.load_latest`
    must skip the damaged file and fall back to an older snapshot — or,
    with none left, to a from-scratch intent-log replay.  One-shot per
    spec.
    """

    kind = "shard-checkpoint-corrupt"

    shard: int = 0
    mode: str = "truncate"  # truncate | garbage

    def __post_init__(self) -> None:
        if self.mode not in ("truncate", "garbage"):
            raise FaultSpecError(
                f"shard-checkpoint-corrupt mode must be "
                f"'truncate' or 'garbage', got {self.mode!r}")


FAULT_KINDS: dict[str, type[FaultSpec]] = {
    cls.kind: cls
    for cls in (WorkerCrash, WorkerHang, CacheCorruption, CacheOsError,
                StashPressure, BitFlip, PosmapCorrupt,
                ClientDisconnect, SlowClient, ServerCrash,
                ShardCrash, ShardHang, ShardCheckpointCorrupt)
}


def spec_from_dict(payload: dict[str, object]) -> FaultSpec:
    """Rebuild a spec from :meth:`FaultSpec.to_dict` output."""
    payload = dict(payload)
    kind = payload.pop("kind", None)
    cls = FAULT_KINDS.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise FaultSpecError(
            f"unknown fault kind {kind!r}; known: {sorted(FAULT_KINDS)}"
        )
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise FaultSpecError(f"{kind}: unknown fields {sorted(unknown)}")
    return cls(**payload)  # type: ignore[arg-type]


def parse_spec(text: str) -> FaultSpec:
    """Parse the CLI syntax ``kind[@point][:field=value,...]``.

    Examples::

        worker-crash@2              crash point 2's first attempt
        worker-crash@2:mode=exit    hard-kill the worker at point 2
        worker-hang@1:hang_s=3      hang point 1 for 3 seconds
        cache-corrupt               corrupt every cache read
        cache-os-error:first=1      ENOSPC from the second put on
        stash-pressure:at_access=50,squeeze=4,window=10
        bit-flip:at_access=100
    """
    head, _, opts = text.strip().partition(":")
    kind, _, point = head.partition("@")
    cls = FAULT_KINDS.get(kind)
    if cls is None:
        raise FaultSpecError(
            f"unknown fault kind {kind!r}; known: {sorted(FAULT_KINDS)}"
        )
    field_types = {f.name: f.type for f in fields(cls)}
    kwargs: dict[str, object] = {}
    if point:
        if "point" not in field_types:
            raise FaultSpecError(f"{kind} does not take an @point selector")
        kwargs["point"] = int(point)
    if opts:
        for item in opts.split(","):
            name, sep, value = item.partition("=")
            name = name.strip()
            if not sep or name not in field_types:
                raise FaultSpecError(
                    f"{kind}: bad option {item!r}; "
                    f"fields: {sorted(field_types)}"
                )
            default = next(f for f in fields(cls) if f.name == name).default
            target = type(default) if default is not None else str
            if target is bool:
                kwargs[name] = value.strip().lower() in ("1", "true", "yes")
            elif target in (int, float):
                kwargs[name] = target(value)
            else:
                kwargs[name] = value.strip()
    return cls(**kwargs)  # type: ignore[arg-type]
