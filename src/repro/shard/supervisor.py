"""The shard fleet supervisor: placement, padding, failover, recovery.

:class:`ShardSupervisor` presents the exact access surface of a single
:class:`~repro.serve.scheduler_bridge.OramServeBridge` (``access`` /
``served`` / ``num_blocks`` / ``run_key`` / ``state_digest``) while
fanning the fleet address space out over N shard workers
(:mod:`repro.shard.worker`) behind a consistent-hash ring
(:mod:`repro.shard.hashring`).  Three design rules carry the whole
module:

**Padded rounds.**  Every dispatched request becomes one *round* that
touches every shard in fixed index order: the owning shard executes the
real access, every other shard executes a seeded-deterministic dummy
read.  An adversary on the inter-shard links therefore sees the same
round-robin slot stream whatever the client addresses are — and, because
a dead shard's slots still appear (logged as *virtual* intents, applied
when the shard replays), the stream looks identical during a
crash-and-recover window.  ``padded=False`` exists only as the insecure
baseline the distinguisher tests leak against.

**Log + checkpoint = state.**  A shard's ORAM state is a pure function
of its applied intent sequence, so each shard carries an append-only
:class:`~repro.shard.intent_log.IntentLog` and a scoped
:class:`~repro.system.checkpoint.Checkpointer`.  Dummies are logged
*ahead* of execution (a padding slot must survive the shard's death);
real accesses are logged *behind* (after success), so an access that was
in flight when the worker died is simply re-executed after recovery —
never applied twice, never lost.  Recovery = fresh worker, newest valid
snapshot, replay of the logged suffix; the result is bit-identical,
witnessed by ``state_digest``.

**Degraded-mode policy.**  ``degraded="deny"`` recovers a dead shard
synchronously inside the access that noticed the death (total order
preserved; a clean run and a crash-and-recover run produce identical
intent sequences and digests).  ``degraded="allow"`` keeps the fleet
serving: the failed slot raises :class:`ShardUnavailable` so the server
can park the request, answer new requests for the dead partition with
``retry_after`` at admission, and re-dispatch the parked work once the
background recovery completes.  Either way an unrecoverable shard —
intent log torn mid-history, respawn budget exhausted — escalates to
:class:`FleetFailed`, the serve layer's exit-6 condition.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.faults.injector import (
    FaultInjector,
    FleetFailed,
    ShardDied,
    ShardUnavailable,
)
from repro.faults.spec import ShardHang
from repro.obs.events import EventBus, ShardRecovered
from repro.obs.metrics import MetricsRegistry
from repro.serialize import SCHEMA_VERSION, stable_hash
from repro.serve.scheduler_bridge import ServedAccess
from repro.shard.hashring import DEFAULT_FILL, HashRing, _point
from repro.shard.intent_log import (
    KIND_DUMMY,
    KIND_REAL,
    Intent,
    IntentLog,
    IntentLogCorrupt,
)
from repro.shard.worker import InprocShard, ProcessShard
from repro.system.checkpoint import Checkpointer
from repro.system.config import SystemConfig

#: Shard lifecycle states.
UP = "up"
DEAD = "dead"
RECOVERING = "recovering"


@dataclass(slots=True)
class ShardSettings:
    """Fleet shape + failure policy.

    Attributes:
        num_shards: Shard partition count.
        mode: ``"inproc"`` (bridges in the supervisor process — the
            deterministic test/bench housing) or ``"process"`` (spawned
            worker processes with pipe-timeout liveness).
        vnodes: Virtual ring points per shard.
        fill: Fraction of aggregate shard capacity exposed as the fleet
            address space (headroom for consistent-hash imbalance).
        degraded: ``"deny"`` (synchronous recovery inside the failed
            access) or ``"allow"`` (keep serving healthy shards, park
            work for the dead one).
        checkpoint_every: Per-shard snapshot interval in intents
            (0 disables periodic snapshots; recovery then replays from
            the last explicit snapshot or the log's beginning).
        checkpoint_keep: Snapshots retained per shard.
        access_timeout_s: Per-command liveness budget for process-housed
            shards (the "hang is death" threshold).
        max_respawns: Recovery attempts per shard before the death is
            declared unrecoverable (:class:`FleetFailed`).
        padded: Issue one slot per shard per round (True) or only the
            real slot (False — the insecure baseline for the
            distinguisher tests).
    """

    num_shards: int = 4
    mode: str = "inproc"  # inproc | process
    vnodes: int = 64
    fill: float = DEFAULT_FILL
    degraded: str = "deny"  # deny | allow
    checkpoint_every: int = 256
    checkpoint_keep: int = 2
    access_timeout_s: float = 5.0
    max_respawns: int = 3
    padded: bool = True

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.mode not in ("inproc", "process"):
            raise ValueError(f"mode must be 'inproc' or 'process', "
                             f"got {self.mode!r}")
        if self.degraded not in ("deny", "allow"):
            raise ValueError(f"degraded must be 'deny' or 'allow', "
                             f"got {self.degraded!r}")
        if self.max_respawns < 1:
            raise ValueError(f"max_respawns must be >= 1, "
                             f"got {self.max_respawns}")


class _ShardState:
    """Supervisor-side bookkeeping for one shard."""

    __slots__ = (
        "index", "handle", "log", "ckpt", "status", "respawns", "registry",
    )

    def __init__(self, index: int, registry: MetricsRegistry) -> None:
        self.index = index
        self.handle = None
        self.log: IntentLog | None = None
        self.ckpt: Checkpointer | None = None
        self.status = DEAD
        self.respawns = 0
        self.registry = registry

    def count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def counted(self, name: str) -> int:
        """A counter's value, 0 if never counted (creates nothing)."""
        counter = self.registry._counters.get(name)
        return counter.value if counter is not None else 0


def _shard_seed(seed: int, shard: int) -> int:
    """Deterministic, well-separated per-shard controller seed."""
    digest = hashlib.sha256(f"shard-seed:{seed}:{shard}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class ShardSupervisor:
    """Bridge-compatible frontend over a supervised shard fleet.

    Args:
        config: Per-shard system configuration (every shard runs its own
            controller built from this config; ``insecure`` is rejected
            by the underlying bridges).
        seed: Fleet seed; per-shard controller seeds are derived from it.
        state_dir: Durable root: ``shard-<k>/intents.log`` and
            ``shard-<k>/ckpt-*.json`` per shard.  Recovery and
            ``restore`` need it; it is created if missing.
        settings: Fleet shape + failure policy.
        injector: Seeded fault injector (``shard-*`` seams).  The
            supervisor asks it before every live slot, in either
            housing, and applies a fired ``shard-crash`` or
            ``shard-hang`` to the shard's handle.
        trace: Inter-shard dispatch observer, called ``(round, shard)``
            for every slot the adversary would see on the shard links.
        bus: Observability event bus; a completed recovery emits
            :class:`~repro.obs.events.ShardRecovered` (behind the usual
            zero-overhead subscriber guard).

    Attributes:
        served: Completed *real* accesses (the fleet's serve ordinal).
        rounds: Dispatch rounds issued (== dispatched requests).
    """

    def __init__(
        self,
        config: SystemConfig,
        seed: int,
        state_dir: str | Path,
        settings: ShardSettings | None = None,
        injector: FaultInjector | None = None,
        trace=None,
        bus: EventBus | None = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.settings = settings if settings is not None else ShardSettings()
        self.injector = injector
        self.trace = trace
        self.bus = bus
        self.state_dir = Path(state_dir)
        self.ring = HashRing.fit(
            self.settings.num_shards,
            capacity=config.oram.num_blocks,
            vnodes=self.settings.vnodes,
            fill=self.settings.fill,
        )
        self.served = 0
        self.rounds = 0
        self.recoveries = 0
        self._shards = [
            _ShardState(k, MetricsRegistry())
            for k in range(self.settings.num_shards)
        ]
        self._started = False
        # The serve layer drives the supervisor from the event loop
        # (in-process rounds) and from executor threads (rounds that can
        # block, the heartbeat sweep, background recovery).  Worker
        # pipes and intent logs are strictly one-command-at-a-time, so
        # every entry point that touches them serializes here; the
        # read-only status views (shard_status, shard_stats,
        # addr_unavailable) take no lock, so the loop never waits on
        # them.  Reentrant because a deny-mode access recovers inline.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Fleet address space size (what sessions are mapped onto)."""
        return self.ring.space

    def run_key(self) -> dict[str, object]:
        return {
            "kind": "shard-fleet",
            "config": self.config.fingerprint(),
            "seed": self.seed,
            "num_shards": self.settings.num_shards,
            "space": self.ring.space,
            "vnodes": self.settings.vnodes,
            "padded": self.settings.padded,
            "schema": SCHEMA_VERSION,
        }

    def state_digest(self) -> str:
        """Fleet digest: the per-shard bridge digests, hashed together.

        A shard that is currently down contributes the marker
        ``"down"`` — callers that need the bit-identity witness compare
        digests after recovery has completed (all shards up).
        """
        with self._lock:
            return stable_hash(
                {
                    str(st.index): (
                        st.handle.digest() if st.status == UP else "down"
                    )
                    for st in self._shards
                }
            )

    def served_digest(self) -> tuple[str, int]:
        """``(state_digest(), served)`` from one hold of the lock, so both
        values describe the fleet between the same two rounds."""
        with self._lock:
            return self.state_digest(), self.served

    def shard_digests(self) -> dict[int, str]:
        """Per-shard state digests (all shards must be up)."""
        with self._lock:
            return {st.index: st.handle.digest() for st in self._shards}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, restore: bool = False) -> None:
        """Spawn every shard; optionally rebuild state from disk.

        ``restore=False`` demands a history-free state directory (a
        stale intent log under a fresh fleet would desynchronize the
        ordinals — better to refuse loudly than to serve wrong state).
        ``restore=True`` runs the full recovery recipe per shard:
        newest valid snapshot + intent-log suffix replay.
        """
        with self._lock:
            self._start_locked(restore)

    def _start_locked(self, restore: bool) -> None:
        fleet_key = self.run_key()
        root = Checkpointer(
            self.state_dir,
            every=max(1, self.settings.checkpoint_every),
            keep=self.settings.checkpoint_keep,
        )
        root.run_key = fleet_key
        try:
            for st in self._shards:
                st.ckpt = root.scoped(f"shard-{st.index}", {"shard": st.index})
                st.log = IntentLog(
                    self.state_dir / f"shard-{st.index}" / "intents.log",
                    run_key=dict(fleet_key, shard=st.index),
                )
                if st.log.length and not restore:
                    raise FleetFailed(
                        f"shard {st.index} has {st.log.length} logged intents "
                        f"in {self.state_dir}; pass restore=True (--restore) "
                        f"or point the fleet at a clean state dir"
                    )
                st.handle = self._spawn(st.index)
                st.status = UP
                if restore:
                    self._rebuild(st)
        except BaseException:
            # A refused start releases what it opened: the logs so far
            # and every spawned shard (worker processes included).
            self.close()
            raise
        self._started = True

    def close(self) -> None:
        """Stop every worker and close the logs (drain-time teardown)."""
        with self._lock:
            for st in self._shards:
                if st.handle is not None and st.status == UP:
                    try:
                        st.handle.stop()
                    except (ShardDied, OSError):
                        pass
                if st.log is not None:
                    st.log.close()

    def _spawn(self, shard: int):
        seed = _shard_seed(self.seed, shard)
        if self.settings.mode == "process":
            return ProcessShard(
                shard, self.config, seed,
                timeout_s=self.settings.access_timeout_s,
            )
        return InprocShard(shard, self.config, seed)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def shard_status(self) -> list[str]:
        return [st.status for st in self._shards]

    def dead_shards(self) -> list[int]:
        return [st.index for st in self._shards if st.status == DEAD]

    def addr_unavailable(self, addr: int) -> bool:
        """Whether the owning shard of ``addr`` cannot serve right now."""
        return self._shards[self.ring.shard_of(addr)].status != UP

    def check_health(self) -> list[int]:
        """Ping every nominally-up shard; returns newly dead indices.

        The heartbeat half of the liveness ladder: per-access timeouts
        catch deaths under load, this catches a worker that died while
        the fleet was idle.
        """
        newly_dead = []
        with self._lock:
            for st in self._shards:
                if st.status != UP:
                    continue
                try:
                    st.handle.ping()
                except ShardDied:
                    self._mark_dead(st, "heartbeat")
                    newly_dead.append(st.index)
        return newly_dead

    def _mark_dead(self, st: _ShardState, how: str) -> None:
        st.status = DEAD
        st.count("deaths")
        st.count(f"deaths_{how}")

    # ------------------------------------------------------------------
    # The padded dispatch round
    # ------------------------------------------------------------------
    def access(self, addr: int, op: str, payload: object = None) -> ServedAccess:
        """Dispatch one client request as a padded fleet round.

        Every shard receives exactly one slot, in fixed index order; the
        owning shard's slot carries the real access, the rest carry
        deterministic dummies.  Raises :class:`ShardUnavailable` when
        the owning shard is down under ``degraded="allow"`` (after the
        round has still touched every shard, dead ones virtually) and
        :class:`FleetFailed` when recovery is impossible.
        """
        with self._lock:
            return self._access_locked(addr, op, payload)

    def _access_locked(self, addr: int, op: str, payload: object) -> ServedAccess:
        target = self.ring.shard_of(addr)
        local = self.ring.local_of(addr)
        round_no = self.rounds
        self.rounds += 1
        result: ServedAccess | None = None
        target_down = False
        shards = (
            self._shards if self.settings.padded else [self._shards[target]]
        )
        for st in shards:
            is_real = st.index == target
            if st.status != UP and self.settings.degraded == "deny":
                # Total order is sacred in deny mode: bring the shard
                # back before its slot executes.
                self.recover(st.index)
            if self.trace is not None:
                self.trace((round_no, st.index))
            if is_real and st.status == UP:
                result = self._real_slot(st, local, op, payload)
                if result is None:
                    target_down = True
            elif is_real:
                # Dead owner under "allow": the round still pads this
                # shard (a virtual dummy), the request itself is parked
                # by the caller and re-dispatched as a fresh round.
                self._virtual_dummy(st)
                target_down = True
            elif st.status == UP:
                self._dummy_slot(st)
            else:
                self._virtual_dummy(st)
        if target_down:
            raise ShardUnavailable(target)
        self.served += 1
        # The shard answered for its local address; the fleet answers
        # for the client's.
        result.addr = addr
        return result

    def _live(self, st: _ShardState, intent: Intent) -> ServedAccess:
        """Apply ``intent`` on the shard, after the shard fault the plan
        names for this slot, if any: a crash kills the handle, a hang
        stalls it.  Replay never comes here, so it never fires a fault,
        and the injector fires each spec once, so the live retry of a
        slot after recovery meets only a spec that has not fired yet."""
        if self.injector is not None:
            fault = self.injector.before_shard_access(st.index, intent.ordinal)
            if isinstance(fault, ShardHang):
                st.handle.stall(fault.hang_s)
            elif fault is not None:
                st.handle.crash()
        return st.handle.access(intent)

    def _real_slot(
        self, st: _ShardState, local: int, op: str, payload: object
    ) -> ServedAccess | None:
        """Execute the owning shard's slot (logged behind execution).

        Returns ``None`` when the shard died mid-access under "allow"
        (the intent was never logged, so the later re-dispatch applies
        it exactly once).
        """
        intent = Intent(st.log.length, KIND_REAL, local, op, payload)
        while True:
            try:
                result = self._live(st, intent)
                break
            except ShardDied:
                self._mark_dead(st, "access")
                if self.settings.degraded == "allow":
                    return None
                # Deny: recover (replay excludes this unlogged intent)
                # and re-execute the same slot live; the intent sequence
                # ends up identical to an uninterrupted run.
                self.recover(st.index)
        st.log.append(intent)
        st.count("accesses_real")
        self._maybe_checkpoint(st)
        return result

    def _dummy_slot(self, st: _ShardState) -> None:
        """Execute a padding slot (logged ahead of execution)."""
        addr = _point("dummy", self.seed, st.index, st.log.length) % (
            self.ring.shard_space(st.index)
        )
        intent = Intent(st.log.length, KIND_DUMMY, addr, "read", None)
        st.log.append(intent)
        try:
            self._live(st, intent)
        except ShardDied:
            # Already durable: the replay applies it, so the padding
            # sequence stays dense across the death.
            self._mark_dead(st, "access")
            if self.settings.degraded == "allow":
                return
            self.recover(st.index)
        st.count("accesses_dummy")
        self._maybe_checkpoint(st)

    def _virtual_dummy(self, st: _ShardState) -> None:
        """Pad a dead shard's slot: durable + observable, applied later.

        The intent goes to the log (replay executes it during recovery)
        and the trace event was already emitted — so the inter-shard
        stream over a crash window is indistinguishable from a healthy
        run's.
        """
        addr = _point("dummy", self.seed, st.index, st.log.length) % (
            self.ring.shard_space(st.index)
        )
        st.log.append(Intent(st.log.length, KIND_DUMMY, addr, "read", None))
        st.count("virtual_slots")

    def _maybe_checkpoint(self, st: _ShardState) -> None:
        every = self.settings.checkpoint_every
        if every <= 0 or st.log.length % every != 0:
            return
        st.ckpt.save(st.log.length, st.handle.snapshot())
        st.count("checkpoints_saved")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, shard: int) -> None:
        """Respawn a dead shard and rebuild its exact state.

        Recipe: fresh worker, newest valid snapshot (the
        ``shard-checkpoint-corrupt`` seam fires first, so torn snapshots
        are *exercised*, not assumed away), replay of the intent-log
        suffix, then a fresh post-recovery snapshot so the next death is
        cheap.  Raises :class:`FleetFailed` once ``max_respawns`` is
        exhausted or the log itself is untrustworthy.
        """
        with self._lock:
            self._recover_locked(shard)

    def _recover_locked(self, shard: int) -> None:
        st = self._shards[shard]
        if st.status == UP:
            return
        st.status = RECOVERING
        while True:
            st.respawns += 1
            st.count("respawns")
            if st.respawns > self.settings.max_respawns:
                st.status = DEAD
                raise FleetFailed(
                    f"shard {shard} exhausted its respawn budget "
                    f"({self.settings.max_respawns}); fleet cannot recover"
                )
            if self.injector is not None:
                self.injector.corrupt_shard_checkpoint(
                    shard, st.ckpt.directory
                )
            if st.handle is not None:
                try:
                    st.handle.stop()
                except (ShardDied, OSError):
                    pass
            try:
                st.handle = self._spawn(shard)
                replayed = self._rebuild(st)
            except ShardDied:
                # Died again during recovery: burn another respawn.
                continue
            except IntentLogCorrupt as exc:
                st.status = DEAD
                raise FleetFailed(
                    f"shard {shard} intent log unusable: {exc}"
                ) from exc
            st.status = UP
            self.recoveries += 1
            st.ckpt.save(st.log.length, st.handle.snapshot())
            st.count("checkpoints_saved")
            bus = self.bus
            if bus is not None and bus._detail:
                bus.emit(
                    ShardRecovered(
                        shard=shard,
                        respawns=st.respawns,
                        replayed=replayed,
                        ts=float(self.rounds),
                    )
                )
            return

    def _rebuild(self, st: _ShardState) -> int:
        """Snapshot restore + suffix replay (shared by recover/start).

        Returns the number of intent-log entries replayed.
        """
        start = 0
        loaded = st.ckpt.load_latest()
        if loaded is not None:
            index, state, _path = loaded
            st.handle.restore(state)
            start = index
        entries = st.log.entries_from(start)
        if not entries:
            return 0
        st.handle.replay(entries)
        st.count("replayed", len(entries))
        return len(entries)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def export_metrics(self, registry: MetricsRegistry) -> None:
        """Merge per-shard instruments into ``registry``.

        Each shard's registry lands twice: under its own
        ``shard/<n>/...`` prefix and summed into the ``fleet/...``
        rollup (counter sum / gauge watermark union / histogram bucket
        add, as everywhere else).
        """
        from repro.obs.aggregate import merge_labeled_snapshots, snapshot_registry

        merge_labeled_snapshots(
            registry,
            [
                (st.index, snapshot_registry(st.registry))
                for st in self._shards
            ],
            label="shard",
            rollup_prefix="fleet/",
        )
        registry.counter("fleet/rounds").inc(self.rounds)
        registry.counter("fleet/recoveries").inc(self.recoveries)

    def shard_stats(self) -> list[dict[str, object]]:
        """Per-shard liveness/respawn detail for the wire ``stats`` reply.

        One JSON-safe dict per shard: lifecycle ``status``, cumulative
        ``respawns``, ``deaths``, logged ``intents``, and the split of
        executed real/dummy/virtual slots — everything an operator (or
        ``repro top``) needs to see a crash-and-recover window without
        touching the state directory.  Like :meth:`shard_status` it reads
        in-memory counters without the lock, so a ``stats`` request never
        waits out a background recovery.
        """
        return [
            {
                "shard": st.index,
                "status": st.status,
                "respawns": st.respawns,
                "deaths": st.counted("deaths"),
                "intents": st.log.length if st.log else 0,
                "real": st.counted("accesses_real"),
                "dummy": st.counted("accesses_dummy"),
                "virtual": st.counted("virtual_slots"),
                "replayed": st.counted("replayed"),
            }
            for st in self._shards
        ]

    def fleet_report(self) -> dict[str, object]:
        """Human-facing summary for the CLI's end-of-serve printout."""
        return {
            "shards": self.settings.num_shards,
            "mode": self.settings.mode,
            "degraded": self.settings.degraded,
            "space": self.ring.space,
            "rounds": self.rounds,
            "served": self.served,
            "recoveries": self.recoveries,
            "status": self.shard_status(),
            "respawns": [st.respawns for st in self._shards],
            "intents": [st.log.length if st.log else 0 for st in self._shards],
        }
