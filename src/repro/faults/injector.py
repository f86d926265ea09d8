"""Deterministic fault injection at the sweep engine's existing seams.

A :class:`FaultPlan` (specs + seed) compiles into a :class:`FaultInjector`
that hooks the three seams the sweep stack already exposes:

* **point execution** (``_execute_job``, which runs every attempt at a
  sweep point, in a worker process or in-process, with an injector of
  its own) — :meth:`FaultInjector.before_point` fires ``worker-crash`` /
  ``worker-hang`` specs keyed on *(point, attempt)*;
* **the result cache** — :meth:`FaultInjector.wrap_cache` corrupts entry
  files before reads (``cache-corrupt``) and installs an ``OSError``
  hook inside :meth:`~repro.analysis.cache.ResultCache.put`
  (``cache-os-error``), so the cache's own degrade paths are exercised
  for real, not simulated around;
* **the simulator backend** — :meth:`FaultInjector.backend_filter`
  returns a :class:`~repro.system.simulator.SystemSimulator` backend
  wrapper applying ``stash-pressure`` and ``bit-flip`` specs per access.

Everything is keyed on explicit ordinals (point index, attempt number,
cache-read index, access index) plus one seeded :class:`random.Random`
for the choices that need randomness (truncation offsets, bit-flip victim
slots).  Same plan + same seed therefore reproduces the same failure
sequence in any process — the property the acceptance tests pin down via
:meth:`FaultInjector.fired`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from random import Random

from repro.cpu.trace import LlcMiss
from repro.faults.spec import (
    BitFlip,
    CacheCorruption,
    CacheOsError,
    ClientDisconnect,
    FaultSpec,
    PosmapCorrupt,
    ServerCrash,
    ShardCheckpointCorrupt,
    ShardCrash,
    ShardHang,
    SlowClient,
    StashPressure,
    WorkerCrash,
    WorkerHang,
    parse_spec,
    spec_from_dict,
)


class InjectedCrash(RuntimeError):
    """The failure a ``worker-crash`` spec raises (and retries recover from)."""


class ServerCrashed(RuntimeError):
    """The failure a ``server-crash`` spec raises in ``mode="exception"``.

    The in-process serve tests catch this to simulate the process dying
    between two ORAM accesses; ``mode="exit"`` skips the exception and
    hard-kills the process instead.
    """


class ShardDied(RuntimeError):
    """One shard of a sharded fleet stopped mid-access.

    Raised by ``shard-crash``/``shard-hang`` specs in ``mode="exception"``
    (or their in-process degradations), and by the
    :class:`~repro.shard.supervisor.ShardSupervisor` itself when a worker
    pipe breaks or times out.  Carries the shard index so the supervisor
    knows which partition to respawn.
    """

    def __init__(self, shard: int, reason: str) -> None:
        super().__init__(f"shard {shard} died: {reason}")
        self.shard = shard
        self.reason = reason


class ShardUnavailable(RuntimeError):
    """A request's owning shard is down (``degraded="allow"`` only).

    The serve layer parks the request and re-dispatches it after the
    background recovery finishes; it is never counted served, expired,
    or abandoned while parked, so the fleet accounting identity holds.
    (Defined here, next to :class:`ShardDied`, so the serve layer can
    catch it without importing the shard package — which imports the
    serve bridge.)
    """

    def __init__(self, shard: int) -> None:
        super().__init__(f"shard {shard} is down; request parked")
        self.shard = shard


class FleetFailed(RuntimeError):
    """A sharded fleet cannot continue: some shard is unrecoverable.

    Raised when a shard's intent log is torn mid-history (the replayable
    truth is gone) or its respawn budget is exhausted (the fault is not
    transient).  The serve layer maps this to ``EXIT_SERVE_FAILED``.
    """


@dataclass(slots=True, frozen=True)
class FaultPlan:
    """An immutable, serializable set of fault specs plus the fault seed."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "FaultPlan":
        return cls(
            specs=tuple(spec_from_dict(s) for s in payload.get("specs", [])),
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def parse(cls, texts: list[str] | tuple[str, ...], seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI spec strings (see ``parse_spec``)."""
        return cls(specs=tuple(parse_spec(t) for t in texts), seed=seed)

    def injector(self, in_worker: bool = False) -> "FaultInjector":
        return FaultInjector(self, in_worker=in_worker)


class FaultInjector:
    """Applies a :class:`FaultPlan` deterministically at the seams.

    Args:
        plan: The specs + seed to apply.
        in_worker: True inside a sweep worker process.  The only
            behavioural difference: a ``worker-crash`` spec with
            ``mode="exit"`` hard-kills the process (``os._exit``) in a
            worker but degrades to :class:`InjectedCrash` in-process, so
            the parent never kills itself re-executing a crashed point.

    Attributes:
        log: Ordered record of every fault fired (spec kind + location);
            two runs of the same plan+seed produce identical logs.
    """

    def __init__(self, plan: FaultPlan, in_worker: bool = False) -> None:
        self.plan = plan
        self.in_worker = in_worker
        self.rng = Random(plan.seed)
        self.log: list[str] = []
        self._cache_gets = 0
        self._cache_puts = 0
        self._accesses = 0
        self._squeezed: list[tuple[StashPressure, object, int]] = []
        self._client_fired: set[FaultSpec] = set()

    # ------------------------------------------------------------------
    def _specs(self, cls: type) -> list[FaultSpec]:
        return [s for s in self.plan.specs if isinstance(s, cls)]

    def fired(self) -> list[str]:
        """The deterministic failure sequence so far."""
        return list(self.log)

    # ------------------------------------------------------------------
    # Seam 1: point execution (_execute_job, every attempt)
    # ------------------------------------------------------------------
    def before_point(self, index: int, attempt: int) -> None:
        """Fire crash/hang specs scheduled for this (point, attempt)."""
        for spec in self._specs(WorkerHang):
            if spec.point == index and spec.attempt == attempt:
                self.log.append(f"worker-hang@{index}#{attempt}")
                time.sleep(spec.hang_s)
        for spec in self._specs(WorkerCrash):
            if spec.point == index and spec.attempt == attempt:
                self.log.append(
                    f"worker-crash@{index}#{attempt}:{spec.mode}"
                )
                if spec.mode == "exit" and self.in_worker:
                    os._exit(73)
                raise InjectedCrash(
                    f"injected worker crash at point {index} "
                    f"(attempt {attempt})"
                )

    # ------------------------------------------------------------------
    # Seam 1b: the serving loop (repro serve / repro load)
    # ------------------------------------------------------------------
    def before_serve_access(self, access_index: int) -> None:
        """Fire ``server-crash`` specs before serve-path access N.

        Called by the serve dispatcher with the bridge's served-access
        counter just before each ORAM access, so a crash at index N
        leaves exactly N accesses applied — aligning ``at_access`` to a
        checkpoint boundary makes the restart lossless.
        """
        for spec in self._specs(ServerCrash):
            if spec.at_access == access_index:
                self.log.append(
                    f"server-crash@access{access_index}:{spec.mode}"
                )
                if spec.mode == "exit":
                    os._exit(70)
                raise ServerCrashed(
                    f"injected server crash before access {access_index}"
                )

    def before_shard_access(self, shard: int, ordinal: int) -> None:
        """Fire ``shard-crash``/``shard-hang`` specs before a shard's
        intent ``ordinal``.

        Called by the shard worker (process mode) or the supervisor's
        in-process handle just before applying the intent with that
        0-based per-shard ordinal.  One-shot per spec, like the client
        faults: the post-respawn *replay* of the same ordinals runs with
        fault firing suppressed, and live re-execution must not re-kill
        the freshly recovered shard.
        """
        for spec in self._specs(ShardHang):
            if (
                spec.shard == shard
                and spec.at_access == ordinal
                and spec not in self._client_fired
            ):
                self._client_fired.add(spec)
                self.log.append(
                    f"shard-hang@shard{shard}/access{ordinal}:{spec.hang_s}s"
                )
                if self.in_worker:
                    time.sleep(spec.hang_s)
                else:
                    raise ShardDied(shard, "injected hang")
        for spec in self._specs(ShardCrash):
            if (
                spec.shard == shard
                and spec.at_access == ordinal
                and spec not in self._client_fired
            ):
                self._client_fired.add(spec)
                self.log.append(
                    f"shard-crash@shard{shard}/access{ordinal}:{spec.mode}"
                )
                if spec.mode == "exit" and self.in_worker:
                    os._exit(71)
                raise ShardDied(shard, "injected crash")

    def corrupt_shard_checkpoint(self, shard: int, directory) -> None:
        """Damage shard ``shard``'s newest checkpoint before a reload.

        Called by the supervisor at the top of a recovery, before
        :meth:`~repro.system.checkpoint.Checkpointer.load_latest` walks
        the directory.  One-shot per spec; a recovery that finds no
        checkpoint files is a silent no-op (nothing to corrupt — the
        fall-back-to-replay path is already the one being exercised).
        """
        from pathlib import Path

        specs = [
            s
            for s in self._specs(ShardCheckpointCorrupt)
            if s.shard == shard and s not in self._client_fired
        ]
        if not specs:
            return
        files = sorted(Path(directory).glob("ckpt-*.json"), reverse=True)
        if not files:
            return
        newest = files[0]
        size = newest.stat().st_size
        for spec in specs:
            self._client_fired.add(spec)
            self.log.append(
                f"shard-checkpoint-corrupt@shard{shard}:{spec.mode}"
            )
            if spec.mode == "truncate":
                cut = self.rng.randrange(max(size, 1))
                with open(newest, "r+b") as stream:
                    stream.truncate(cut)
            else:
                newest.write_bytes(b"\x00garbage\xff" * 4)

    def client_disconnect_after(self, request_index: int) -> bool:
        """Whether the load generator should abort its socket after
        sending the request with this 0-based global ordinal.

        One-shot per spec: a *retry* of the same ordinal reuses the
        ordinal but must not re-fire the disconnect, or the request
        could never complete.
        """
        for spec in self._specs(ClientDisconnect):
            if spec.at_request == request_index and spec not in self._client_fired:
                self._client_fired.add(spec)
                self.log.append(f"client-disconnect@req{request_index}")
                return True
        return False

    def client_stall_after(self, request_index: int) -> float:
        """Seconds the sending connection should stop reading responses
        after this request (0.0 when no ``slow-client`` spec matches).
        One-shot per spec, like :meth:`client_disconnect_after`."""
        for spec in self._specs(SlowClient):
            if spec.at_request == request_index and spec not in self._client_fired:
                self._client_fired.add(spec)
                self.log.append(
                    f"slow-client@req{request_index}:{spec.stall_s}s"
                )
                return spec.stall_s
        return 0.0

    # ------------------------------------------------------------------
    # Seam 2: the result cache
    # ------------------------------------------------------------------
    def wrap_cache(self, cache):
        """Return ``cache`` wired for cache faults (possibly proxied)."""
        if cache is None:
            return None
        os_specs = self._specs(CacheOsError)
        if os_specs:
            cache.fault_hook = self._put_fault
        if self._specs(CacheCorruption):
            return _CorruptingCache(cache, self)
        return cache

    def _put_fault(self) -> None:
        """``ResultCache.put`` seam: raise ``OSError`` per the plan."""
        index = self._cache_puts
        self._cache_puts += 1
        for spec in self._specs(CacheOsError):
            if _in_window(index, spec.first, spec.count):
                self.log.append(f"cache-os-error#put{index}")
                raise OSError(
                    spec.err, os.strerror(spec.err), "<injected>"
                )

    def corrupt_entry(self, cache, key: str) -> None:
        """Damage the on-disk entry for ``key`` before it is read."""
        index = self._cache_gets
        self._cache_gets += 1
        specs = [
            s
            for s in self._specs(CacheCorruption)
            if _in_window(index, s.first, s.count)
        ]
        if not specs:
            return
        path = cache.path_for(key)
        try:
            size = path.stat().st_size
        except OSError:
            return  # nothing on disk to corrupt: already a miss
        for spec in specs:
            self.log.append(f"cache-corrupt#get{index}:{spec.mode}")
            if spec.mode == "truncate":
                cut = self.rng.randrange(max(size, 1))
                with open(path, "r+b") as stream:
                    stream.truncate(cut)
            else:
                path.write_bytes(b"\x00garbage\xff" * 4)

    # ------------------------------------------------------------------
    # Seam 3: the simulator backend
    # ------------------------------------------------------------------
    def backend_filter(self):
        """Backend wrapper applying per-access simulator faults.

        Returns ``None`` when the plan contains no simulator-level specs,
        so fault-free sweeps keep an unwrapped (bit-identical) backend.
        """
        if not (
            self._specs(StashPressure)
            or self._specs(BitFlip)
            or self._specs(PosmapCorrupt)
        ):
            return None

        def wrap(backend):
            return _FaultyBackend(backend, self)

        return wrap

    def before_access(self, controller) -> None:
        """Called per served LLC miss by the backend wrapper."""
        index = self._accesses
        self._accesses += 1
        if controller is None:
            return  # insecure DRAM backend: no ORAM state to perturb
        for spec in self._specs(BitFlip):
            if spec.at_access == index:
                self._flip_bit(controller, index)
        for spec in self._specs(PosmapCorrupt):
            if spec.at_access == index:
                self._corrupt_posmap(controller, spec.addr, index)
        for spec in self._specs(StashPressure):
            if spec.at_access == index:
                self.log.append(
                    f"stash-pressure@access{index}:-{spec.squeeze}"
                )
                stash = controller.stash
                squeezed = max(1, stash.capacity - spec.squeeze)
                self._squeezed.append((spec, stash, stash.capacity))
                stash.capacity = squeezed
        for entry in list(self._squeezed):
            spec, stash, original = entry
            if index >= spec.at_access + spec.window:
                stash.capacity = original
                self._squeezed.remove(entry)

    def _flip_bit(self, controller, index: int) -> None:
        tree = controller.tree
        occupied = [
            (idx, slot)
            for idx in range(tree.num_buckets)
            for slot, blk in enumerate(tree.bucket(idx))
            if blk is not None
        ]
        if not occupied:
            return
        idx, slot = occupied[self.rng.randrange(len(occupied))]
        blk = tree.bucket(idx)[slot]
        blk.version ^= 1
        blk.payload = ("bitflip", blk.payload)
        self.log.append(f"bit-flip@access{index}:bucket{idx}/slot{slot}")

    def _corrupt_posmap(self, controller, addr: int, index: int) -> None:
        """Make one posmap entry stale (models on-chip SRAM corruption).

        With ``addr < 0`` the victim is a seeded-random address whose real
        block currently rests in the tree (not the stash), so the
        authoritative leaf is recoverable from the tree and the fault is
        always repairable.  The state is mutated directly — like
        :meth:`_flip_bit` this models corruption, not an API anyone calls.
        """
        posmap = controller.posmap
        if addr < 0:
            resident = sorted(
                {
                    blk.addr
                    for _, _, blk in controller.tree.iter_blocks()
                    if not blk.is_shadow
                }
            )
            if not resident:
                return
            addr = resident[self.rng.randrange(len(resident))]
        current = posmap.lookup(addr)
        if posmap.num_leaves < 2:
            return
        stale = (
            current + 1 + self.rng.randrange(posmap.num_leaves - 1)
        ) % posmap.num_leaves
        posmap._leaf[addr] = stale
        self.log.append(
            f"posmap-corrupt@access{index}:addr{addr}:{current}->{stale}"
        )


def _in_window(index: int, first: int, count: int) -> bool:
    if index < first:
        return False
    return count < 0 or index < first + count


class _CorruptingCache:
    """ResultCache proxy that damages entries just before each read."""

    def __init__(self, inner, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    def get(self, key: str):
        self._injector.corrupt_entry(self._inner, key)
        return self._inner.get(key)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class _FaultyBackend:
    """Backend wrapper firing simulator-level faults per served miss."""

    def __init__(self, inner, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector
        self.controller = getattr(inner, "controller", None)

    def serve(self, miss: LlcMiss, ready: float):
        self.injector.before_access(self.controller)
        return self.inner.serve(miss, ready)

    def writeback(self, addr: int, now: float) -> float:
        return self.inner.writeback(addr, now)

    def finalize(self, *args, **kwargs):
        return self.inner.finalize(*args, **kwargs)

    # Checkpoint passthrough: the wrapper is stateless apart from the
    # injector's ordinals, which are part of the plan, not the run state.
    def snapshot_state(self):
        return self.inner.snapshot_state()

    def restore_state(self, state) -> None:
        self.inner.restore_state(state)
