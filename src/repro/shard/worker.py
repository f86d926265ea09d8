"""Shard workers: one private ORAM bridge per address-space partition.

A shard is an :class:`~repro.serve.scheduler_bridge.OramServeBridge`
over the partition's own controller, driven exclusively by the
supervisor's intent stream (:mod:`repro.shard.intent_log`).  Two
interchangeable housings implement the same handle surface (``access``,
``replay``, ``digest``, ``snapshot``, ``restore``, ``ping``, ``stop``,
plus ``crash`` and ``stall``, which apply an injected fault):

* :class:`InprocShard` — the bridge lives in the supervisor's process.
  This is the deterministic test housing: a ``crash`` marks the handle
  dead and *discards the bridge object*, so recovery must genuinely
  rebuild state from checkpoint + replay (nothing to cheat with).
* :class:`ProcessShard` — an :class:`InprocShard` lives in a spawned
  worker process behind a duplex pipe, and the worker answers each
  command by calling the method of that name.  Liveness is
  observational: every command waits ``conn.poll(timeout)``; a worker
  that died (a segfault) breaks the pipe, a worker that stops answering
  (a real hang, a ``stall``) exhausts the timeout — either way the
  parent kills the process and raises
  :class:`~repro.faults.injector.ShardDied`, as a ``crash`` does at
  once.

Faults fire in the supervisor, which asks its injector before each live
slot (never during replay) and calls ``crash`` or ``stall`` on the
handle; no fault plan reaches a worker.
"""

from __future__ import annotations

import multiprocessing as mp
import time

from repro.faults.injector import ShardDied
from repro.serve.scheduler_bridge import OramServeBridge, ServedAccess
from repro.shard.intent_log import Intent
from repro.system.config import SystemConfig

#: Seconds allowed for a spawned worker to import + build its ORAM.
STARTUP_TIMEOUT_S = 60.0


class InprocShard:
    """In-process shard housing (deterministic tests, bench loops)."""

    def __init__(self, shard: int, config: SystemConfig, seed: int) -> None:
        self.shard = shard
        self.alive = True
        self.bridge = OramServeBridge(config, seed)

    def access(self, intent: Intent) -> ServedAccess:
        if not self.alive:
            raise ShardDied(self.shard, "handle already dead")
        return self.bridge.access(intent.addr, intent.op, intent.value)

    def replay(self, entries: list[Intent]) -> None:
        if not self.alive:
            raise ShardDied(self.shard, "handle already dead")
        for intent in entries:
            self.bridge.access(intent.addr, intent.op, intent.value)

    def digest(self) -> str:
        return self.bridge.state_digest()

    def snapshot(self) -> dict[str, object]:
        return self.bridge.snapshot_state()

    def restore(self, state: dict[str, object]) -> None:
        self.bridge.restore_state(state)

    def ping(self) -> None:
        if not self.alive:
            raise ShardDied(self.shard, "handle already dead")

    def crash(self, reason: str = "injected crash") -> None:
        """Die for real: the bridge object is dropped, so recovery
        cannot shortcut the checkpoint + replay recipe."""
        self.alive = False
        self.bridge = None
        raise ShardDied(self.shard, reason)

    def stall(self, seconds: float) -> None:
        """An in-process shard cannot usefully sleep on the event loop
        it serves from, so a hang kills it at once."""
        self.crash("injected hang")

    def stop(self) -> None:
        self.alive = False


def shard_worker_main(
    conn, shard: int, config_dict: dict[str, object], seed: int
) -> None:
    """Entry point of a spawned shard worker process.

    Builds an :class:`InprocShard` and answers each ``(name, *args)``
    command by calling its method of that name; every reply is
    ``("ok", value)`` or ``("err", message)``.  ``stall`` is the one
    command the worker applies itself: it sleeps without answering, so
    the parent's pipe timeout fires as it would on a real hang.
    """
    try:
        handle = InprocShard(shard, SystemConfig.from_dict(config_dict), seed)
    except Exception as exc:  # noqa: BLE001 - report, then die visibly
        conn.send(("err", f"shard {shard} failed to build: {exc!r}"))
        return
    conn.send(("ok", "ready"))
    while True:
        try:
            name, *args = conn.recv()
        except EOFError:
            return
        try:
            if name == "stall":
                time.sleep(*args)
                reply = ("ok", None)
            else:
                reply = ("ok", getattr(handle, name)(*args))
        except Exception as exc:  # noqa: BLE001 - ship it to the parent
            reply = ("err", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
        if name == "stop":
            return


class ShardWorkerError(RuntimeError):
    """A shard worker reported an application error (not a death)."""


class ProcessShard:
    """Process-housed shard behind a duplex pipe with liveness timeouts."""

    def __init__(
        self,
        shard: int,
        config: SystemConfig,
        seed: int,
        timeout_s: float = 5.0,
    ) -> None:
        self.shard = shard
        self.alive = True
        self.timeout_s = timeout_s
        ctx = mp.get_context("spawn")
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=shard_worker_main,
            args=(child, shard, config.to_dict(), seed),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        self._proc.start()
        child.close()
        self._expect("startup", timeout=STARTUP_TIMEOUT_S)

    # ------------------------------------------------------------------
    def _kill(self, reason: str) -> ShardDied:
        self.alive = False
        try:
            self._proc.kill()
        except (OSError, AttributeError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass
        return ShardDied(self.shard, reason)

    def _expect(self, what: str, timeout: float):
        if not self._conn.poll(timeout):
            raise self._kill(f"timeout waiting for {what} "
                             f"({timeout:.1f}s)")
        try:
            status, value = self._conn.recv()
        except (EOFError, OSError):
            raise self._kill(f"pipe closed during {what}") from None
        if status != "ok":
            raise ShardWorkerError(str(value))
        return value

    def _request(self, command: tuple, what: str, timeout: float):
        if not self.alive:
            raise ShardDied(self.shard, "handle already dead")
        try:
            self._conn.send(command)
        except (BrokenPipeError, OSError):
            raise self._kill(f"pipe broke sending {what}") from None
        return self._expect(what, timeout)

    # ------------------------------------------------------------------
    def access(self, intent: Intent) -> ServedAccess:
        return self._request(("access", intent), "access", self.timeout_s)

    def replay(self, entries: list[Intent]) -> None:
        # Replay applies many accesses in one command; scale the budget.
        timeout = max(self.timeout_s, 5.0 + 0.02 * len(entries))
        self._request(("replay", entries), "replay", timeout)

    def digest(self) -> str:
        return self._request(("digest",), "digest", self.timeout_s)

    def snapshot(self) -> dict[str, object]:
        return self._request(("snapshot",), "snapshot", self.timeout_s)

    def restore(self, state: dict[str, object]) -> None:
        self._request(("restore", state), "restore", self.timeout_s)

    def ping(self) -> None:
        if not self._proc.is_alive():
            raise self._kill("process exited "
                             f"(code {self._proc.exitcode})")
        self._request(("ping",), "ping", self.timeout_s)

    def crash(self) -> None:
        """Kill the worker process, as a segfault would."""
        raise self._kill("injected crash")

    def stall(self, seconds: float) -> None:
        """Make the worker sleep ``seconds``: past the access timeout
        the parent declares it dead and kills it."""
        self._request(("stall", seconds), "access", self.timeout_s)

    def stop(self) -> None:
        if not self.alive:
            return
        try:
            self._request(("stop",), "stop", self.timeout_s)
        except (ShardDied, ShardWorkerError):
            pass
        self.alive = False
        self._proc.join(timeout=self.timeout_s)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=1.0)
        try:
            self._conn.close()
        except OSError:
            pass
