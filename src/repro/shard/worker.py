"""Shard workers: one private ORAM bridge per address-space partition.

A shard is an :class:`~repro.serve.scheduler_bridge.OramServeBridge`
over the partition's own controller, driven exclusively by the
supervisor's intent stream (:mod:`repro.shard.intent_log`).  Two
interchangeable housings implement the same handle surface (``access``,
``replay``, ``digest``, ``snapshot``, ``restore``, ``ping``, ``stop``):

* :class:`InprocShard` — the bridge lives in the supervisor's process.
  This is the deterministic test housing: an injected ``shard-crash``
  marks the handle dead and *discards the bridge object*, so recovery
  must genuinely rebuild state from checkpoint + replay (nothing to
  cheat with).
* :class:`ProcessShard` — the bridge lives in a spawned worker process
  behind a duplex pipe.  Liveness is observational: every command waits
  ``conn.poll(timeout)``; a worker that died (``shard-crash`` with
  ``mode="exit"``, a real segfault) breaks the pipe, a worker that hangs
  (``shard-hang``) exhausts the timeout — either way the parent kills
  the process and raises :class:`~repro.faults.injector.ShardDied`.

Both housings apply faults only on *live* traffic: recovery replay runs
with fault firing suppressed, otherwise a one-shot crash spec would
re-kill the shard at the same ordinal forever.
"""

from __future__ import annotations

import multiprocessing as mp

from repro.faults.injector import FaultInjector, FaultPlan, ShardDied
from repro.serve.scheduler_bridge import OramServeBridge
from repro.shard.intent_log import Intent
from repro.system.config import SystemConfig

#: Seconds allowed for a spawned worker to import + build its ORAM.
STARTUP_TIMEOUT_S = 60.0


def _result_dict(access) -> dict[str, object]:
    """The pipe-safe rendering of a ServedAccess (minus the address)."""
    return {
        "served_from": access.served_from,
        "latency_cycles": access.latency_cycles,
        "finish": access.finish,
        "value": access.value,
        "path_accesses": access.path_accesses,
    }


class InprocShard:
    """In-process shard housing (deterministic tests, bench loops)."""

    kind = "inproc"

    def __init__(
        self,
        shard: int,
        config: SystemConfig,
        seed: int,
        injector: FaultInjector | None = None,
    ) -> None:
        self.shard = shard
        self.alive = True
        self.injector = injector
        self.bridge = OramServeBridge(config, seed)

    def access(self, intent: Intent, fire: bool) -> dict[str, object]:
        if not self.alive:
            raise ShardDied(self.shard, "handle already dead")
        if fire and self.injector is not None:
            try:
                self.injector.before_shard_access(self.shard, intent.ordinal)
            except ShardDied:
                # The crash destroys the in-process state for real: the
                # bridge object is dropped, recovery cannot shortcut.
                self.alive = False
                self.bridge = None
                raise
        return _result_dict(
            self.bridge.access(intent.addr, intent.op, intent.value)
        )

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

    def stop(self) -> None:
        self.alive = False


def shard_worker_main(
    conn,
    shard: int,
    config_dict: dict[str, object],
    seed: int,
    plan_dict: dict[str, object] | None,
) -> None:
    """Entry point of a spawned shard worker process.

    Speaks a tiny command protocol over ``conn``; every reply is
    ``("ok", value)`` or ``("err", message)``.  An injected death
    (``shard-crash`` in either mode, reached through the worker-side
    injector) exits the process instead of replying — the parent
    observes the broken pipe, which is the point.
    """
    import os

    injector = None
    if plan_dict is not None:
        injector = FaultPlan.from_dict(plan_dict).injector(in_worker=True)
    try:
        bridge = OramServeBridge(SystemConfig.from_dict(config_dict), seed)
    except Exception as exc:  # noqa: BLE001 - report, then die visibly
        conn.send(("err", f"shard {shard} failed to build: {exc!r}"))
        return
    conn.send(("ok", "ready"))
    while True:
        try:
            command = conn.recv()
        except EOFError:
            return
        op = command[0]
        try:
            if op == "access":
                intent = Intent.from_payload(command[1])
                if command[2] and injector is not None:
                    try:
                        injector.before_shard_access(shard, intent.ordinal)
                    except ShardDied:
                        os._exit(71)
                access = bridge.access(intent.addr, intent.op, intent.value)
                conn.send(("ok", _result_dict(access)))
            elif op == "replay":
                for payload in command[1]:
                    intent = Intent.from_payload(payload)
                    bridge.access(intent.addr, intent.op, intent.value)
                conn.send(("ok", None))
            elif op == "digest":
                conn.send(("ok", bridge.state_digest()))
            elif op == "snapshot":
                conn.send(("ok", bridge.snapshot_state()))
            elif op == "restore":
                bridge.restore_state(command[1])
                conn.send(("ok", None))
            elif op == "ping":
                conn.send(("ok", "pong"))
            elif op == "stop":
                conn.send(("ok", None))
                return
            else:
                conn.send(("err", f"unknown command {op!r}"))
        except Exception as exc:  # noqa: BLE001 - ship it to the parent
            try:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                return


class ShardWorkerError(RuntimeError):
    """A shard worker reported an application error (not a death)."""


class ProcessShard:
    """Process-housed shard behind a duplex pipe with liveness timeouts."""

    kind = "process"

    def __init__(
        self,
        shard: int,
        config: SystemConfig,
        seed: int,
        plan: FaultPlan | None = None,
        timeout_s: float = 5.0,
    ) -> None:
        self.shard = shard
        self.alive = True
        self.timeout_s = timeout_s
        ctx = mp.get_context("spawn")
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=shard_worker_main,
            args=(
                child,
                shard,
                config.to_dict(),
                seed,
                plan.to_dict() if plan is not None else None,
            ),
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
    def access(self, intent: Intent, fire: bool) -> dict[str, object]:
        return self._request(
            ("access", intent.to_payload(), fire), "access", self.timeout_s
        )

    def replay(self, entries: list[Intent]) -> None:
        payloads = [intent.to_payload() for intent in entries]
        # Replay applies many accesses in one command; scale the budget.
        timeout = max(self.timeout_s, 5.0 + 0.02 * len(entries))
        self._request(("replay", payloads), "replay", timeout)

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
