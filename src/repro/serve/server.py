"""``repro serve``: a fault-tolerant concurrent ORAM frontend.

The server accepts many concurrent clients over the newline-JSON TCP
protocol (:mod:`repro.serve.protocol`), maps each client's private
address space onto the shared ORAM
(:mod:`repro.serve.session`), and feeds every admitted request through
the serialized :class:`~repro.serve.scheduler_bridge.OramServeBridge`.
Robustness is the design center, not an afterthought:

* **bounded admission queue with load shedding** — arrivals past the
  high-water mark are answered ``retry_after`` immediately and are never
  admitted; the queue's hard bound can never be exceeded.
* **per-request deadlines** — a queued request whose deadline passes is
  answered ``expired`` at dispatch time, *before* an ORAM access is
  wasted on data nobody is waiting for.
* **slow-reader backpressure** — each session holds a bounded window of
  in-flight requests; when a client stops draining responses the server
  stops reading its socket (see :mod:`repro.serve.session`), so a slow
  client costs bounded memory and zero global throughput.
* **graceful drain** — SIGTERM (or a ``shutdown`` message) stops
  accepting, completes every admitted in-flight request, flushes
  metrics/checkpoints, and exits 0.
* **crash recovery** — periodic
  :class:`~repro.system.checkpoint.Checkpointer` snapshots of the full
  bridged ORAM state; a killed server restarted with ``--restore``
  resumes from the newest valid snapshot, and a crash aligned to a
  checkpoint boundary is bit-identical to an uninterrupted serve
  (``serve`` tests assert the digest equality).
* **deterministic fault injection** — ``server-crash`` specs fire
  through the existing seeded :class:`~repro.faults.injector.FaultInjector`
  between two ORAM accesses; ``client-disconnect``/``slow-client`` are
  driven by the load generator and exercised against this server in the
  ``serve-smoke`` CI job.
* **runtime observability plane** — the ``stats``/``health`` wire
  messages answer with a versioned snapshot (queue depth + high-water
  mark, counters, exact latency histograms, per-shard liveness, SLO
  state); ``--slo`` arms a rolling :class:`~repro.obs.slo.SloMonitor`
  whose ``breached`` transitions dump the
  :class:`~repro.obs.flightrec.FlightRecorder` post-mortem (and, under
  ``--slo-fatal``, drain with ``EXIT_SLO_BREACH``); ``--metrics-port``
  serves live Prometheus/JSON scrapes.  All of it is opt-in: an
  unmonitored serve constructs no event objects and stays bit-identical
  to the uninstrumented path.
* **sharded backends** — the server accepts any bridge-compatible
  engine; handing it a
  :class:`~repro.shard.supervisor.ShardSupervisor` turns it into the
  fleet frontend of DESIGN.md §11: requests for a dead shard are shed
  with ``retry_after`` at admission, work already admitted when its
  shard dies is *parked* and re-dispatched after the background
  recovery (so the accounting identity
  ``admitted == served + expired + abandoned`` holds fleet-wide), and
  an unrecoverable fleet (:class:`~repro.shard.supervisor.FleetFailed`)
  exits ``EXIT_SERVE_FAILED`` like any other crash.
"""

from __future__ import annotations

import asyncio
import signal
from collections import deque
from dataclasses import dataclass

from repro.faults.injector import (
    FaultInjector,
    FleetFailed,
    ServerCrashed,
    ShardUnavailable,
)
from repro.obs.events import EventBus, ServeRequestServed
from repro.obs.export import MetricsEndpoint
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.slo import STATE_HEALTHY, SloMonitor
from repro.oram.tiny import Observer
from repro.serialize import payload_to_jsonable
from repro.serve import protocol
from repro.serve.scheduler_bridge import OramServeBridge
from repro.serve.session import Session
from repro.system.checkpoint import Checkpointer
from repro.system.config import SystemConfig

#: Wall-clock served-latency ladder (milliseconds).
WALL_MS_BUCKETS = [
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1_000.0, 2_000.0, 5_000.0,
]

_DRAIN = object()


@dataclass(slots=True)
class ServeSettings:
    """Tunables of the serving/overload model (DESIGN.md §10).

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral; tests use this).
        max_clients: Address-space slots; connection N+1 is refused.
        client_space: Addresses per client (default: ORAM blocks /
            ``max_clients``).
        queue_depth: Hard bound of the admission queue.
        shed_highwater: Queue depth at/above which new requests are shed
            with ``retry_after`` (default: 3/4 of ``queue_depth``).
        session_window: Per-session in-flight cap (slow-reader throttle).
        default_deadline_ms: Deadline applied to requests that carry
            none (``None`` disables; a request's own ``deadline_ms <= 0``
            also opts out).
        retry_after_ms: Hint returned with shed responses.
        checkpoint_every: Snapshot the bridged state every N served
            accesses (0 disables; needs a checkpointer).
        heartbeat_s: Sharded backends only — interval of the idle
            liveness sweep (:meth:`ShardSupervisor.check_health`); the
            second half of the heartbeat + access-timeout ladder.
        slo: Parsed SLO thresholds (``--slo``); ``None`` disables the
            rolling monitor entirely.
        slo_window_s: Width of one SLO window (the roll cadence).
        slo_windows: Ring width evaluated on every roll.
        slo_fatal: A ``breached`` transition triggers a graceful drain
            and the process exits ``EXIT_SLO_BREACH``.
        metrics_port: Bind a Prometheus/JSON scrape endpoint on this
            port (0 = ephemeral; ``None`` disables).
    """

    host: str = "127.0.0.1"
    port: int = 7700
    max_clients: int = 16
    client_space: int | None = None
    queue_depth: int = 256
    shed_highwater: int | None = None
    session_window: int = 32
    default_deadline_ms: float | None = 1_000.0
    retry_after_ms: float = 50.0
    checkpoint_every: int = 0
    heartbeat_s: float = 0.5
    slo: dict[str, float] | None = None
    slo_window_s: float = 1.0
    slo_windows: int = 8
    slo_fatal: bool = False
    metrics_port: int | None = None

    def __post_init__(self) -> None:
        if self.max_clients < 1:
            raise ValueError(f"max_clients must be >= 1, got {self.max_clients}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.slo_window_s <= 0:
            raise ValueError(
                f"slo_window_s must be > 0, got {self.slo_window_s}"
            )
        if self.slo_windows < 1:
            raise ValueError(
                f"slo_windows must be >= 1, got {self.slo_windows}"
            )
        if self.shed_highwater is None:
            self.shed_highwater = max(1, (self.queue_depth * 3) // 4)
        if not 1 <= self.shed_highwater <= self.queue_depth:
            raise ValueError(
                f"shed_highwater must be in [1, queue_depth], "
                f"got {self.shed_highwater}"
            )


class OramServer:
    """The asyncio serving frontend over one ORAM bridge.

    Args:
        config: Full-system configuration (scheme, tree, timing
            protection); ``insecure`` is rejected by the bridge.
        seed: ORAM controller seed.
        settings: Serving/overload tunables.
        registry: Metrics registry for the ``serve/*`` instruments
            (a private one is created when omitted).
        injector: Seeded fault injector (``server-crash`` seam).
        checkpointer: Snapshot writer; combined with
            ``settings.checkpoint_every`` and ``restore``.
        restore: Resume the bridged ORAM state from the newest valid
            checkpoint before accepting clients.
        observer: Adversary-view callback, as in batch runs.
        bus: Observability event bus.
        bridge: A pre-built access engine to serve instead of a private
            :class:`OramServeBridge` — in practice a
            :class:`~repro.shard.supervisor.ShardSupervisor` (anything
            exposing ``check_health`` is treated as a supervised fleet:
            the server starts it, runs its heartbeat sweep, parks work
            for dead shards, and closes it at drain; its
            ``settings.mode`` says whether rounds wait on worker pipes).
        flight_recorder: A :class:`~repro.obs.flightrec.FlightRecorder`
            already subscribed to ``bus``; dumped on crash, SLO breach,
            and drain.

    Attributes:
        dispatch_gate: Test seam — clearing this event pauses the
            dispatcher *before* each ORAM access, letting tests fill the
            admission queue deterministically (shed/deadline/drain
            tests).  Always set in production.
    """

    def __init__(
        self,
        config: SystemConfig,
        seed: int = 1,
        settings: ServeSettings | None = None,
        registry: MetricsRegistry | None = None,
        injector: FaultInjector | None = None,
        checkpointer: Checkpointer | None = None,
        restore: bool = False,
        observer: Observer | None = None,
        bus: EventBus | None = None,
        bridge=None,
        flight_recorder: FlightRecorder | None = None,
    ) -> None:
        self.settings = settings if settings is not None else ServeSettings()
        if bridge is None:
            bridge = OramServeBridge(config, seed, bus=bus, observer=observer)
        self.bridge = bridge
        self._sharded = hasattr(bridge, "check_health")
        # Only a process-housed fleet's rounds wait on something other
        # than this process's CPU: worker pipes, for up to the fleet's
        # access timeout.
        self._pipes = self._sharded and bridge.settings.mode == "process"
        # The serve-layer emission bus: the explicit one, else whatever
        # the bridge already carries (None stays None — every emission
        # site is guarded, so an unmonitored run constructs no events).
        self.bus = bus if bus is not None else getattr(bridge, "bus", None)
        self.flightrec = flight_recorder
        self.registry = registry if registry is not None else MetricsRegistry()
        self.injector = injector
        self.checkpointer = checkpointer
        self.restore = restore
        if checkpointer is not None:
            checkpointer.run_key = self.bridge.run_key()
        space = self.bridge.num_blocks
        per_client = self.settings.client_space
        if per_client is None:
            per_client = max(1, space // self.settings.max_clients)
        if per_client * self.settings.max_clients > space:
            raise ValueError(
                f"{self.settings.max_clients} clients x {per_client} blocks "
                f"exceed the ORAM address space ({space} blocks)"
            )
        self.client_space = per_client

        reg = self.registry
        self.h_wall = reg.histogram("serve/latency_wall_ms", WALL_MS_BUCKETS)
        self.h_cycles = reg.histogram("serve/latency_cycles", LATENCY_BUCKETS)
        self._counters = {
            name: reg.counter(f"serve/{name}")
            for name in (
                "accepted", "admitted", "served", "shed", "expired",
                "abandoned", "errors", "sessions_opened", "sessions_closed",
                "sessions_refused", "checkpoints_saved", "restored",
                "shed_shard_down", "parked", "requeued",
            )
        }

        self._queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.settings.queue_depth
        )
        self._free_slots = list(range(self.settings.max_clients))
        self._sessions: dict[int, Session] = {}
        self._next_session_id = 0
        self._server: asyncio.base_events.Server | None = None
        self._dispatcher: asyncio.Task | None = None
        self._draining = False
        self.drain_reason = ""
        self._drained = asyncio.Event()
        self.dispatch_gate = asyncio.Event()
        self.dispatch_gate.set()
        self.crashed: BaseException | None = None
        self.address: tuple[str, int] | None = None
        # Sharded-backend state: work admitted before its shard died
        # waits here (keyed by shard) for the recovery task to requeue it.
        self._parked: dict[int, deque] = {}
        self._recover_tasks: dict[int, asyncio.Task] = {}
        self._heartbeat: asyncio.Task | None = None

        # Observability plane: queue high-water mark, rolling SLO
        # monitor, scrape endpoint, flight-recorder dump bookkeeping.
        self.queue_highwater = 0
        self.slo: SloMonitor | None = None
        if self.settings.slo:
            self.slo = SloMonitor(
                self.settings.slo,
                window_s=self.settings.slo_window_s,
                windows=self.settings.slo_windows,
                bus=self.bus,
            )
        self.slo_breached = False
        self._slo_task: asyncio.Task | None = None
        self._metrics_endpoint: MetricsEndpoint | None = None
        self.metrics_address: tuple[str, int] | None = None
        self.postmortem_path = None
        self._flight_dumped = False

    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        self._counters[name].inc()

    @property
    def draining(self) -> bool:
        return self._draining

    def stats_snapshot(self) -> dict[str, object]:
        """Serve counters + latency percentiles (the ``stats`` reply)."""
        out: dict[str, object] = {
            f"serve/{name}": counter.value
            for name, counter in sorted(self._counters.items())
        }
        out["serve/queue_depth"] = self._queue.qsize()
        out["serve/sessions"] = len(self._sessions)
        out["serve/oram_accesses"] = self.bridge.served
        if self._sharded:
            statuses = self.bridge.shard_status()
            out["serve/shards"] = len(statuses)
            out["serve/shards_up"] = sum(1 for s in statuses if s == "up")
            out["serve/parked"] = sum(
                len(items) for items in self._parked.values()
            )
        for q in (50, 95, 99):
            out[f"serve/latency_wall_ms/p{q}"] = self.h_wall.percentile(q)
            out[f"serve/latency_cycles/p{q}"] = self.h_cycles.percentile(q)
        return out

    def stats_payload(self) -> dict[str, object]:
        """The versioned ``stats`` wire payload (protocol docstring).

        ``counters`` keeps the flat legacy map; the structured sections
        (queue, latency, sessions, shards, slo) are what ``repro top``
        and CI introspection consume.  Latency blocks are the *exact*
        histogram export, so a client can merge or re-derive any
        percentile without interpolation drift.
        """
        payload: dict[str, object] = {
            "schema": protocol.STATS_SCHEMA,
            "counters": self.stats_snapshot(),
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self.settings.queue_depth,
                "shed_highwater": self.settings.shed_highwater,
                "high_water": self.queue_highwater,
            },
            "latency": {
                "wall_ms": self.h_wall.summary(),
                "cycles": self.h_cycles.summary(),
            },
            "sessions": {
                "open": len(self._sessions),
                "detail": [
                    s.info() for s in self._sessions.values()
                ],
            },
            "oram_accesses": self.bridge.served,
            "draining": self._draining,
            "slo": self.slo.snapshot() if self.slo is not None else None,
        }
        if self._sharded:
            payload["shards"] = self.bridge.shard_stats()
            payload["recoveries"] = self.bridge.recoveries
        return payload

    def health_payload(self) -> dict[str, object]:
        """The cheap ``health`` probe reply."""
        state = self.slo.state if self.slo is not None else STATE_HEALTHY
        payload: dict[str, object] = {
            "schema": protocol.STATS_SCHEMA,
            "state": state,
            "draining": self._draining,
            "crashed": self.crashed is not None,
            "slo": self.slo.snapshot() if self.slo is not None else None,
        }
        if self._sharded:
            statuses = self.bridge.shard_status()
            payload["shards"] = len(statuses)
            payload["shards_up"] = sum(1 for s in statuses if s == "up")
        return payload

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Restore state (if asked), bind the socket, start dispatching."""
        loop = asyncio.get_running_loop()
        if self._sharded:
            if not getattr(self.bridge, "_started", True):
                # Spawning workers + replaying state can take a while;
                # keep it off the event loop.
                await loop.run_in_executor(
                    None, self.bridge.start, self.restore
                )
                if self.restore:
                    self._count("restored")
        elif self.restore and self.checkpointer is not None:
            loaded = self.checkpointer.load_latest()
            if loaded is not None:
                _, state, _ = loaded
                self.bridge.restore_state(state)
                self._count("restored")
        self._server = await asyncio.start_server(
            self._handle_client, self.settings.host, self.settings.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._dispatcher = loop.create_task(
            self._dispatch_loop(), name="serve-dispatcher"
        )
        if self._sharded and self.settings.heartbeat_s > 0:
            self._heartbeat = loop.create_task(
                self._heartbeat_loop(), name="serve-heartbeat"
            )
        if self.settings.metrics_port is not None:
            self._metrics_endpoint = MetricsEndpoint(
                self.export_registry,
                host=self.settings.host,
                port=self.settings.metrics_port,
            )
            self.metrics_address = await self._metrics_endpoint.start()
        if self.slo is not None:
            self._slo_task = loop.create_task(
                self._slo_loop(), name="serve-slo"
            )

    async def run(self, install_signal_handlers: bool = True, on_started=None) -> int:
        """Serve until drained; returns the process exit code.

        ``SIGTERM``/``SIGINT`` trigger a graceful drain when
        ``install_signal_handlers`` is set (the CLI path; in-process
        tests drive :meth:`request_drain` directly).  ``on_started`` is
        called with the server once the socket is bound.
        """
        from repro.exit_codes import EXIT_OK, EXIT_SERVE_FAILED

        await self.start()
        if on_started is not None:
            on_started(self)
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        sig, self.request_drain, f"signal {sig.name}"
                    )
                except (NotImplementedError, RuntimeError):
                    pass
        await self._drained.wait()
        await self._shutdown()
        if self.crashed is not None:
            return EXIT_SERVE_FAILED
        if self.slo_breached and self.settings.slo_fatal:
            from repro.exit_codes import EXIT_SLO_BREACH

            return EXIT_SLO_BREACH
        return EXIT_OK

    def request_drain(self, reason: str = "") -> None:
        """Begin the graceful drain (idempotent).

        Stops accepting connections, refuses new requests with
        ``draining``, and queues the drain sentinel *behind* everything
        already admitted — those requests all complete before exit.
        """
        if self._draining:
            return
        self._draining = True
        self.drain_reason = reason
        if self._server is not None:
            self._server.close()
        # The sentinel must enter the queue even when it is momentarily
        # full; admission has already stopped, so depth can only shrink.
        asyncio.get_running_loop().create_task(self._queue.put(_DRAIN))

    async def _shutdown(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.cancel()
        if self._slo_task is not None:
            self._slo_task.cancel()
        if self._metrics_endpoint is not None:
            await self._metrics_endpoint.close()
        for task in list(self._recover_tasks.values()):
            task.cancel()
        if (
            not self._sharded
            and self.checkpointer is not None
            and self.crashed is None
        ):
            # Final snapshot so a subsequent --restore resumes from the
            # exact drained state regardless of the interval phase.
            # (Sharded fleets snapshot per shard inside the supervisor.)
            self.checkpointer.save(
                self.bridge.served, self.bridge.snapshot_state()
            )
            self._count("checkpoints_saved")
        for session in list(self._sessions.values()):
            await session.close()
        self._sessions.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        if self._sharded:
            await asyncio.get_running_loop().run_in_executor(
                None, self.bridge.close
            )
        # The post-mortem is the last act, so it captures the full
        # drain/crash event tail.  An SLO-breach dump already covers a
        # clean drain after a non-fatal breach; a crash always dumps.
        if self.flightrec is not None and (
            self.crashed is not None or not self._flight_dumped
        ):
            reason = (
                "crash"
                if self.crashed is not None
                else (self.drain_reason or "drain").replace(" ", "-")
            )
            self._flight_dump(reason)

    # ------------------------------------------------------------------
    # Admission: the per-client read loop
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = await self._handshake(reader, writer)
        if session is None:
            return
        try:
            await self._read_loop(reader, session)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            session.closed = True
            await session.close()
            self._sessions.pop(session.session_id, None)
            self._free_slots.append(session.slot)
            self._free_slots.sort()
            self._count("sessions_closed")

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Session | None:
        async def refuse(error: str) -> None:
            try:
                writer.write(protocol.encode({"type": "error", "error": error}))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()

        try:
            line = await reader.readline()
            hello = protocol.decode(line) if line else None
        except (protocol.ProtocolError, ConnectionError, OSError):
            hello = None
        if hello is None or hello.get("type") != "hello":
            await refuse("expected a hello message")
            return None
        if self._draining:
            self._count("sessions_refused")
            await refuse("draining")
            return None
        if not self._free_slots:
            self._count("sessions_refused")
            await refuse("server full")
            return None
        requested = hello.get("space")
        space = self.client_space
        if isinstance(requested, int) and 0 < requested <= self.client_space:
            space = requested
        slot = self._free_slots.pop(0)
        session = Session(
            session_id=self._next_session_id,
            slot=slot,
            base=slot * self.client_space,
            space=space,
            writer=writer,
            window=self.settings.session_window,
        )
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        session.start()
        self._count("sessions_opened")
        session.send({
            "type": "welcome",
            "session": session.session_id,
            "slot": slot,
            "base": session.base,
            "space": space,
        })
        return session

    async def _read_loop(
        self, reader: asyncio.StreamReader, session: Session
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # The slow-reader throttle: no permit, no read.  Every
            # message holds its permit until its response has drained.
            await session.window.acquire()
            line = await reader.readline()
            if not line:
                session.window.release()
                break
            try:
                message = protocol.decode(line)
            except protocol.ProtocolError as exc:
                self._count("errors")
                session.send(
                    {"type": "error", "error": str(exc)}, release_window=True
                )
                break
            kind = message["type"]
            if kind == "req":
                self._admit(session, message, loop)
            elif kind == "digest":
                if self._sharded:
                    # The fleet digest takes the supervisor lock, which a
                    # background recovery holds for its whole replay.
                    digest, served = await loop.run_in_executor(
                        None, self.bridge.served_digest
                    )
                else:
                    digest = self.bridge.state_digest()
                    served = self.bridge.served
                session.send(
                    {"type": "digest", "digest": digest, "served": served},
                    release_window=True,
                )
            elif kind == "stats":
                session.send(
                    {"type": "stats", **self.stats_payload()},
                    release_window=True,
                )
            elif kind == "health":
                session.send(
                    {"type": "health", **self.health_payload()},
                    release_window=True,
                )
            elif kind == "shutdown":
                self.request_drain("shutdown message")
                session.send(
                    {"type": "ok", "op": "shutdown"}, release_window=True
                )
            elif kind == "bye":
                session.window.release()
                break
            else:
                self._count("errors")
                session.send(
                    {"type": "error", "error": f"unknown type {kind!r}"},
                    release_window=True,
                )

    def _admit(
        self,
        session: Session,
        message: dict[str, object],
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self._count("accepted")
        req_id = message.get("id")
        req_id = req_id if isinstance(req_id, int) else -1
        if self._draining:
            session.send(
                _resp(req_id, protocol.STATUS_DRAINING), release_window=True
            )
            return
        try:
            req_id, addr, op = protocol.validate_request(message, session.space)
        except protocol.ProtocolError as exc:
            self._count("errors")
            session.send(
                _resp(req_id, protocol.STATUS_ERROR, error=str(exc)),
                release_window=True,
            )
            return
        if self._sharded and self.bridge.addr_unavailable(session.map_addr(addr)):
            # Degraded-mode shed: the owning shard is down, so the
            # request is refused *before* admission — it never enters
            # the accounting identity, and the client's retry-with-
            # backoff loop naturally outlives the recovery window.
            self._count("shed_shard_down")
            self._shed(session, req_id)
            return
        if self._queue.qsize() >= self.settings.shed_highwater:
            self._shed(session, req_id)
            return
        deadline_ms = message.get("deadline_ms", self.settings.default_deadline_ms)
        admit_t = loop.time()
        deadline = (
            admit_t + deadline_ms / 1000.0
            if isinstance(deadline_ms, (int, float)) and deadline_ms > 0
            else None
        )
        item = (
            session, req_id, session.map_addr(addr), op,
            message.get("value"), admit_t, deadline,
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self._shed(session, req_id)
            return
        self._count("admitted")
        depth = self._queue.qsize()
        if depth > self.queue_highwater:
            self.queue_highwater = depth
        if self.slo is not None:
            self.slo.observe_queue_depth(depth)

    def _shed(self, session: Session, req_id: int) -> None:
        """Refuse one request with ``retry_after``; it is never admitted."""
        self._count("shed")
        if self.slo is not None:
            self.slo.observe_shed()
        session.send(
            _resp(
                req_id,
                protocol.STATUS_RETRY_AFTER,
                retry_after_ms=self.settings.retry_after_ms,
            ),
            release_window=True,
        )

    # ------------------------------------------------------------------
    # Dispatch: the single consumer feeding the ORAM bridge
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                item = await self._queue.get()
                if item is _DRAIN:
                    break
                await self.dispatch_gate.wait()
                await self._serve_item(item, loop)
            # Drain phase: everything admitted before the sentinel has
            # been consumed above; anything that raced in behind it is
            # still completed — admitted work is never dropped.  With a
            # sharded backend that includes *parked* work: the drain
            # waits out in-flight recoveries so every admitted request
            # is still served, expired, or abandoned before exit.
            while True:
                while not self._queue.empty():
                    item = self._queue.get_nowait()
                    if item is _DRAIN:
                        continue
                    await self.dispatch_gate.wait()
                    await self._serve_item(item, loop)
                if self.crashed is not None:
                    break
                pending = [
                    t for t in self._recover_tasks.values() if not t.done()
                ]
                if pending:
                    await asyncio.wait(pending)
                    continue
                if any(self._parked.values()):
                    for shard, items in self._parked.items():
                        if items:
                            self._ensure_recovery(shard)
                    continue
                break
        except (ServerCrashed, FleetFailed) as crash:
            self.crashed = crash
        finally:
            self._drained.set()

    async def _serve_item(
        self,
        item: tuple,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        session, req_id, addr, op, payload, admit_t, deadline = item
        if session.closed:
            # Client vanished mid-request: abandon before spending an
            # ORAM access on a response nobody will read.
            self._count("abandoned")
            session.window.release()
            return
        if deadline is not None and loop.time() > deadline:
            # Deadline expiry beats the access, not the response: queued
            # work is retired before it wastes controller time.
            self._count("expired")
            session.send(_resp(req_id, protocol.STATUS_EXPIRED), release_window=True)
            return
        if self.injector is not None:
            self.injector.before_serve_access(self.bridge.served)
        try:
            if self._round_waits():
                # Keep the event loop free to admit and shed while the
                # round waits on worker pipes or the supervisor lock.
                access = await loop.run_in_executor(
                    None, self.bridge.access, addr, op, payload
                )
            else:
                access = self.bridge.access(addr, op, payload)
        except ShardUnavailable as down:
            # The owning shard died after this request was admitted:
            # park it (window and accounting slot intact) until the
            # recovery task requeues it — served exactly once, just
            # later.
            self._count("parked")
            self._parked.setdefault(down.shard, deque()).append(item)
            self._ensure_recovery(down.shard)
            return
        wall_ms = (loop.time() - admit_t) * 1000.0
        self.h_wall.observe(wall_ms)
        self.h_cycles.observe(access.latency_cycles)
        self._count("served")
        self.registry.counter(
            f"serve/served_from/{access.served_from}"
        ).inc()
        if self.slo is not None:
            self.slo.observe_served(wall_ms, access.latency_cycles)
        bus = self.bus
        if bus is not None and bus._detail:
            bus.emit(
                ServeRequestServed(
                    addr=addr,
                    op=op,
                    served_from=access.served_from,
                    wall_ms=wall_ms,
                    latency_cycles=access.latency_cycles,
                    ts=float(self.bridge.served)
                    if self._sharded else self.bridge.clock,
                )
            )
        response = _resp(
            req_id,
            protocol.STATUS_OK,
            latency_ms=wall_ms,
            latency_cycles=access.latency_cycles,
            served_from=access.served_from,
        )
        if op == "read":
            response["value"] = payload_to_jsonable(access.value, strict=False)
        session.send(response, release_window=True)
        self._maybe_checkpoint()

    def _round_waits(self) -> bool:
        """Whether the next access can block on more than this CPU.

        A process-housed fleet blocks on worker pipes, and a background
        recovery holds the supervisor lock for its whole replay; such a
        round goes to the default executor.  Every other access (one
        bridge, or an in-process fleet round, including a deny-mode
        recovery inside it) is plain CPU work and runs on the loop.
        """
        if self._pipes:
            return True
        tasks = self._recover_tasks
        return bool(tasks) and any(not t.done() for t in tasks.values())

    def _maybe_checkpoint(self) -> None:
        every = self.settings.checkpoint_every
        if (
            self._sharded
            or self.checkpointer is None
            or every <= 0
            or self.bridge.served % every != 0
        ):
            return
        self.checkpointer.save(self.bridge.served, self.bridge.snapshot_state())
        self._count("checkpoints_saved")

    # ------------------------------------------------------------------
    # Observability plane: scrape registry, SLO roll loop, post-mortem
    # ------------------------------------------------------------------
    def export_registry(self) -> MetricsRegistry:
        """A merged scrape-time registry: serve/* plus shard breakdowns.

        Built fresh per call (the ``--metrics-port`` provider and the
        ``--metrics``/``--metrics-prom`` files), so the endpoint never
        aliases live instruments, ``serve/queue_depth`` reads the queue's
        depth now, and a sharded backend's ``shard/<k>/...`` +
        ``fleet/...`` rollups are re-merged from the current per-shard
        registries on every scrape.
        """
        from repro.obs.aggregate import merge_snapshot, snapshot_registry

        merged = MetricsRegistry()
        merge_snapshot(merged, snapshot_registry(self.registry))
        merged.gauge("serve/queue_depth").set(self._queue.qsize())
        if self._sharded:
            self.bridge.export_metrics(merged)
        return merged

    async def _slo_loop(self) -> None:
        """Roll the SLO window on its cadence; act on transitions."""
        while True:
            await asyncio.sleep(self.settings.slo_window_s)
            transition = self.slo.roll()
            if transition is None:
                continue
            self.registry.counter("serve/slo_transitions").inc()
            if transition != "breached":
                continue
            self.registry.counter("serve/slo_breaches").inc()
            self._flight_dump("slo-breach")
            if self.settings.slo_fatal:
                self.slo_breached = True
                self.request_drain("slo breach")

    def _flight_dump(self, reason: str) -> None:
        """Write the flight-recorder post-mortem (best effort)."""
        if self.flightrec is None:
            return
        try:
            self.postmortem_path = self.flightrec.dump(reason)
            self._flight_dumped = True
        except OSError:
            # A full disk must not turn a clean drain into a crash.
            pass

    # ------------------------------------------------------------------
    # Sharded backends: liveness sweep + background recovery
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        """Idle liveness sweep: catch shard deaths between requests.

        The per-access pipe timeout detects deaths under load; this
        catches a worker that died while its shard had no traffic, so
        the admission-time shed starts answering ``retry_after`` (and
        the recovery starts) without waiting for an unlucky request to
        trip over the corpse.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.settings.heartbeat_s)
            try:
                await loop.run_in_executor(None, self.bridge.check_health)
            except Exception:  # noqa: BLE001 - the sweep must survive
                continue
            # Sweep *all* currently-dead shards, not just ones the ping
            # discovered: a shard that died executing a padding slot was
            # marked dead without raising to any request (the round's
            # real access succeeded elsewhere), and admission sheds its
            # traffic from then on — so no request ever trips over it to
            # start the recovery.
            for shard in self.bridge.dead_shards():
                self._ensure_recovery(shard)

    def _ensure_recovery(self, shard: int) -> None:
        """Start (at most one) background recovery task for a shard."""
        task = self._recover_tasks.get(shard)
        if task is not None and not task.done():
            return
        self._recover_tasks[shard] = asyncio.get_running_loop().create_task(
            self._recover_shard(shard), name=f"serve-recover-{shard}"
        )

    async def _recover_shard(self, shard: int) -> None:
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self.bridge.recover, shard)
        except FleetFailed as failure:
            # Unrecoverable: park nothing further, crash the fleet.
            # Parked work is dropped like any in-flight work on a crash;
            # the exit code tells the operator the state is suspect.
            self.crashed = failure
            self.request_drain("fleet failure")
            return
        items = self._parked.pop(shard, None)
        if items:
            for item in items:
                self._count("requeued")
                # Parked items held their admission slot conceptually;
                # an await (not put_nowait) absorbs a momentarily full
                # queue without dropping admitted work.
                await self._queue.put(item)


def _resp(req_id: int, status: str, **extra: object) -> dict[str, object]:
    out: dict[str, object] = {"type": "resp", "id": req_id, "status": status}
    out.update(extra)
    return out
