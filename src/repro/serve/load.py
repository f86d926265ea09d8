"""``repro load``: an open-loop load generator for ``repro serve``.

The generator precomputes a fully seeded schedule — Poisson arrival
times, Zipf-skewed addresses (:class:`~repro.workloads.generator.ZipfSampler`),
read/write mix, and client assignment — then fires each request at its
scheduled wall-clock time *without* waiting for earlier responses
(open loop: offered load does not shrink when the server slows down,
which is exactly what makes shedding and deadlines observable).

Per-request robustness mirrors what a real client fleet does:

* a wall-clock **timeout** bounds every attempt;
* timeouts, connection failures, and ``retry_after``/``draining``
  responses are retried with **capped exponential backoff**;
* non-retryable responses (``expired``, ``error``) are recorded and
  dropped.

Fault specs drive misbehaving-client experiments deterministically:
``client-disconnect`` hard-aborts the socket right after sending the
N-th scheduled request (the attempt fails, the client reconnects and
retries), and ``slow-client`` stops reading responses for ``stall_s``
seconds at that point, exercising the server's slow-reader throttle.

The report aggregates counts plus p50/p95/p99 served wall latency via
:meth:`~repro.obs.metrics.Histogram.percentile`.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

from repro.faults.injector import FaultInjector
from repro.obs.metrics import WALL_MS_BUCKETS, Histogram
from repro.serve import protocol
from repro.workloads.generator import ZipfSampler


@dataclass(slots=True)
class LoadSettings:
    """Knobs of the generated load.

    Attributes:
        host: Server address.
        port: Server port.
        clients: Concurrent connections.
        requests: Total scheduled requests across all clients.
        rate: Aggregate open-loop arrival rate (requests/second).
        seed: Schedule seed (arrivals, addresses, ops, assignment).
        alpha: Zipf skew of the address distribution.
        write_frac: Fraction of writes.
        deadline_ms: Per-request deadline forwarded to the server
            (``None``/``<= 0`` omits it, leaving the server default).
        timeout_s: Per-attempt client-side timeout.
        retries: Max retries after the first attempt.
        backoff_s: Initial retry backoff, doubled per retry.
        backoff_cap_s: Backoff ceiling.
        shutdown_after: Ask the server for a graceful drain once the
            schedule completes (used by the CI smoke job).
    """

    host: str = "127.0.0.1"
    port: int = 7700
    clients: int = 4
    requests: int = 200
    rate: float = 400.0
    seed: int = 1
    alpha: float = 1.2
    write_frac: float = 0.1
    deadline_ms: float | None = None
    timeout_s: float = 5.0
    retries: int = 3
    backoff_s: float = 0.05
    backoff_cap_s: float = 1.0
    shutdown_after: bool = False

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


@dataclass(slots=True)
class _Scheduled:
    """One precomputed request of the open-loop schedule."""

    ordinal: int
    at: float
    client: int
    addr: int
    op: str
    value: str | None


class _Connection:
    """One client connection with reconnect and fault hooks."""

    def __init__(self, settings: LoadSettings, injector: FaultInjector | None):
        self.settings = settings
        self.injector = injector
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.space = 0
        self.pending: dict[int, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._connect_lock = asyncio.Lock()
        self._next_id = 0
        self._stall_s = 0.0
        self.reconnects = 0

    @property
    def connected(self) -> bool:
        return self.writer is not None and not self.writer.is_closing()

    async def ensure_connected(self) -> None:
        # Open-loop tasks share one connection; the lock keeps a burst of
        # concurrent first requests from opening one socket each.
        async with self._connect_lock:
            await self._connect_locked()

    async def _connect_locked(self) -> None:
        if self.connected:
            return
        if self.writer is not None:
            self.reconnects += 1
        settings = self.settings
        self.reader, self.writer = await asyncio.open_connection(
            settings.host, settings.port
        )
        self.writer.write(protocol.encode({"type": "hello", "client": "loadgen"}))
        await self.writer.drain()
        line = await self.reader.readline()
        welcome = protocol.decode(line)
        if welcome.get("type") != "welcome":
            raise ConnectionError(f"handshake refused: {welcome}")
        self.space = int(welcome["space"])
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_responses()
        )

    async def _read_responses(self) -> None:
        reader = self.reader
        try:
            while True:
                if self._stall_s > 0.0:
                    # slow-client fault: sit on unread responses.
                    stall, self._stall_s = self._stall_s, 0.0
                    await asyncio.sleep(stall)
                line = await reader.readline()
                if not line:
                    break
                message = protocol.decode(line)
                if message.get("type") != "resp":
                    continue
                future = self.pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionError, protocol.ProtocolError, OSError):
            pass
        finally:
            self._fail_pending(ConnectionError("connection lost"))

    def _fail_pending(self, exc: Exception) -> None:
        for future in self.pending.values():
            if not future.done():
                future.set_exception(exc)
        self.pending.clear()

    def abort(self) -> None:
        """Hard-kill the socket (the client-disconnect fault)."""
        if self.writer is not None:
            transport = self.writer.transport
            if transport is not None:
                transport.abort()

    async def request(self, scheduled: _Scheduled) -> dict[str, object]:
        """Send one attempt; resolves with the server's response."""
        await self.ensure_connected()
        wire_id = self._next_id
        self._next_id += 1
        message: dict[str, object] = {
            "type": "req",
            "id": wire_id,
            "op": scheduled.op,
            "addr": scheduled.addr % max(1, self.space),
        }
        if scheduled.op == "write":
            message["value"] = scheduled.value
        deadline_ms = self.settings.deadline_ms
        if deadline_ms is not None and deadline_ms > 0:
            message["deadline_ms"] = deadline_ms
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.pending[wire_id] = future
        self.writer.write(protocol.encode(message))
        await self.writer.drain()
        if self.injector is not None:
            if self.injector.client_disconnect_after(scheduled.ordinal):
                self.abort()
            stall = self.injector.client_stall_after(scheduled.ordinal)
            if stall > 0.0:
                self._stall_s = stall
        return await future

    async def close(self) -> None:
        if self.writer is not None and self.connected:
            try:
                self.writer.write(protocol.encode({"type": "bye"}))
                await self.writer.drain()
            except (ConnectionError, OSError):
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self.writer is not None:
            self.writer.close()


class LoadGenerator:
    """Drives one open-loop run and aggregates the report."""

    def __init__(
        self,
        settings: LoadSettings | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        self.settings = settings if settings is not None else LoadSettings()
        self.injector = injector
        self.latency = Histogram(WALL_MS_BUCKETS)
        self.counts = {
            name: 0
            for name in (
                "sent", "served", "shed", "expired", "rejected",
                "timeouts", "disconnects", "retries", "gave_up",
            )
        }

    # ------------------------------------------------------------------
    def build_schedule(self) -> list[_Scheduled]:
        """The fully seeded open-loop schedule (same seed → same load)."""
        settings = self.settings
        rng = random.Random(settings.seed)
        # Address space is only known post-handshake; sample ranks over a
        # fixed region and fold into the session space modulo at send
        # time — the *skew* is what matters and it is seed-stable.
        sampler = ZipfSampler(region=1 << 16, alpha=settings.alpha)
        schedule: list[_Scheduled] = []
        t = 0.0
        for ordinal in range(settings.requests):
            t += rng.expovariate(settings.rate)
            op = "write" if rng.random() < settings.write_frac else "read"
            schedule.append(
                _Scheduled(
                    ordinal=ordinal,
                    at=t,
                    client=rng.randrange(settings.clients),
                    addr=sampler.sample(rng),
                    op=op,
                    value=f"load-{ordinal}" if op == "write" else None,
                )
            )
        return schedule

    async def run(self) -> dict[str, object]:
        """Execute the schedule; returns the aggregated report."""
        settings = self.settings
        connections = [
            _Connection(settings, self.injector) for _ in range(settings.clients)
        ]
        loop = asyncio.get_running_loop()
        start = loop.time()
        tasks = []
        for scheduled in self.build_schedule():
            delay = max(0.0, start + scheduled.at - loop.time())
            if delay:
                await asyncio.sleep(delay)
            tasks.append(
                loop.create_task(
                    self._run_request(connections[scheduled.client], scheduled)
                )
            )
        if tasks:
            await asyncio.gather(*tasks)
        elapsed = loop.time() - start
        if settings.shutdown_after:
            await self._request_shutdown(connections[0])
        for connection in connections:
            await connection.close()
        return self.report(elapsed, connections)

    async def _run_request(
        self, connection: _Connection, scheduled: _Scheduled
    ) -> None:
        settings = self.settings
        self.counts["sent"] += 1
        backoff = settings.backoff_s
        attempts = settings.retries + 1
        send_t = asyncio.get_running_loop().time()
        for attempt in range(attempts):
            try:
                response = await asyncio.wait_for(
                    connection.request(scheduled), settings.timeout_s
                )
            except asyncio.TimeoutError:
                self.counts["timeouts"] += 1
                response = None
            except (ConnectionError, OSError):
                self.counts["disconnects"] += 1
                response = None
            if response is not None:
                status = response.get("status")
                if status == protocol.STATUS_OK:
                    self.counts["served"] += 1
                    wall_ms = (
                        asyncio.get_running_loop().time() - send_t
                    ) * 1000.0
                    self.latency.observe(wall_ms)
                    return
                if status == protocol.STATUS_EXPIRED:
                    self.counts["expired"] += 1
                    return
                if status not in protocol.RETRYABLE_STATUSES:
                    self.counts["rejected"] += 1
                    return
                self.counts["shed"] += 1
            if attempt + 1 < attempts:
                self.counts["retries"] += 1
                await asyncio.sleep(min(backoff, settings.backoff_cap_s))
                backoff *= 2.0
        self.counts["gave_up"] += 1

    async def _request_shutdown(self, connection: _Connection) -> None:
        try:
            await connection.ensure_connected()
            connection.writer.write(protocol.encode({"type": "shutdown"}))
            await connection.writer.drain()
            await asyncio.sleep(0.05)
        except (ConnectionError, OSError):
            pass

    def report(
        self, elapsed: float, connections: list[_Connection]
    ) -> dict[str, object]:
        out: dict[str, object] = dict(self.counts)
        out["elapsed_s"] = elapsed
        out["reconnects"] = sum(c.reconnects for c in connections)
        out["throughput_rps"] = (
            self.counts["served"] / elapsed if elapsed > 0 else 0.0
        )
        for q in (50, 95, 99):
            out[f"latency_ms_p{q}"] = self.latency.percentile(q)
        out["latency_ms_mean"] = self.latency.mean
        # Same shape as the server's ``stats`` latency block, so one
        # consumer can diff client-observed vs server-observed latency.
        out["latency"] = {"wall_ms": self.latency.summary()}
        return out


async def run_load(
    settings: LoadSettings | None = None,
    injector: FaultInjector | None = None,
) -> dict[str, object]:
    """Convenience wrapper: build a generator, run it, return the report."""
    return await LoadGenerator(settings, injector=injector).run()
