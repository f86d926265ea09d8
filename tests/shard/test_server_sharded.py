"""End-to-end tests: :class:`OramServer` over a supervised shard fleet.

Same real-socket housing as ``tests/serve/test_server.py``, but the
server's backend is a :class:`ShardSupervisor`.  The robustness story
under test: kill a shard mid-load and (a) in deny mode the fleet state
stays bit-identical to an uninterrupted reference, (b) in allow mode
healthy shards keep serving while the dead partition sheds with
``retry_after``, and (c) the accounting identity
``admitted == served + expired + abandoned`` holds either way.
"""

import asyncio
import threading
import time

from repro.faults.injector import FaultPlan
from repro.oram.config import OramConfig
from repro.serve import protocol
from repro.serve.scheduler_bridge import ServedAccess
from repro.serve.server import OramServer, ServeSettings
from repro.shard.supervisor import ShardSettings, ShardSupervisor
from repro.system.config import SystemConfig

SEED = 7


def small_config():
    return SystemConfig.dynamic(3, oram=OramConfig(levels=6))


def run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_settings(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("max_clients", 4)
    kwargs.setdefault("default_deadline_ms", None)
    kwargs.setdefault("heartbeat_s", 0.05)
    return ServeSettings(**kwargs)


def make_supervisor(state_dir, injector=None, **kw):
    kw.setdefault("num_shards", 3)
    kw.setdefault("checkpoint_every", 16)
    kw.setdefault("degraded", "allow")
    return ShardSupervisor(
        small_config(), seed=SEED, state_dir=state_dir,
        settings=ShardSettings(**kw), injector=injector,
    )


def make_server(supervisor, **kw):
    return OramServer(
        small_config(), seed=SEED, settings=make_settings(**kw),
        bridge=supervisor,
    )


class Client:
    """Minimal raw-protocol test client."""

    def __init__(self, reader, writer, welcome):
        self.reader = reader
        self.writer = writer
        self.welcome = welcome

    @classmethod
    async def connect(cls, server):
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(protocol.encode({"type": "hello", "client": "test"}))
        await writer.drain()
        welcome = protocol.decode(await reader.readline())
        return cls(reader, writer, welcome)

    async def req(self, req_id, addr, op="read", **extra):
        self.writer.write(protocol.encode(
            {"type": "req", "id": req_id, "op": op, "addr": addr, **extra}
        ))
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode(line)

    async def close(self):
        self.writer.close()


async def drain_and_stop(server):
    server.request_drain("test")
    await asyncio.wait_for(server._drained.wait(), 20)
    await server._shutdown()


def spy_executor(loop):
    """Record every callable the loop hands to an executor."""
    offloaded = []
    real = loop.run_in_executor

    def run_in_executor(executor, func, *args):
        offloaded.append(func)
        return real(executor, func, *args)

    loop.run_in_executor = run_in_executor
    return offloaded


def record_access_threads(bridge):
    """Wrap ``bridge.access`` to record the thread of every call."""
    threads = []
    real = bridge.access

    def access(*args):
        threads.append(threading.get_ident())
        return real(*args)

    bridge.access = access
    return threads


def hold_lock(lock, held, release, timeout_s):
    """Hold ``lock`` from another thread until released (or timed out)."""
    def holder():
        with lock:
            held.set()
            release.wait(timeout_s)

    thread = threading.Thread(target=holder, daemon=True)
    thread.start()
    assert held.wait(5)
    return thread


async def send(client, message):
    client.writer.write(protocol.encode(message))
    await client.writer.drain()


def assert_identity(stats):
    assert stats["serve/admitted"] == (
        stats["serve/served"]
        + stats["serve/expired"]
        + stats["serve/abandoned"]
    )


class TestShardedServing:
    def test_serves_reads_and_writes_across_shards(self, tmp_path):
        async def main():
            sup = make_supervisor(tmp_path)
            server = make_server(sup)
            await server.start()
            client = await Client.connect(server)
            for i in range(8):
                resp = await client.req(i, i, op="write", value=f"v{i}")
                assert resp["status"] == protocol.STATUS_OK
            for i in range(8):
                resp = await client.req(100 + i, i)
                assert resp["status"] == protocol.STATUS_OK
                assert resp["value"] == f"v{i}"
            await client.close()
            await drain_and_stop(server)
            stats = server.stats_snapshot()
            assert stats["serve/served"] == 16
            assert stats["serve/shards"] == 3
            assert stats["serve/shards_up"] == 3
            assert_identity(stats)

        run(main())

    def test_digest_message_reports_fleet_digest(self, tmp_path):
        async def main():
            sup = make_supervisor(tmp_path)
            server = make_server(sup)
            await server.start()
            client = await Client.connect(server)
            for i in range(5):
                await client.req(i, i)
            self_digest = sup.state_digest()
            self_writer = client.writer
            self_writer.write(protocol.encode({"type": "digest"}))
            await self_writer.drain()
            reply = protocol.decode(await client.reader.readline())
            assert reply["digest"] == self_digest
            await client.close()
            await drain_and_stop(server)

        run(main())

    def test_stats_answers_while_the_supervisor_lock_is_held(self, tmp_path):
        # A background recovery holds the supervisor lock for its whole
        # replay; the stats reply must not wait it out on the loop.
        async def main():
            sup = make_supervisor(tmp_path)
            server = make_server(sup, heartbeat_s=0.0)
            await server.start()
            client = await Client.connect(server)
            assert (await client.req(0, 1))["status"] == protocol.STATUS_OK
            held, release = threading.Event(), threading.Event()
            holder = hold_lock(sup._lock, held, release, timeout_s=3.0)
            try:
                start = time.monotonic()
                await send(client, {"type": "stats"})
                reply = protocol.decode(await client.reader.readline())
                elapsed = time.monotonic() - start
            finally:
                release.set()
                holder.join(5)
            assert not holder.is_alive()
            assert reply["type"] == "stats"
            assert [s["status"] for s in reply["shards"]] == ["up"] * 3
            assert elapsed < 1.0, f"stats waited {elapsed:.2f} s on the lock"
            await client.close()
            await drain_and_stop(server)

        run(main())

    def test_digest_waits_off_the_loop_while_the_lock_is_held(self, tmp_path):
        # The fleet digest needs the supervisor lock.  While another
        # thread holds it, only the digest reply may wait: a health
        # probe sent after it on another connection is answered first.
        async def main():
            sup = make_supervisor(tmp_path)
            server = make_server(sup, heartbeat_s=0.0)
            await server.start()
            digester = await Client.connect(server)
            prober = await Client.connect(server)
            assert (await digester.req(0, 1))["status"] == protocol.STATUS_OK
            held, release = threading.Event(), threading.Event()
            holder = hold_lock(sup._lock, held, release, timeout_s=3.0)
            try:
                start = time.monotonic()
                await send(digester, {"type": "digest"})
                await asyncio.sleep(0.05)
                await send(prober, {"type": "health"})
                health = protocol.decode(await prober.reader.readline())
                elapsed = time.monotonic() - start
            finally:
                release.set()
                holder.join(5)
            assert not holder.is_alive()
            assert health["type"] == "health"
            assert elapsed < 1.0, f"health waited {elapsed:.2f} s behind digest"
            digest = protocol.decode(await digester.reader.readline())
            assert digest == {"type": "digest", "digest": sup.state_digest(),
                              "served": sup.served}
            assert sup.served == 1
            await digester.close()
            await prober.close()
            await drain_and_stop(server)

        run(main())


class PipeFleetStub:
    """Just enough of a process-housed fleet for the dispatch rule."""

    settings = ShardSettings(mode="process")
    num_blocks = 64

    def __init__(self):
        self.served = 0

    def access(self, addr, op, payload=None):
        self.served += 1
        return ServedAccess(
            addr=addr, op=op, served_from="stash", latency_cycles=1.0,
            finish=1.0, value=payload, path_accesses=0,
        )

    def addr_unavailable(self, addr):
        return False

    def check_health(self):
        return []

    def dead_shards(self):
        return []

    def shard_status(self):
        return ["up"] * 4

    def close(self):
        pass


class TestRoundDispatch:
    """Which fleet rounds leave the event loop (DESIGN.md §11)."""

    def test_inproc_round_runs_on_the_loop(self, tmp_path):
        async def main():
            sup = make_supervisor(tmp_path)
            server = make_server(sup)
            await server.start()
            offloaded = spy_executor(asyncio.get_running_loop())
            threads = record_access_threads(sup)
            client = await Client.connect(server)
            for i in range(6):
                resp = await client.req(i, i, op="write", value=f"v{i}")
                assert resp["status"] == protocol.STATUS_OK
            await client.close()
            await drain_and_stop(server)
            assert threads == [threading.get_ident()] * 6
            assert sup.access not in offloaded

        run(main())

    def test_round_during_recovery_goes_through_the_executor(self, tmp_path):
        async def main():
            sup = make_supervisor(tmp_path)
            server = make_server(sup, heartbeat_s=0.0)
            await server.start()
            offloaded = spy_executor(asyncio.get_running_loop())
            threads = record_access_threads(sup)
            healthy = next(
                a for a in range(server.client_space)
                if sup.ring.shard_of(a) != 1
            )
            client = await Client.connect(server)
            assert (await client.req(0, healthy))["status"] == protocol.STATUS_OK
            # A background recovery of shard 1 that holds the supervisor
            # lock until the test releases it.
            held, release = threading.Event(), threading.Event()
            real_recover = sup.recover

            def slow_recover(shard):
                with sup._lock:
                    held.set()
                    release.wait(5)
                    real_recover(shard)

            sup.recover = slow_recover
            sup._mark_dead(sup._shards[1], "test")
            server._ensure_recovery(1)
            while not held.is_set():
                await asyncio.sleep(0.01)
            await send(client, {
                "type": "req", "id": 1, "op": "read", "addr": healthy,
            })
            # The round waits for the lock off the loop, so a health
            # probe sent behind it is answered first.
            start = time.monotonic()
            await send(client, {"type": "health"})
            first = protocol.decode(await client.reader.readline())
            elapsed = time.monotonic() - start
            release.set()
            second = protocol.decode(await client.reader.readline())
            assert first["type"] == "health"
            assert elapsed < 2.0
            assert second["status"] == protocol.STATUS_OK
            assert threads[0] == threading.get_ident()
            assert threads[1] != threading.get_ident()
            assert offloaded.count(sup.access) == 1
            await asyncio.wait_for(server._recover_tasks[1], 10)
            assert sup.shard_status() == ["up"] * 3
            await client.close()
            await drain_and_stop(server)

        run(main())

    def test_process_fleet_round_goes_through_the_executor(self):
        async def main():
            stub = PipeFleetStub()
            server = make_server(stub, heartbeat_s=0.0)
            await server.start()
            offloaded = spy_executor(asyncio.get_running_loop())
            threads = record_access_threads(stub)
            client = await Client.connect(server)
            for i in range(3):
                resp = await client.req(i, i)
                assert resp["status"] == protocol.STATUS_OK
            await client.close()
            await drain_and_stop(server)
            assert len(threads) == 3
            assert threading.get_ident() not in threads
            assert offloaded.count(stub.access) == 3

        run(main())


class TestShardCrashUnderLoad:
    def test_crash_recovers_and_identity_holds(self, tmp_path):
        async def main():
            injector = FaultPlan.parse(
                ["shard-crash:shard=1,at_access=10"], seed=0
            ).injector(in_worker=False)
            sup = make_supervisor(tmp_path, injector=injector)
            server = make_server(sup)
            await server.start()
            client = await Client.connect(server)
            served = 0
            for i in range(40):
                resp = await client.req(i, i % server.client_space)
                if resp["status"] == protocol.STATUS_OK:
                    served += 1
                else:
                    assert resp["status"] == protocol.STATUS_RETRY_AFTER
                    await asyncio.sleep(0.05)
            assert injector.fired()  # the crash actually happened
            # Give the heartbeat sweep time to finish the recovery.
            for _ in range(100):
                if not sup.dead_shards():
                    break
                await asyncio.sleep(0.05)
            assert sup.shard_status() == ["up", "up", "up"]
            assert sup.recoveries == 1
            await client.close()
            await drain_and_stop(server)
            stats = server.stats_snapshot()
            assert stats["serve/served"] == served
            assert_identity(stats)
            assert server.crashed is None

        run(main())

    def test_deny_mode_digest_matches_uninterrupted_reference(self, tmp_path):
        async def serve_sequence(state_dir, injector=None):
            sup = make_supervisor(state_dir, injector=injector,
                                  degraded="deny")
            server = make_server(sup)
            await server.start()
            client = await Client.connect(server)
            for i in range(30):
                op = "write" if i % 4 == 0 else "read"
                extra = {"value": f"v{i}"} if op == "write" else {}
                resp = await client.req(
                    i, i % server.client_space, op=op, **extra
                )
                assert resp["status"] == protocol.STATUS_OK
            await client.close()
            await drain_and_stop(server)
            return sup.shard_digests(), server.stats_snapshot()

        async def main():
            clean_digests, clean_stats = await serve_sequence(
                tmp_path / "clean"
            )
            injector = FaultPlan.parse(
                ["shard-crash:shard=1,at_access=12"], seed=0
            ).injector(in_worker=False)
            crash_digests, crash_stats = await serve_sequence(
                tmp_path / "crashed", injector=injector
            )
            assert injector.fired()
            assert crash_digests == clean_digests
            assert crash_stats["serve/served"] == clean_stats["serve/served"]
            assert_identity(crash_stats)

        run(main())

    def test_dead_shard_sheds_while_healthy_shards_serve(self, tmp_path):
        async def main():
            injector = FaultPlan.parse(
                ["shard-crash:shard=1,at_access=5"], seed=0
            ).injector(in_worker=False)
            sup = make_supervisor(tmp_path, injector=injector)
            # No heartbeat: the shard stays dead so the shed is visible.
            server = make_server(sup, heartbeat_s=0.0)
            await server.start()
            client = await Client.connect(server)
            # The first session's slot base is 0, so client addresses
            # map to fleet addresses 1:1.  Steering all real traffic
            # away from shard 1 makes the injected crash land on one of
            # its padding slots: the shard dies without any request
            # noticing, so nothing parks and no recovery starts.
            space = server.client_space
            healthy = [a for a in range(space) if sup.ring.shard_of(a) != 1]
            doomed = [a for a in range(space) if sup.ring.shard_of(a) == 1]
            assert healthy and doomed
            for i in range(10):
                resp = await client.req(i, healthy[i % len(healthy)])
                assert resp["status"] == protocol.STATUS_OK
            assert sup.dead_shards() == [1]
            # The dead partition sheds at admission...
            resp = await client.req(100, doomed[0])
            assert resp["status"] == protocol.STATUS_RETRY_AFTER
            # ...while healthy shards keep serving.
            resp = await client.req(101, healthy[0])
            assert resp["status"] == protocol.STATUS_OK
            await client.close()
            await drain_and_stop(server)
            stats = server.stats_snapshot()
            assert stats["serve/served"] == 11
            assert stats["serve/shed_shard_down"] == 1
            assert_identity(stats)

        run(main())


class TestUnrecoverableFleet:
    def test_fleet_failure_crashes_with_serve_failed_exit(self, tmp_path):
        from repro.exit_codes import EXIT_SERVE_FAILED
        from repro.faults.injector import ShardDied

        async def main():
            injector = FaultPlan.parse(
                ["shard-crash:shard=1,at_access=5"], seed=0
            ).injector(in_worker=False)
            sup = make_supervisor(tmp_path, injector=injector,
                                  max_respawns=1)
            server = make_server(sup)
            await server.start()

            def doomed_spawn(shard):
                raise ShardDied(shard, "still down")

            sup._spawn = doomed_spawn
            client = await Client.connect(server)
            for i in range(30):
                if server.crashed is not None:
                    break
                try:
                    # A request whose owning shard died is parked and
                    # never answered once the fleet fails; the timeout
                    # (not a response) is the expected outcome there.
                    await asyncio.wait_for(
                        client.req(i, i % server.client_space), 2
                    )
                except (ConnectionError, asyncio.TimeoutError):
                    break
                await asyncio.sleep(0.05)
            await asyncio.wait_for(server._drained.wait(), 20)
            await server._shutdown()
            await client.close()
            assert server.crashed is not None
            assert "respawn budget" in str(server.crashed)
            # run() maps a crashed fleet to the serve-failed exit code.
            assert EXIT_SERVE_FAILED == 6

        run(main())

    def test_restore_serves_restored_state(self, tmp_path):
        async def main():
            sup = make_supervisor(tmp_path)
            server = make_server(sup)
            await server.start()
            client = await Client.connect(server)
            resp = await client.req(0, 3, op="write", value="durable")
            assert resp["status"] == protocol.STATUS_OK
            for i in range(20):
                await client.req(1 + i, (4 + i) % server.client_space)
            await client.close()
            await drain_and_stop(server)

            sup2 = make_supervisor(tmp_path)
            server2 = OramServer(
                small_config(), seed=SEED, settings=make_settings(),
                bridge=sup2, restore=True,
            )
            await server2.start()
            client2 = await Client.connect(server2)
            resp = await client2.req(0, 3)
            assert resp["status"] == protocol.STATUS_OK
            assert resp["value"] == "durable"
            await client2.close()
            await drain_and_stop(server2)

        run(main())
