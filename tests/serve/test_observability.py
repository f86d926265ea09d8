"""Serve-layer observability plane: wire stats/health, SLO, flight rec.

Same in-process real-socket style as ``test_server.py``.  The SLO
monitor is driven by calling ``roll()`` directly instead of waiting for
the background cadence task, keeping the state-machine tests
deterministic.
"""

import asyncio
import json
import urllib.request

from repro.exit_codes import EXIT_SLO_BREACH
from repro.faults.injector import FaultPlan
from repro.obs.events import EventBus, ServeRequestServed
from repro.obs.flightrec import FlightRecorder
from repro.obs.log import load_events
from repro.obs.slo import STATE_HEALTHY
from repro.oram.config import OramConfig
from repro.serve import protocol
from repro.serve.server import OramServer, ServeSettings
from repro.serve.top import TopSettings, parse_addr, render_stats
from repro.system.config import SystemConfig


def small_config():
    return SystemConfig.dynamic(3, oram=OramConfig(levels=8))


def run(coro, timeout=30):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_settings(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("max_clients", 4)
    kwargs.setdefault("default_deadline_ms", None)
    return ServeSettings(**kwargs)


async def connect(server):
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(protocol.encode({"type": "hello", "client": "test"}))
    await writer.drain()
    welcome = protocol.decode(await reader.readline())
    assert welcome["type"] == "welcome"
    return reader, writer


async def ask(reader, writer, message):
    writer.write(protocol.encode(message))
    await writer.drain()
    return protocol.decode(await reader.readline())


async def drain_and_stop(server):
    server.request_drain("test")
    await asyncio.wait_for(server._drained.wait(), 10)
    await server._shutdown()


class TestWireStats:
    def test_stats_reply_schema(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            reader, writer = await connect(server)
            for i in range(4):
                await ask(reader, writer,
                          {"type": "req", "id": i, "op": "read", "addr": i})
            stats = await ask(reader, writer, {"type": "stats"})
            assert stats["type"] == "stats"
            assert stats["schema"] == protocol.STATS_SCHEMA
            assert stats["counters"]["serve/served"] == 4
            assert stats["queue"]["capacity"] == 256
            assert stats["queue"]["high_water"] >= 1
            wall = stats["latency"]["wall_ms"]
            assert wall["count"] == 4
            assert {"p50", "p95", "p99", "p99.9", "sum"} <= set(wall)
            assert stats["sessions"]["open"] == 1
            detail = stats["sessions"]["detail"][0]
            assert detail["sent"] == 5  # welcome + 4 responses
            assert stats["slo"] is None
            assert stats["draining"] is False
            writer.close()
            await drain_and_stop(server)

        run(main())

    def test_health_reply_without_slo_is_healthy(self):
        async def main():
            server = OramServer(
                small_config(), seed=1, settings=make_settings()
            )
            await server.start()
            reader, writer = await connect(server)
            health = await ask(reader, writer, {"type": "health"})
            assert health["type"] == "health"
            assert health["state"] == STATE_HEALTHY
            assert health["crashed"] is False
            writer.close()
            await drain_and_stop(server)

        run(main())


class TestSloIntegration:
    def test_served_requests_feed_the_monitor(self):
        async def main():
            server = OramServer(
                small_config(), seed=1,
                settings=make_settings(slo={"p99_ms": 1e9}),
            )
            await server.start()
            reader, writer = await connect(server)
            for i in range(3):
                await ask(reader, writer,
                          {"type": "req", "id": i, "op": "read", "addr": i})
            server.slo.roll()
            stats = await ask(reader, writer, {"type": "stats"})
            assert stats["slo"]["state"] == STATE_HEALTHY
            assert stats["slo"]["values"]["p99_ms"] > 0
            writer.close()
            await drain_and_stop(server)

        run(main())

    def test_slo_fatal_breach_drains_with_exit_7(self):
        async def main():
            server = OramServer(
                small_config(), seed=1,
                settings=make_settings(
                    slo={"p99_ms": 1e-6}, slo_fatal=True,
                    slo_window_s=0.05,
                ),
            )
            # Impossible threshold: every served request violates.  Let
            # the cadence task breach (breach_after=3 windows) and
            # trigger the fatal drain on its own.
            code_task = asyncio.get_running_loop().create_task(
                server.run()
            )
            while server.address is None:
                await asyncio.sleep(0.01)
            reader, writer = await connect(server)
            for i in range(5):
                await ask(reader, writer,
                          {"type": "req", "id": i, "op": "read", "addr": i})
            code = await asyncio.wait_for(code_task, 20)
            writer.close()
            assert code == EXIT_SLO_BREACH
            assert server.slo_breached
            assert server.drain_reason == "slo breach"

        run(main())


class TestFlightRecorderIntegration:
    def test_server_crash_dumps_postmortem(self, tmp_path):
        async def main():
            bus = EventBus()
            rec = FlightRecorder(bus, capacity=512, directory=tmp_path)
            plan = FaultPlan.parse(["server-crash:at_access=3"], seed=0)
            server = OramServer(
                small_config(), seed=1, settings=make_settings(),
                injector=plan.injector(in_worker=False),
                bus=bus, flight_recorder=rec,
            )
            live = []
            bus.subscribe(live.append, ServeRequestServed)
            code_task = asyncio.get_running_loop().create_task(server.run())
            while server.address is None:
                await asyncio.sleep(0.01)
            reader, writer = await connect(server)
            for i in range(6):
                try:
                    await ask(reader, writer, {"type": "req", "id": i,
                                               "op": "read", "addr": i})
                except (ConnectionError, protocol.ProtocolError):
                    break
            code = await asyncio.wait_for(code_task, 20)
            writer.close()
            assert code != 0
            assert server.crashed is not None
            assert server.postmortem_path is not None
            lines = server.postmortem_path.read_text().splitlines()
            assert json.loads(lines[0])["reason"] == "crash"
            events = load_events(lines)
            # The dump's served-request events are exactly the suffix of
            # the live bus stream (here: all of them).
            dumped = [e for e in events
                      if type(e) is ServeRequestServed]
            assert [e.addr for e in dumped] == [e.addr for e in live]
            assert len(dumped) == 3  # crash at the 4th access

        run(main())

    def test_clean_drain_dumps_exactly_once(self, tmp_path):
        async def main():
            bus = EventBus()
            rec = FlightRecorder(bus, capacity=64, directory=tmp_path)
            server = OramServer(
                small_config(), seed=1, settings=make_settings(),
                bus=bus, flight_recorder=rec,
            )
            await server.start()
            reader, writer = await connect(server)
            await ask(reader, writer,
                      {"type": "req", "id": 0, "op": "read", "addr": 0})
            writer.close()
            await drain_and_stop(server)
            dumps = list(tmp_path.glob("postmortem-*.jsonl"))
            assert len(dumps) == 1
            assert rec.dumps == [server.postmortem_path]

        run(main())


class TestMetricsEndpointIntegration:
    def test_live_scrape_reflects_serving(self):
        async def main():
            server = OramServer(
                small_config(), seed=1,
                settings=make_settings(metrics_port=0),
            )
            await server.start()
            reader, writer = await connect(server)
            for i in range(3):
                await ask(reader, writer,
                          {"type": "req", "id": i, "op": "read", "addr": i})
            host, port = server.metrics_address
            body = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: urllib.request.urlopen(
                    f"http://{host}:{port}/metrics", timeout=10
                ).read().decode(),
            )
            assert "repro_serve_served 3" in body
            assert "repro_serve_latency_wall_ms_count 3" in body
            # Every request was answered, so the live queue is empty.
            assert server._queue.qsize() == 0
            assert "repro_serve_queue_depth 0" in body.splitlines()
            writer.close()
            await drain_and_stop(server)

        run(main())


class TestTopRenderer:
    def test_parse_addr(self):
        assert parse_addr("10.0.0.1:8000") == ("10.0.0.1", 8000)
        assert parse_addr(":8000") == ("127.0.0.1", 8000)
        assert parse_addr("8000") == ("127.0.0.1", 8000)

    def test_render_stats_from_wire_payload(self):
        async def main():
            server = OramServer(
                small_config(), seed=1,
                settings=make_settings(slo={"p99_ms": 1e9}),
            )
            await server.start()
            reader, writer = await connect(server)
            for i in range(2):
                await ask(reader, writer,
                          {"type": "req", "id": i, "op": "read", "addr": i})
            payload = await ask(reader, writer, {"type": "stats"})
            writer.close()
            await drain_and_stop(server)
            return payload

        payload = run(main())
        frame = render_stats(payload, poll=3)
        assert "poll 3" in frame
        assert "served=2" in frame
        assert "wall_ms" in frame
        assert "slo" in frame

    def test_settings_validate(self):
        import pytest

        with pytest.raises(ValueError):
            TopSettings(interval_s=0)
        with pytest.raises(ValueError):
            TopSettings(count=-1)
        with pytest.raises(ValueError):
            parse_addr("nonsense:port")
