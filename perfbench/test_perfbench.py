"""Self-tests of the benchmark: its statistics and its output checks.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
Each output check is shown to catch a planted fault: a wrong read value
from a server, a changed simulation result digest, and broken accounting
identities.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import simwork  # noqa: E402
from client import WireClient  # noqa: E402
from layers import LayerClock  # noqa: E402
from reference import Reference  # noqa: E402
from stats import (  # noqa: E402
    check_read_value,
    check_serve_accounting,
    check_shard_padding,
    check_sim_sources,
    interpolate_max_rps,
    median,
    percentile,
)


# ----------------------------------------------------------------------
# Percentiles and the max-rate ladder
# ----------------------------------------------------------------------
def test_percentile_interpolates_like_numpy():
    samples = [float(x) for x in range(1, 101)]
    assert percentile(samples, 50) == pytest.approx(50.5)
    assert percentile(samples, 99) == pytest.approx(99.01)
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 100.0
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_percentile_counts_failures_as_over_any_limit():
    samples = [1.0] * 98 + [math.inf] * 2
    assert percentile(samples, 50) == 1.0
    assert math.isinf(percentile(samples, 99))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_max_rps_interpolates_between_last_pass_and_first_fail():
    rungs = [(1000.0, 20.0), (2000.0, 100.0), (3000.0, 400.0)]
    # A 200 ms limit is a third of the way from 100 to 400 ms.
    assert interpolate_max_rps(rungs, 200.0) == pytest.approx(2000.0 + 1000.0 / 3)


def test_max_rps_first_rung_failing_interpolates_from_origin():
    assert interpolate_max_rps([(1000.0, 800.0)], 200.0) == pytest.approx(250.0)


def test_max_rps_with_failed_requests_keeps_last_passing_rate():
    rungs = [(1000.0, 20.0), (2000.0, math.inf)]
    assert interpolate_max_rps(rungs, 200.0) == 1000.0


def test_max_rps_ladder_without_failure_reports_top_rung():
    assert interpolate_max_rps([(1000.0, 10.0), (2000.0, 190.0)], 200.0) == 2000.0


def test_max_rps_needs_rungs():
    with pytest.raises(ValueError):
        interpolate_max_rps([], 200.0)


# ----------------------------------------------------------------------
# Wire check: a planted wrong read value is caught by the client
# ----------------------------------------------------------------------
class FakeServer:
    """A minimal newline-JSON ORAM server on localhost.

    ``corrupt`` makes it answer every read of an address that was written
    with a value nobody wrote.
    """

    def __init__(self, corrupt: bool) -> None:
        self.corrupt = corrupt
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.threads: list[threading.Thread] = []
        self.accepter = threading.Thread(target=self._accept, daemon=True)
        self.accepter.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            t.start()
            self.threads.append(t)

    def _serve(self, conn: socket.socket) -> None:
        store: dict[int, object] = {}
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                msg = json.loads(line)
                if msg["type"] == "hello":
                    reply = {"type": "welcome", "session": 0, "base": 0, "space": 64}
                elif msg["type"] == "req":
                    reply = {"type": "resp", "id": msg["id"], "status": "ok"}
                    if msg["op"] == "write":
                        store[msg["addr"]] = msg["value"]
                    else:
                        value = store.get(msg["addr"])
                        if self.corrupt and value is not None:
                            value = "planted"
                        reply["value"] = value
                else:
                    reply = {"type": msg["type"]}
                conn.sendall(json.dumps(reply).encode() + b"\n")

    def close(self) -> None:
        self.listener.close()


@pytest.mark.parametrize("corrupt", [False, True])
def test_client_catches_a_wrong_read_value(corrupt):
    server = FakeServer(corrupt)
    client = WireClient("127.0.0.1", server.port, conns=2, seed=7)
    try:
        phase = client.run_phase(600, 3000.0)
    finally:
        client.close()
        server.close()
    if corrupt:
        assert client.wrong_reads > 0
        assert phase.failed == client.wrong_reads
    else:
        assert client.wrong_reads == 0
        assert phase.failed == 0
    assert len(phase.due) == 600 and all(d < math.inf for d in phase.done)


def test_read_value_rule():
    assert check_read_value(None, None, None)
    assert check_read_value("a", "a", None)
    assert not check_read_value("b", "a", None)
    # After an unacknowledged write, any value the connection sent is valid.
    assert check_read_value("b", "a", {"a", "b"})
    assert not check_read_value("c", "a", {"a", "b"})


# ----------------------------------------------------------------------
# Simulation check: a planted change to the result digest is caught
# ----------------------------------------------------------------------
def _check_unit(config_edit=None) -> dict:
    from repro import simulate
    from repro.serialize import stable_hash

    want = run.load_json(HERE / "expected.json")["sim-dup"]
    config, trace_name = simwork.build_config("sim-dup")
    if config_edit is not None:
        config = config_edit(config)
    result = simulate(config, trace_name, num_requests=want["requests"],
                      seed=want["seed"])
    return {"problems": [], "sim_cycles": result.total_cycles,
            "digest": stable_hash(result.to_dict()),
            "check": {"sim_cycles": result.total_cycles,
                      "digest": stable_hash(result.to_dict())}}


def test_recorded_seed_matches_expected_result():
    outcome = run.Run()
    run.sim_checks(outcome, "sim-dup", [_check_unit()],
                   run.load_json(HERE / "expected.json"))
    assert outcome.problems == []


def test_changed_result_digest_fails_the_run():
    from dataclasses import replace

    def slower_dram(config):
        return replace(config, dram=replace(config.dram, t_cas_ns=config.dram.t_cas_ns + 1.5))

    outcome = run.Run()
    run.sim_checks(outcome, "sim-dup", [_check_unit(slower_dram)],
                   run.load_json(HERE / "expected.json"))
    assert any("recorded seed" in p for p in outcome.problems)


def test_units_of_one_seed_must_agree():
    unit = {"problems": [], "sim_cycles": 10.0, "digest": "a"}
    outcome = run.Run()
    run.sim_checks(outcome, "sim-dup", [unit, dict(unit, digest="b")],
                   {"sim-dup": {}})
    assert any("disagree" in p for p in outcome.problems)


# ----------------------------------------------------------------------
# Accounting identities: planted breaks are caught
# ----------------------------------------------------------------------
GOOD_COUNTERS = {"serve/accepted": 110, "serve/admitted": 100, "serve/shed": 10,
                 "serve/served": 95, "serve/expired": 4, "serve/abandoned": 1}


def test_serve_accounting_holds_and_breaks():
    assert check_serve_accounting(GOOD_COUNTERS) == []
    lost = dict(GOOD_COUNTERS, **{"serve/served": 94})
    assert len(check_serve_accounting(lost)) == 1
    unshed = dict(GOOD_COUNTERS, **{"serve/shed": 9})
    assert len(check_serve_accounting(unshed)) == 1


def test_shard_padding_holds_and_breaks():
    shards = [{"real": 3, "dummy": 7}, {"real": 2, "dummy": 8},
              {"real": 5, "dummy": 5}, {"real": 0, "dummy": 10}]
    assert check_shard_padding(shards) == []
    shards[0]["dummy"] += 1
    assert len(check_shard_padding(shards)) == 1


def test_sim_sources_hold_on_a_real_run_and_break_when_planted():
    from repro import simulate

    config, trace_name = simwork.build_config("sim-dup")
    probe = simwork.MissProbe()
    result = simulate(config, trace_name, num_requests=5_000, seed=3,
                      backend_filter=probe).to_dict()
    assert check_sim_sources(result, probe.misses, probe.writebacks) == []
    assert check_sim_sources(result, probe.misses + 1, probe.writebacks)
    result["oram_stats"]["shadow_stash_hits"] += 1
    assert check_sim_sources(result, probe.misses, probe.writebacks)


# ----------------------------------------------------------------------
# Traced run: exclusive-time accounting and the wrapper-call guard
# ----------------------------------------------------------------------
def test_layer_clock_charges_exclusive_time():
    ticks = iter(range(100))
    clock = LayerClock(timer=lambda: float(next(ticks)))

    class Layers:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    clock.patch(Layers, "outer", "outer")
    clock.patch(Layers, "inner", "inner")
    assert Layers().outer() == 2
    # outer runs from tick 0 to 3 and inner from 1 to 2: outer keeps 2.
    assert clock.totals() == {"inner": (1, 1.0), "outer": (1, 2.0)}


def test_wrapper_guard_catches_silent_and_unexpected_layers():
    calls = dict.fromkeys(run.LAYERS_CALLED["sim-dup"], 5)
    outcome = run.Run()
    outcome.check_wrappers("sim-dup", calls)
    assert outcome.problems == []
    inlined = dict(calls, **{"core.fill": 0})
    outcome.check_wrappers("sim-dup", inlined)
    assert any("core.fill recorded no calls" in p for p in outcome.problems)
    outcome = run.Run()
    outcome.check_wrappers("sim-dup", dict(calls, **{"merkle.verify": 3}))
    assert any("merkle.verify recorded calls" in p for p in outcome.problems)


# ----------------------------------------------------------------------
# Reference chunks: fixed work, kept out of the program's results
# ----------------------------------------------------------------------
def test_reference_chunks_leave_the_simulation_result_alone():
    from repro import simulate
    from repro.serialize import stable_hash

    config, trace_name = simwork.build_config("sim-dup")
    plain = simulate(config, trace_name, num_requests=5_000, seed=3)
    probe = simwork.MissProbe(ref_every=100)
    result = simulate(config, trace_name, num_requests=5_000, seed=3,
                      backend_filter=probe)
    assert stable_hash(result.to_dict()) == stable_hash(plain.to_dict())
    assert len(probe.ref_chunks) == probe.misses // 100 > 0
    assert probe.ref_cpu >= sum(probe.ref_chunks)


def test_reference_chunk_that_does_other_work_is_refused():
    reference = Reference()
    reference.chunk()
    reference.chunk()
    reference.checksum ^= 1
    with pytest.raises(RuntimeError, match="different work"):
        reference.chunk()
