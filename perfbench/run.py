"""Benchmark of the Shadow Block reproduction: simulator speed and wire serving.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-dup --seed 1 --seconds 25 --trace 0

Workloads (why each was chosen is in ``perfbench/README.md`` and
``BENCHMARK.json``):

* ``sim-dup``, ``sim-secure`` run ``repro.simulate`` in fresh worker
  processes (``simwork.py``), one after another, for ``--seconds``;
* ``wire``, ``wire-shards`` start ``repro serve`` and drive it with the
  benchmark's open-loop client (``client.py``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics, taken from an untraced
and a traced pass in the same command.  Progress goes to stderr.  Every
output check runs in the same command; a failed check makes ``correct``
false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from client import WireClient  # noqa: E402
from reference import Reference, slowdown  # noqa: E402
from stats import (  # noqa: E402
    check_serve_accounting,
    check_shard_padding,
    interpolate_max_rps,
    median,
    percentile,
)

# ----------------------------------------------------------------------
# Workload parameters.  Request counts are fixed per unit or per phase,
# so every run does the same work; --seconds sets how many simulation
# units a run aggregates and how long the fixed-rate wire phase lasts.
# ----------------------------------------------------------------------
SIM_REQUESTS = {
    # 100k h264ref instructions -> 17,672 LLC misses per unit (seed 1).
    "sim-dup": 100_000,
    # 20k mcf instructions -> 5,128 LLC misses and 653 dummies (seed 1).
    "sim-secure": 20_000,
}
MIN_SIM_UNITS = 3
#: A reference chunk (``reference.py``) runs after every this many misses,
#: about every 0.1 s of simulation on the VM the benchmark was sized on.
SIM_REF_EVERY = {"sim-dup": 2_000, "sim-secure": 500}

#: Open-loop wire load.  Rates are requests per second; each fixed rate
#: sits well below the workload's knee, so it measures service, not
#: queueing.  The warm-up is a fixed request count: bridge throughput
#: drifts while the tree and stash fill.
CONNECTIONS = 2
WIRE = {
    "wire": {
        "serve_args": [],
        "warmup": (5_000, 2_500.0),
        "fixed_rate": 1_000.0,
        "ladder": [2_500.0, 3_000.0, 3_500.0, 4_000.0, 4_500.0, 5_000.0,
                   5_500.0, 6_000.0, 7_000.0, 8_000.0, 10_000.0, 12_000.0],
    },
    "wire-shards": {
        # Snapshots off: snapshot cost is out of this benchmark.
        "serve_args": ["--shards", "4", "--shard-mode", "inproc",
                       "--checkpoint-every", "0"],
        "warmup": (1_000, 300.0),
        "fixed_rate": 200.0,
        "ladder": [300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0,
                   1_000.0, 1_200.0, 1_400.0, 1_700.0, 2_000.0],
    },
}
#: Share of --seconds spent at the fixed rate, cut into SEGMENT_S pieces
#: whose p50/p99 are reported as medians over the pieces.
FIXED_SHARE = 0.75
SEGMENT_S = 1.0
#: Reference chunks the client runs, while the server is idle, just
#: before and after each server start and after each fixed-rate segment.
WIRE_REF_CHUNKS = 4
#: Max-rate ladder: each rung offers RUNG_S seconds of arrivals and fails
#: when its p99 exceeds LIMIT_MS.  The limit sits above the host-stall
#: tail (p99 up to ~200 ms in single one-second segments on a shared
#: 2-vCPU VM) so the climb stops at the queueing knee; a rung this long
#: past the knee builds a backlog whose wait alone exceeds the limit.
RUNG_S = 3.0
LIMIT_MS = 300.0
RUNG_PAUSE_S = 0.5
#: Server spawns per run for setup_s; the last one is measured.
SERVER_SETUPS = 5
#: A generator whose median request went out this late has fallen
#: behind its schedule; its latencies would be meaningless.
GEN_LATE_P50_LIMIT_MS = 5.0

#: Per workload: layers whose wrappers must record calls, and layers
#: whose wrappers must record none.
_SIM_LAYERS = {"workloads.generate", "cpu.filter", "oram.build", "oram.access",
               "oram.evict", "oram.stash", "core.fill", "core.hot_cache",
               "mem.timing", "system.scheduler"}
_MERKLE = {"merkle.verify", "merkle.update"}
_SHARD = {"shard.round", "shard.slot", "shard.intent_append"}
LAYERS_CALLED = {
    "sim-dup": _SIM_LAYERS,
    "sim-secure": _SIM_LAYERS | _MERKLE | {"oram.dummy_access"},
    "wire": {"serve.protocol", "serve.bridge", "oram.build"},
    "wire-shards": {"serve.protocol", "serve.bridge", "oram.build"} | _SHARD,
}
LAYERS_IDLE = {"sim-dup": _MERKLE, "sim-secure": set(), "wire": _SHARD,
               "wire-shards": set()}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


class Run:
    """One run's metrics, request counts and failed checks."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, problems: list[str], what: str) -> None:
        self.problems.extend(f"{what}: {problem}" for problem in problems)

    def check_wrappers(self, workload: str, calls: dict[str, int]) -> None:
        """Fail the run when a wrapper that must fire recorded no calls (a
        layer was inlined or renamed) or an idle layer's did."""
        for name in sorted(LAYERS_CALLED[workload]):
            if calls.get(name, 0) == 0:
                self.problems.append(f"wrapper {name} recorded no calls on {workload}")
        for name in sorted(LAYERS_IDLE[workload]):
            if calls.get(name, 0) != 0:
                self.problems.append(f"wrapper {name} recorded calls on {workload}")

    def result(self, declared: list[dict]) -> dict[str, object]:
        metrics = {}
        for entry in declared:
            value = self.metrics[entry["name"]]
            if not math.isfinite(value):
                raise RuntimeError(f"metric {entry['name']} is not finite")
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def sim_unit(workload: str, seed: int, trace: bool, check: dict | None) -> dict:
    cmd = [sys.executable, str(HERE / "simwork.py"), workload, str(seed),
           str(SIM_REQUESTS[workload]), "1" if trace else "0",
           str(SIM_REF_EVERY[workload])]
    if check is not None:
        cmd += [str(check["seed"]), str(check["requests"])]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=150)
    if out.returncode != 0:
        raise RuntimeError(f"simulation unit failed:\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def sim_checks(run: Run, workload: str, units: list[dict], expected: dict) -> None:
    """Served sources sum up in every unit; units of one seed agree bit for
    bit; the recorded seed reproduces its recorded result."""
    for unit in units:
        run.check(unit["problems"], "served sources")
    if len({(u["sim_cycles"], u["digest"]) for u in units}) != 1:
        run.problems.append("simulation units of one seed disagree: "
                            f"{[(u['sim_cycles'], u['digest'][:12]) for u in units]}")
    want = expected[workload]
    for unit in units:
        if "check" in unit and unit["check"] != {"sim_cycles": want["sim_cycles"],
                                                 "digest": want["digest"]}:
            run.problems.append(f"recorded seed {want['seed']}: got {unit['check']}, "
                                f"recorded {want}")


def sim_run(workload: str, seed: int, seconds: float, expected: dict) -> Run:
    run = Run()
    units: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(units) < MIN_SIM_UNITS or time.perf_counter() < deadline:
        check = expected[workload] if not units else None
        units.append(sim_unit(workload, seed, trace=False, check=check))
        u = units[-1]
        log(f"  unit {len(units)}: setup {u['setup_s']:.3f} s, {u['misses']:,} misses "
            f"in {u['cpu_s']:.3f} CPU-s ({u['loop_s']:.3f} s wall), reference chunk "
            f"{1e3 * u['ref_s']:.2f} ms, rss {u['rss_mb']:.1f} MB")
    sim_checks(run, workload, units, expected)
    run.attempted = sum(u["misses"] for u in units)
    run.failed = sum(u["misses"] for u in units if u["problems"])
    run.metrics = {
        "setup_s": median([u["setup_s"] / slowdown(u["ref_s"]) for u in units]),
        "peak_rss_mb": median([u["rss_mb"] for u in units]),
        "ops_per_s": median([u["misses"] / u["cpu_s"] * slowdown(u["ref_s"])
                             for u in units]),
        "ok_rate": 1.0 - run.failed / run.attempted,
    }
    log(f"  medians before scaling: {median([u['misses'] / u['cpu_s'] for u in units]):.1f}"
        f" misses per CPU-s, setup {median([u['setup_s'] for u in units]):.3f} s, "
        f"reference chunk {1e3 * median([u['ref_s'] for u in units]):.3f} ms")
    return run


def sim_traced(workload: str, seed: int, expected: dict, names: list[str]) -> Run:
    run = Run()
    plain = sim_unit(workload, seed, trace=False, check=expected[workload])
    traced = sim_unit(workload, seed, trace=True, check=None)
    sim_checks(run, workload, [plain, traced], expected)
    run.attempted = plain["misses"] + traced["misses"]
    run.failed = sum(u["misses"] for u in (plain, traced) if u["problems"])
    setup, loop = traced["layers_setup"], traced["layers_loop"]
    calls = {n: setup.get(n, (0, 0))[0] + loop.get(n, (0, 0))[0]
             for n in set(setup) | set(loop)}
    run.check_wrappers(workload, calls)

    def secs(name: str) -> float:
        return setup.get(name, (0, 0.0))[1] + loop.get(name, (0, 0.0))[1]

    stats = traced["oram_stats"]
    shadow = traced["shadow_stats"] or {}
    res = traced["result"]
    wrapped_loop = sum(s for _c, s in loop.values())
    m = dict.fromkeys(names, 0.0)
    m.update({
        "workloads.generate_s": secs("workloads.generate"),
        "cpu.filter_s": secs("cpu.filter"),
        "cpu.llc_misses": res["llc_misses"],
        "oram.build_s": secs("oram.build"),
        "oram.access_self_s": secs("oram.access"),
        "oram.evict_self_s": secs("oram.evict"),
        "oram.stash_s": secs("oram.stash"),
        "oram.dummy_access_s": secs("oram.dummy_access"),
        "oram.path_reads": stats["path_reads"],
        "oram.evictions": stats["evictions"],
        "oram.onchip_serves": stats["onchip_serves"],
        "oram.stash_peak": res["stash_peak"],
        "merkle.verify_s": secs("merkle.verify"),
        "merkle.update_s": secs("merkle.update"),
        "merkle.calls": calls.get("merkle.verify", 0) + calls.get("merkle.update", 0),
        "core.fill_s": secs("core.fill"),
        "core.hot_cache_s": secs("core.hot_cache"),
        "core.fill_ratio": (shadow.get("dummy_slots_filled", 0)
                            / max(1, shadow.get("dummy_slots_seen", 0))),
        "core.shadow_path_serves": stats["shadow_path_serves"],
        "core.shadow_stash_hits": stats["shadow_stash_hits"],
        "mem.timing_s": secs("mem.timing"),
        "system.scheduler_s": secs("system.scheduler"),
        "system.dummy_ratio": (res["dummy_requests"]
                               / max(1, res["dummy_requests"] + res["real_requests"])),
        "system.frontend_s": traced["loop_s"] - wrapped_loop,
        "sim.cycles": traced["sim_cycles"],
        "bench.trace_overhead": (traced["loop_s"] / slowdown(traced["ref_s"]))
                                / (plain["loop_s"] / slowdown(plain["ref_s"])),
        "bench.ops_per_cpu_s": plain["misses"] / plain["cpu_s"],
        "bench.setup_wall_s": plain["setup_s"],
        "bench.ref_ms": 1e3 * plain["ref_s"],
    })
    run.metrics = m
    log(f"  traced miss loop {traced['loop_s']:.3f} s = wrapped layers "
        f"{wrapped_loop:.3f} s + frontend {m['system.frontend_s']:.3f} s; "
        f"untraced {plain['loop_s']:.3f} s")
    for name, (count, spent) in sorted(loop.items(), key=lambda kv: -kv[1][1]):
        log(f"    {name:22s} {spent:8.3f} s  {count:>9,d} calls")
    return run


# ----------------------------------------------------------------------
# Wire workloads
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process, started through ``serve_launch.py``."""

    def __init__(self, workload: str, seed: int, scratch: Path, tag: str,
                 trace: bool) -> None:
        self.layers_file = scratch / f"layers-{tag}.json"
        args = ["serve", "--port", "0", "--seed", str(seed), "--scheme", "dynamic-3",
                *WIRE[workload]["serve_args"]]
        if "--shards" in args:
            args += ["--shard-dir", str(scratch / f"shards-{tag}")]
        cmd = [sys.executable, str(HERE / "serve_launch.py"), "1" if trace else "0",
               str(self.layers_file), *args]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=scratch, stdout=subprocess.PIPE,
                                     text=True)
        self.rusage = None
        self.port = None
        for line in self.proc.stdout:
            if line.startswith("listening on"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                break
        if self.port is None:
            self.kill()
            raise RuntimeError("server exited before listening")
        self.setup_s = time.perf_counter() - start

    def cpu_s(self) -> float:
        """CPU seconds the server's threads have run so far (schedstat, ns)."""
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass  # a thread that exited between listing and reading
        return total / 1e9

    def wait(self, timeout: float = 60.0) -> int:
        """Reap the server and keep its resource usage (peak RSS)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("server did not exit after shutdown")
            time.sleep(0.02)
        self.rusage = rusage
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.read()
        self.proc.stdout.close()
        return self.proc.returncode

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.wait()

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            try:
                os.waitpid(self.proc.pid, 0)
            except ChildProcessError:
                pass
            self.proc.returncode = -signal.SIGKILL
        if not self.proc.stdout.closed:
            self.proc.stdout.close()


def reference_chunks(reference: Reference) -> float:
    """Mean CPU seconds of ``WIRE_REF_CHUNKS`` reference chunks."""
    return sum(reference.chunk() for _ in range(WIRE_REF_CHUNKS)) / WIRE_REF_CHUNKS


def serve_session(workload: str, seed: int, scratch: Path, tag: str, trace: bool,
                  seconds: float, ladder: bool, reference: Reference) -> dict:
    """Start a server, load it, read its stats, drain it; return raw figures.

    Just before and after the server starts, and after each fixed-rate
    segment, the client runs reference chunks while the server is idle:
    the first two sets scale the set-up time, the others the fixed
    phase's throughput.
    """
    spec = WIRE[workload]
    before_s = reference_chunks(reference)
    server = Server(workload, seed, scratch, tag, trace)
    client = None
    seg_cpu: list[float] = []
    seg_ref: list[float] = []
    try:
        setup_ref_s = (before_s + reference_chunks(reference)) / 2
        client = WireClient("127.0.0.1", server.port, CONNECTIONS, seed)
        cpu0 = server.cpu_s()
        warm = client.run_phase(*spec["warmup"])
        cpu1 = server.cpu_s()
        seg_n = int(spec["fixed_rate"] * SEGMENT_S)
        segments = []
        for _ in range(max(1, round(seconds * FIXED_SHARE / SEGMENT_S))):
            start = server.cpu_s()
            segments.append(client.run_phase(seg_n, spec["fixed_rate"]))
            seg_cpu.append(server.cpu_s() - start)
            seg_ref.append(reference_chunks(reference))
        rungs = []
        if ladder:
            for rate in spec["ladder"]:
                time.sleep(RUNG_PAUSE_S)
                phase = client.run_phase(int(rate * RUNG_S), rate)
                p99 = percentile(phase.latencies_ms(), 99)
                rungs.append((rate, p99))
                log(f"  rung {rate:>6.0f}/s: p99 {p99:8.2f} ms")
                if p99 > LIMIT_MS:
                    break
        stats = client.stats()
        client.shutdown()
        code = server.wait()
    finally:
        if client is not None:
            client.close()
        server.kill()
    return {
        "setup_s": server.setup_s, "setup_ref_s": setup_ref_s,
        "warm": warm, "segments": segments,
        "rungs": rungs, "stats": stats, "exit": code,
        "wrong_reads": client.wrong_reads,
        "rss_mb": server.rusage.ru_maxrss / 1024.0,
        "cpu_warm_s": cpu1 - cpu0, "cpu_fixed_s": sum(seg_cpu),
        "ref_s": sum(seg_ref) / len(seg_ref),
        "layers": load_json(server.layers_file) if trace else {},
    }


def wire_checks(run: Run, workload: str, session: dict) -> None:
    """Server exit, read values, the server's books, shard padding and
    the generator's schedule; count requests toward attempted/failed."""
    if session["exit"] != 0:
        run.problems.append(f"server exited {session['exit']} after shutdown")
    if session["wrong_reads"]:
        run.problems.append(f"{session['wrong_reads']} reads returned a wrong value")
    stats = session["stats"]
    run.check(check_serve_accounting(stats["counters"]), "serve accounting")
    if workload == "wire-shards":
        run.check(check_shard_padding(stats["shards"]), "shard padding")
    segments = session["segments"]
    late = [x for p in segments for x in p.lateness_ms()]
    session["late_p99_ms"] = percentile(late, 99)
    if percentile(late, 50) > GEN_LATE_P50_LIMIT_MS:
        run.problems.append(f"generator fell behind: median lateness "
                            f"{percentile(late, 50):.1f} ms")
    counted = [session["warm"], *segments]
    run.attempted += sum(len(p.due) for p in counted)
    run.failed += sum(p.failed for p in counted)
    session["p50_ms"] = median([percentile(p.latencies_ms(), 50) for p in segments])
    session["p99_ms"] = median([percentile(p.latencies_ms(), 99) for p in segments])
    session["fixed_n"] = sum(len(p.due) for p in segments)
    session["fixed_ok"] = session["fixed_n"] - sum(p.failed for p in segments)


def wire_run(workload: str, seed: int, seconds: float, scratch: Path) -> Run:
    run = Run()
    reference = Reference()
    setups = []
    scaled_setups = []
    for k in range(SERVER_SETUPS - 1):
        before_s = reference_chunks(reference)
        server = Server(workload, seed, scratch, f"setup{k}", trace=False)
        try:
            chunk_s = (before_s + reference_chunks(reference)) / 2
        finally:
            server.stop()
        setups.append(server.setup_s)
        scaled_setups.append(server.setup_s / slowdown(chunk_s))
    session = serve_session(workload, seed, scratch, "run", False, seconds,
                            ladder=False, reference=reference)
    setups.append(session["setup_s"])
    scaled_setups.append(session["setup_s"] / slowdown(session["setup_ref_s"]))
    wire_checks(run, workload, session)
    run.metrics = {
        "setup_s": median(scaled_setups),
        "peak_rss_mb": session["rss_mb"],
        "ops_per_s": (session["fixed_n"] / session["cpu_fixed_s"]
                      * slowdown(session["ref_s"])),
        "ok_rate": session["fixed_ok"] / session["fixed_n"],
    }
    log(f"  before scaling: setups {[round(s, 3) for s in setups]} s; fixed phase "
        f"{1e6 * session['cpu_fixed_s'] / session['fixed_n']:.0f} us server CPU per "
        f"request; reference chunk {1e3 * session['ref_s']:.2f} ms; wall p50 "
        f"{session['p50_ms']:.2f} ms, p99 {session['p99_ms']:.2f} ms; "
        f"generator lateness p99 {session['late_p99_ms']:.2f} ms")
    return run


def wire_traced(workload: str, seed: int, seconds: float, scratch: Path,
                names: list[str]) -> Run:
    run = Run()
    reference = Reference()
    plain = serve_session(workload, seed, scratch, "plain", False, seconds / 2,
                          ladder=True, reference=reference)
    traced = serve_session(workload, seed, scratch, "traced", True, seconds / 2,
                           ladder=False, reference=reference)
    for session in (plain, traced):
        wire_checks(run, workload, session)
    layers = traced["layers"]
    calls = {n: c for n, (c, _s) in layers.items()}
    run.check_wrappers(workload, calls)

    def cpu_us_per_req(session: dict) -> float:
        served = len(session["warm"].due) + session["fixed_n"]
        return (session["cpu_warm_s"] + session["cpu_fixed_s"]) / served * 1e6

    served = len(traced["warm"].due) + traced["fixed_n"]

    def us(name: str) -> float:
        return layers.get(name, (0, 0.0))[1] / served * 1e6

    cpu_us = cpu_us_per_req(traced)
    wrapped = sum(us(n) for n in ("serve.protocol", "serve.bridge", "shard.round",
                                  "shard.slot", "shard.intent_append"))
    counters = traced["stats"]["counters"]
    m = dict.fromkeys(names, 0.0)
    m.update({
        "oram.build_s": layers.get("oram.build", (0, 0.0))[1],
        "serve.protocol_us": us("serve.protocol"),
        "serve.bridge_us": us("serve.bridge"),
        "serve.cpu_us_per_req": cpu_us,
        "serve.loop_us": cpu_us - wrapped,
        "serve.queue_high_water": traced["stats"]["queue"]["high_water"],
        "serve.shed": counters.get("serve/shed", 0),
        "serve.expired": counters.get("serve/expired", 0),
        "serve.p50_ms": plain["p50_ms"],
        "serve.p99_ms": plain["p99_ms"],
        "serve.max_rps": interpolate_max_rps(plain["rungs"], LIMIT_MS),
        "serve.gen_late_p99_ms": plain["late_p99_ms"],
        "bench.trace_overhead": ((cpu_us / slowdown(traced["ref_s"]))
                                 / (cpu_us_per_req(plain) / slowdown(plain["ref_s"]))),
        "bench.ops_per_cpu_s": plain["fixed_n"] / plain["cpu_fixed_s"],
        "bench.setup_wall_s": plain["setup_s"],
        "bench.ref_ms": 1e3 * plain["ref_s"],
    })
    if workload == "wire-shards":
        dummy = sum(int(s["dummy"]) for s in traced["stats"]["shards"])
        m.update({
            "shard.round_self_us": us("shard.round"),
            "shard.slot_us": us("shard.slot"),
            "shard.intent_append_us": us("shard.intent_append"),
            "shard.hop_us": cpu_us - wrapped,
            "shard.padding_ratio": dummy / max(1, calls.get("shard.round", 0)),
        })
    run.metrics = m
    log(f"  traced server CPU {cpu_us:.0f} us/request = wrapped layers {wrapped:.0f} us "
        f"+ loop remainder {cpu_us - wrapped:.0f} us; untraced "
        f"{cpu_us_per_req(plain):.0f} us")
    for name, (count, spent) in sorted(layers.items(), key=lambda kv: -kv[1][1]):
        if name != "oram.build":
            log(f"    {name:22s} {spent * 1e6 / served:8.1f} us/req  {count:>9,d} calls")
    return run


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SIM_REQUESTS, *WIRE])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    expected = load_json(HERE / "expected.json")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [entry["name"] for entry in declared]
    scratch = ROOT / ".perfbench-tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in SIM_REQUESTS:
            run = (sim_traced(args.workload, args.seed, expected, names) if args.trace
                   else sim_run(args.workload, args.seed, args.seconds, expected))
        elif args.trace:
            run = wire_traced(args.workload, args.seed, args.seconds, scratch, names)
        else:
            run = wire_run(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    for problem in run.problems:
        log(f"CHECK FAILED: {problem}")
    print(json.dumps(run.result(declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
