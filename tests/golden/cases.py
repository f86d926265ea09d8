"""Golden-corpus cases: what each digest covers and how it is computed.

A golden case is one deterministic run reduced to a few SHA-256 digests.
``digests.json`` holds the committed values; ``test_golden.py``
recomputes every case and compares field by field, and ``regenerate.py``
rewrites the file.  A digest only changes when behaviour does, so a
refactor that claims to be behaviour-preserving must leave the file
untouched.

Simulation cases run :func:`repro.simulate` once with a span tracer and
an adversary observer attached (traced and untraced runs are identical,
see ``tests/system/test_span_determinism.py``) and digest

* ``result``: the :class:`~repro.system.metrics.SimulationResult`,
* ``adversary``: every ``(kind, leaf, time)`` path access on the bus,
* ``spans``: every span tree in the simulated-cycle clock (host wall
  clock fields stripped),
* ``duplications``: every :class:`~repro.obs.events.DuplicationPlaced`
  event, in emission order,
* ``merkle_root`` (integrity cases only): the hex of the controller's
  trusted Merkle root at the end of the run.

The recovery case runs ``static-4`` with integrity under the ``recover``
policy (L=8, sparse background scrub) on mcf while a seeded plan flips
bits in tree-resident blocks, wired like
``tests/integration/test_self_healing.py``.  It digests the result, the
:class:`~repro.obs.events.CorruptionDetected` /
:class:`~repro.obs.events.BlockRecovered` stream (with recovery sources),
the :class:`~repro.oram.recovery.RecoveryStats` and the final Merkle
root.

Ring ORAM cases drive :class:`~repro.oram.ring.RingOramController`
directly on the hot read workload of ``tests/oram/test_ring.py`` and
digest every :class:`~repro.oram.tiny.AccessResult`, the adversary
trace, the span trees, and the final tree, stash, position map,
``stats_*`` counters and RNG state.

The serve case drives one
:class:`~repro.serve.scheduler_bridge.OramServeBridge` (dynamic-3,
default geometry) through a seeded access sequence and digests every
:class:`~repro.serve.scheduler_bridge.ServedAccess` plus the final
``state_digest()``, which covers the controller snapshot: tree, stash
FIFO order, position map, RNG, hot cache and the Rule-2 source level of
every stashed shadow.  The shard case drives a 4-shard in-process
:class:`~repro.shard.supervisor.ShardSupervisor` (snapshots off)
through seeded rounds and digests the served accesses, the padded
``(round, shard)`` dispatch trace, the fleet ``state_digest()`` and the
bytes of the four ``shard-<k>/intents.log`` files read after
``close()``: the on-disk log that ``--restore`` replays must stay
readable across versions.

Baseline cases digest the same four fields as the simulation cases (no
``merkle_root``) for the baselines and comparators of Figs. 11 and
16-18 on h264ref, built as ``benchmarks/_support.make_config`` builds
them (L=14, utilization 0.25): the insecure DRAM backend, Tiny with
treetop-3, Tiny and dynamic-3 each with treetop-7, and Tiny with XOR
compression, all four under timing protection, and dynamic-3 on the
4-core O3 CPU under timing protection.

Metrics cases pin every counter, gauge and histogram of
:meth:`MetricsCollector.to_dict() <repro.obs.metrics.MetricsCollector.to_dict>`
as exact values, one field per instrument (``counters/<name>``,
``gauges/<name>``, ``histograms/<name>``), so a failure names the
instrument that moved: the default ``repro run`` configuration
(dynamic-3, h264ref, 20,000 requests, L=14), dynamic-3 on mcf (L=8,
timing protection at 800 cycles, 4,000 requests), static-4 on mcf (L=10,
integrity, timing protection at 800 cycles, 4,000 requests) and Tiny
with treetop-3 under timing protection on h264ref (10,000 requests), the
one scheme that serves from the treetop.  All run with seed 1.

Counter cases pin exact counter values rather than digests, so a
failure names the counter that moved.  ``counters/dynamic-3-L10/mcf``
runs dynamic-3 on mcf (L=10, 2,000 requests, seed 1) under a
:class:`~repro.obs.metrics.MetricsCollector` and pins its
``requests/*`` and ``served/*`` counters.  ``counters/fleet-x4-L8/tenants``
drives a 4-shard in-process fleet (dynamic-3, L=8, snapshots off) with
2,000 ``tenants`` requests and pins the ``fleet/*`` rollups; a recovery
is bit-identical by design, so ``fleet/recoveries`` can move while every
other digest holds still.
"""

from __future__ import annotations

from dataclasses import asdict
from hashlib import sha256
from pathlib import Path
from random import Random
from tempfile import TemporaryDirectory

from repro.cpu.core import CpuConfig
from repro.faults.injector import FaultPlan
from repro.mem.dram import DramConfig
from repro.obs.events import (
    BlockRecovered,
    CorruptionDetected,
    DuplicationPlaced,
    EventBus,
)
from repro.obs.metrics import MetricsCollector, MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.oram.config import OramConfig
from repro.oram.ring import RingConfig, RingOramController
from repro.security.adversary import AccessPatternObserver
from repro.serialize import canonical_json, dataclass_to_dict, stable_hash
from repro.serve.scheduler_bridge import OramServeBridge
from repro.shard.supervisor import ShardSettings, ShardSupervisor
from repro.system.config import SystemConfig, named_config
from repro.system.simulator import simulate
from repro.workloads.spec import get_workload

SIM_REQUESTS = 10_000
SIM_WORKLOADS = ("h264ref", "mcf")


def _sim_configs() -> dict[str, SystemConfig]:
    """Scheme configurations at the default geometry (L=14)."""
    secure = SystemConfig.static(4, oram=OramConfig(integrity=True))
    return {
        "tiny": SystemConfig.tiny(),
        "rd-dup": SystemConfig.rd_dup(),
        "hd-dup": SystemConfig.hd_dup(),
        "static-4": SystemConfig.static(4),
        "dynamic-3": SystemConfig.dynamic(3),
        "dynamic-3-tp800": SystemConfig.dynamic(3).with_timing_protection(800.0),
        "static-4-integrity-tp800": secure.with_timing_protection(800.0),
    }


def _figure_config(
    scheme: str, tp: bool = False, treetop: int = 0, xor: bool = False,
    o3: bool = False,
) -> SystemConfig:
    """A figure-suite configuration, built as
    ``benchmarks/_support.make_config`` builds it."""
    oram = OramConfig(levels=14, utilization=0.25, treetop_levels=treetop,
                      xor_compression=xor)
    config = named_config(scheme, oram=oram)
    if xor:
        config = config.with_(name=f"{config.name}+XOR")
    if treetop:
        config = config.with_(name=f"{config.name}+Treetop-{treetop}")
    if tp:
        config = config.with_timing_protection()
    if o3:
        config = config.with_(cpu=CpuConfig.out_of_order(cores=4))
    return config


def _baseline_configs() -> dict[str, SystemConfig]:
    """The baselines and comparators of Figs. 11 and 16-18."""
    return {
        "insecure": _figure_config("insecure"),
        "tiny-treetop-3-tp800": _figure_config("tiny", tp=True, treetop=3),
        "tiny-treetop-7-tp800": _figure_config("tiny", tp=True, treetop=7),
        "dynamic-3-treetop-7-tp800": _figure_config(
            "dynamic-3", tp=True, treetop=7
        ),
        "tiny-xor-tp800": _figure_config("tiny", tp=True, xor=True),
        "dynamic-3-o3-tp800": _figure_config("dynamic-3", tp=True, o3=True),
    }


SIM_CASES = {
    f"{scheme}/{workload}": (scheme, workload)
    for scheme in _sim_configs()
    for workload in SIM_WORKLOADS
}
SIM_CASES.update(
    {f"{scheme}/h264ref": (scheme, "h264ref") for scheme in _baseline_configs()}
)


def _metrics_runs() -> dict[str, tuple[SystemConfig, str, int]]:
    """``(config, workload, requests)`` of each metrics case."""
    return {
        "metrics/dynamic-3/h264ref": (SystemConfig.dynamic(3), "h264ref", 20_000),
        "metrics/dynamic-3-L8-tp800/mcf": (
            SystemConfig.dynamic(3, oram=OramConfig(levels=8))
            .with_timing_protection(800.0),
            "mcf", 4_000,
        ),
        "metrics/static-4-L10-integrity-tp800/mcf": (
            SystemConfig.static(4, oram=OramConfig(levels=10, integrity=True))
            .with_timing_protection(800.0),
            "mcf", 4_000,
        ),
        "metrics/tiny-treetop-3-tp800/h264ref": (
            _figure_config("tiny", tp=True, treetop=3), "h264ref", 10_000,
        ),
    }


METRICS_CASES = tuple(_metrics_runs())

RECOVER_CASES = {"static-4-integrity-recover/mcf": "mcf"}
RECOVER_REQUESTS = 20_000
# Access ordinals of the injected flips (the L=8 run serves 64 misses).
# With fault seed 7 the background scrub (every 12 accesses) and the
# demand-path check both heal some of them, from the directory, a stash
# shadow and a path duplicate.
RECOVER_FLIPS = (2, 5, 6, 13, 21, 34, 47, 55)

RING_CASES = {
    f"ring/shadows-{'on' if shadows else 'off'}/{'dram' if dram else 'functional'}": (
        shadows, dram
    )
    for shadows in (False, True)
    for dram in (False, True)
}

# Bridge accesses and fleet rounds: seeded addresses over the first
# SERVE_RANGE blocks, about 10% writes.
SERVE_CASES = {"serve/dynamic-3": 3_000, "shard/dynamic-3-x4": 500}
SERVE_RANGE = 2_000

# Exact counters: (workload, levels) per case, seed 1.
COUNTER_CASES = {
    "counters/dynamic-3-L10/mcf": ("mcf", 10),
    "counters/fleet-x4-L8/tenants": ("tenants", 8),
}
COUNTER_REQUESTS = 2_000
SIM_COUNTERS = (
    "requests/data", "requests/real_oram", "served/onchip", "served/path",
    "served/shadow_path", "served/shadow_stash",
)
FLEET_COUNTERS = (
    "fleet/rounds", "fleet/accesses_real", "fleet/accesses_dummy",
    "fleet/recoveries",
)


def _strip_wall(span: dict) -> dict:
    out = {k: v for k, v in span.items() if k not in ("wall_start", "wall_end")}
    if "children" in out:
        out["children"] = [_strip_wall(child) for child in out["children"]]
    return out


def _trees_digest(tracer: SpanTracer) -> str:
    digest = sha256()
    for trace in tracer.traces:
        tree = trace.to_dict()
        tree["root"] = _strip_wall(tree["root"])
        digest.update(canonical_json(tree).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _traced_bus() -> tuple[EventBus, SpanTracer, list]:
    bus = EventBus()
    tracer = SpanTracer(bus)
    duplications: list = []
    bus.subscribe(
        lambda event: duplications.append(asdict(event)), DuplicationPlaced
    )
    return bus, tracer, duplications


def _capturing_filter(captured: dict, wrap=None):
    """Backend filter that records the ORAM controller it was handed."""

    def filt(backend):
        if wrap is not None:
            backend = wrap(backend)
        captured["controller"] = getattr(backend, "controller", None)
        return backend

    return filt


def run_sim_case(name: str) -> dict[str, str]:
    """Digests of one traced simulation or baseline case."""
    scheme, workload = SIM_CASES[name]
    config = {**_sim_configs(), **_baseline_configs()}[scheme]
    bus, tracer, duplications = _traced_bus()
    observer = AccessPatternObserver()
    captured: dict = {}
    result = simulate(
        config, workload, num_requests=SIM_REQUESTS,
        bus=bus, observer=observer, backend_filter=_capturing_filter(captured),
    )
    out = {
        "result": stable_hash(result.to_dict()),
        "adversary": stable_hash(observer.events),
        "spans": _trees_digest(tracer),
        "duplications": stable_hash(duplications),
    }
    # The insecure backend has no controller.
    integrity = getattr(captured["controller"], "integrity", None)
    if integrity is not None:
        out["merkle_root"] = integrity.root.hex()
    return out


def run_metrics_case(name: str) -> dict[str, object]:
    """Every instrument a :class:`MetricsCollector` exports for one run."""
    config, workload, requests = _metrics_runs()[name]
    bus = EventBus()
    collector = MetricsCollector(bus)
    simulate(config, workload, num_requests=requests, seed=1, bus=bus)
    return {
        f"{kind}/{instrument}": value
        for kind, instruments in collector.to_dict().items()
        for instrument, value in instruments.items()
    }


def run_recover_case(name: str) -> dict[str, str]:
    """Digests of one bit-flip run healed by the ``recover`` policy."""
    workload = RECOVER_CASES[name]
    oram = OramConfig(levels=8, integrity=True, recovery="recover",
                      scrub_interval=12)
    config = SystemConfig.static(4, oram=oram).with_(seed=1)
    plan = FaultPlan.parse(
        [f"bit-flip:at_access={at}" for at in RECOVER_FLIPS], seed=7
    )
    injector = plan.injector()
    captured: dict = {}
    bus = EventBus()
    events: list = []
    bus.subscribe(
        lambda event: events.append((type(event).__name__, asdict(event))),
        CorruptionDetected, BlockRecovered,
    )
    result = simulate(
        config, workload, num_requests=RECOVER_REQUESTS, seed=1, bus=bus,
        backend_filter=_capturing_filter(captured, injector.backend_filter()),
    )
    controller = captured["controller"]
    assert len(injector.fired()) == len(RECOVER_FLIPS)
    return {
        "result": stable_hash(result.to_dict()),
        "recovery_events": stable_hash(events),
        "recovery_stats": stable_hash(
            dataclass_to_dict(controller.recovery.stats)
        ),
        "merkle_root": controller.integrity.root.hex(),
    }


def run_ring_case(name: str) -> dict[str, str]:
    """Digests of one Ring ORAM run on the hot read workload."""
    shadows, dram = RING_CASES[name]
    bus, tracer, _duplications = _traced_bus()
    observer = AccessPatternObserver()
    ctl = RingOramController(
        RingConfig(levels=6, enable_shadows=shadows), Random(11),
        dram_config=DramConfig() if dram else None,
        observer=observer, bus=bus,
    )
    rng = Random(12)
    hot = list(range(10))
    results = []
    now = 0.0
    for _ in range(1200):
        addr = hot[rng.randrange(10)] if rng.random() < 0.6 else (
            rng.randrange(ctl.num_blocks)
        )
        result = ctl.access(addr, "read", now=now)
        results.append(asdict(result))
        now = result.finish + 50
    rng_state = ctl.rng.getstate()
    stats = {
        attr: value for attr, value in vars(ctl).items()
        if attr.startswith("stats_")
    }
    return {
        "results": stable_hash(results),
        "adversary": stable_hash(observer.events),
        "spans": _trees_digest(tracer),
        "tree": stable_hash(ctl.tree.snapshot_state()),
        "stash": stable_hash(ctl.stash.snapshot_state()),
        "posmap": stable_hash(ctl.posmap.snapshot_state()),
        "stats": stable_hash(stats),
        "rng": stable_hash([rng_state[0], list(rng_state[1]), rng_state[2]]),
    }


def _drive_served(frontend, accesses: int) -> str:
    """Apply the seeded serve sequence; digest what every access served."""
    rng = Random(21)
    served = []
    for i in range(accesses):
        addr = rng.randrange(SERVE_RANGE)
        if rng.random() < 0.1:
            out = frontend.access(addr, "write", f"v{i}")
        else:
            out = frontend.access(addr, "read")
        served.append(asdict(out))
    return stable_hash(served)


def run_serve_case(name: str) -> dict[str, str]:
    """Digests of one bridge or shard-fleet run on the serve sequence."""
    accesses = SERVE_CASES[name]
    config = SystemConfig.dynamic(3)
    if name.startswith("serve/"):
        bridge = OramServeBridge(config, seed=5)
        served = _drive_served(bridge, accesses)
        return {"served": served, "state": bridge.state_digest()}
    dispatch: list = []
    with TemporaryDirectory() as state_dir:
        fleet = ShardSupervisor(
            config, seed=5, state_dir=state_dir,
            settings=ShardSettings(num_shards=4, checkpoint_every=0),
            trace=dispatch.append,
        )
        fleet.start()
        try:
            served = _drive_served(fleet, accesses)
            state = fleet.state_digest()
        finally:
            fleet.close()
        logs = sha256()
        for k in range(fleet.settings.num_shards):
            log = Path(state_dir) / f"shard-{k}" / "intents.log"
            logs.update(log.read_bytes())
    return {
        "served": served,
        "dispatch": stable_hash(dispatch),
        "state": state,
        "intents": logs.hexdigest(),
    }


def run_counter_case(name: str) -> dict[str, int]:
    """Exact counters of one simulation or in-process fleet run."""
    workload, levels = COUNTER_CASES[name]
    config = SystemConfig.dynamic(3, oram=OramConfig(levels=levels))
    if not name.startswith("counters/fleet"):
        bus = EventBus()
        collector = MetricsCollector(bus)
        simulate(config, workload, num_requests=COUNTER_REQUESTS, seed=1,
                 bus=bus)
        return {n: collector.registry.counter(n).value for n in SIM_COUNTERS}
    with TemporaryDirectory() as state_dir:
        fleet = ShardSupervisor(
            config, seed=1, state_dir=state_dir,
            settings=ShardSettings(num_shards=4, mode="inproc",
                                   checkpoint_every=0),
        )
        fleet.start()
        try:
            for req in get_workload(workload).requests(
                1, COUNTER_REQUESTS, fleet.num_blocks
            ):
                fleet.access(req.addr, req.op,
                             req.addr if req.op == "write" else None)
        finally:
            fleet.close()
    registry = MetricsRegistry()
    fleet.export_metrics(registry)
    return {n: registry.counter(n).value for n in FLEET_COUNTERS}


def run_case(name: str) -> dict[str, object]:
    if name in COUNTER_CASES:
        return run_counter_case(name)
    if name in METRICS_CASES:
        return run_metrics_case(name)
    if name in SIM_CASES:
        return run_sim_case(name)
    if name in RECOVER_CASES:
        return run_recover_case(name)
    if name in SERVE_CASES:
        return run_serve_case(name)
    return run_ring_case(name)


ALL_CASES = [
    *SIM_CASES, *RECOVER_CASES, *RING_CASES, *SERVE_CASES, *COUNTER_CASES,
    *METRICS_CASES,
]
