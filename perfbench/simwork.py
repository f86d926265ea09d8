"""One simulation unit of a ``sim-*`` workload, in a fresh process.

Usage: ``python3 perfbench/simwork.py WORKLOAD SEED REQUESTS TRACE REF_EVERY
[CHECK_SEED CHECK_REQUESTS]``, from the root of a checkout.  Prints one JSON
object.

A fresh process per unit means imports, trace build (``build_miss_trace``
is ``lru_cache``d per process) and tree/Merkle build are all paid inside
``setup_s``, which runs from the top of this file to the first timed miss.
The miss loop is timed through the simulator's public ``backend_filter``
seam: a pass-through backend that stamps the first served miss and
counts misses and writebacks for the served-sources check.  With
``REF_EVERY`` > 0 it also runs one chunk of ``reference.py`` after every
``REF_EVERY`` misses; the time those chunks take is left out of the
loop's times and reported as ``ref_s``, the mean CPU seconds of a chunk.
"""

from time import perf_counter, process_time

PROCESS_START = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import SIM_SEAMS, LayerClock, install  # noqa: E402
from reference import Reference  # noqa: E402
from stats import check_sim_sources  # noqa: E402


def build_config(workload: str):
    from repro import OramConfig, SystemConfig

    if workload == "sim-dup":
        return SystemConfig.dynamic(3), "h264ref"
    if workload == "sim-secure":
        config = SystemConfig.static(4, oram=OramConfig(integrity=True))
        return config.with_timing_protection(800.0), "mcf"
    raise SystemExit(f"unknown simulation workload {workload!r}")


class MissProbe:
    """Pass-through backend that stamps the first miss and counts the rest.

    ``on_first`` runs just before the first miss is served.  With
    ``ref_every`` > 0 a reference chunk runs after every ``ref_every``
    misses; ``ref_cpu``/``ref_wall`` hold all the time spent on them,
    the reference build included.
    """

    def __init__(self, on_first=None, ref_every: int = 0) -> None:
        self.on_first = on_first
        self.ref_every = ref_every
        self.reference = None
        self.ref_chunks: list[float] = []
        self.ref_cpu = 0.0
        self.ref_wall = 0.0
        self.inner = None
        self.first = None
        self.first_cpu = None
        self.misses = 0
        self.writebacks = 0

    def __call__(self, backend):
        self.inner = backend
        return self

    @property
    def controller(self):
        return self.inner.controller

    def serve(self, miss, ready):
        if self.first is None:
            if self.on_first is not None:
                self.on_first()
            self.first = perf_counter()
            self.first_cpu = process_time()
        self.misses += 1
        if self.ref_every and self.misses % self.ref_every == 0:
            self.run_reference()
        return self.inner.serve(miss, ready)

    def run_reference(self) -> None:
        c0, w0 = process_time(), perf_counter()
        if self.reference is None:
            self.reference = Reference()
        self.ref_chunks.append(self.reference.chunk())
        self.ref_cpu += process_time() - c0
        self.ref_wall += perf_counter() - w0

    def writeback(self, addr, now):
        self.writebacks += 1
        return self.inner.writeback(addr, now)

    def finalize(self, *args):
        return self.inner.finalize(*args)


def run_unit(workload: str, seed: int, requests: int, clock=None,
             ref_every: int = 0) -> dict:
    from repro import simulate
    from repro.serialize import stable_hash

    config, trace_name = build_config(workload)
    # With a clock, split the layer totals into set-up and miss-loop parts
    # at the first served miss.
    at_first: dict = {}
    probe = MissProbe(None if clock is None else lambda: at_first.update(clock.totals()),
                      ref_every)
    result = simulate(config, trace_name, num_requests=requests, seed=seed,
                      backend_filter=probe)
    end = perf_counter()
    cpu_end = process_time()
    as_dict = result.to_dict()
    unit = {
        "setup_s": probe.first - PROCESS_START,
        "loop_s": end - probe.first - probe.ref_wall,
        "cpu_s": cpu_end - probe.first_cpu - probe.ref_cpu,
        "ref_s": (sum(probe.ref_chunks) / len(probe.ref_chunks)
                  if probe.ref_chunks else None),
        "misses": result.llc_misses,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": result.total_cycles,
        "digest": stable_hash(as_dict),
        "problems": check_sim_sources(as_dict, probe.misses, probe.writebacks),
        "result": {k: as_dict[k] for k in (
            "llc_misses", "real_requests", "dummy_requests", "stash_peak")},
        "oram_stats": as_dict["oram_stats"],
        "shadow_stats": as_dict["shadow_stats"],
    }
    if clock is not None:
        totals = clock.totals()
        unit["layers_setup"] = at_first
        unit["layers_loop"] = {
            name: (calls - at_first.get(name, (0, 0.0))[0],
                   secs - at_first.get(name, (0, 0.0))[1])
            for name, (calls, secs) in totals.items()
        }
    return unit


def main(argv: list[str]) -> None:
    workload, seed, requests, trace, ref_every = argv[:5]
    clock = None
    if trace == "1":
        clock = LayerClock()
        install(clock, SIM_SEAMS)
    unit = run_unit(workload, int(seed), int(requests), clock, int(ref_every))
    if len(argv) > 5:
        from repro import simulate
        from repro.serialize import stable_hash

        config, trace_name = build_config(workload)
        check = simulate(config, trace_name, num_requests=int(argv[6]),
                         seed=int(argv[5]))
        unit["check"] = {"sim_cycles": check.total_cycles,
                         "digest": stable_hash(check.to_dict())}
    print(json.dumps(unit))


if __name__ == "__main__":
    main(sys.argv[1:])
