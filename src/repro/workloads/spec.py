"""Synthetic stand-ins for the paper's ten SPEC CPU2006 workloads.

Each generator reproduces the *memory behaviour* that drives the paper's
results for that benchmark (DESIGN.md substitution 2):

==============  =====================================================
mcf             huge pointer-chasing working set; highest memory
                intensity (largest slowdowns in Figures 11/15)
libquantum      long sequential array sweeps; streaming, memory-bound
omnetpp         pointer-heavy event queues over a large heap plus a
                conflict-thrashed event-table column
hmmer           periodic phase alternation between a compute-heavy hot
                phase and a scan phase (the Figure 6 case study)
sjeng           low-locality scattered lookups (hash probing); long
                DRIs, prefers RD-Dup (Figure 9)
h264ref         reference-frame column walks: a small conflict set that
                keeps missing; prefers HD-Dup (Figure 9)
namd            small mostly-cache-resident working set; few misses,
                dominated by a small spill set
astar           dependent graph walks over a medium working set
bzip2           block-wise streaming with local reuse
gcc             mixed pointer/stream behaviour over a medium heap
==============  =====================================================

Calibration targets (measured against the Table-I cache hierarchy): LLC
miss gaps of roughly 100-400 cycles for the memory-bound trio, 400-1500
for the medium group and >1500 for namd — the regime of Figure 6(a) —
with per-benchmark miss rates between ~2% and ~35%.

Regions are sized relative to the ORAM address space so the same workload
scales with tree depth in the Figure 19 sweep.
"""

from __future__ import annotations

from random import Random

from repro.cpu.trace import MemoryRequest
from repro.workloads.generator import (
    Workload,
    conflict_walk,
    hot_cold,
    phases,
    pointer_chase,
    stream,
    tenant_mix,
    zipf,
)

# The scaled experiment LLC (CacheConfig.scaled) holds 1024 lines in 128
# sets; workload regions are sized against it so working sets overflow the
# cache while still re-visiting ORAM paths at paper-like distances.
_LLC_LINES = 1024
_LLC_SETS = 128


def _region(address_space: int, fraction: float, minimum: int = 64) -> int:
    return max(minimum, min(address_space, int(address_space * fraction)))


def _mcf(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    region = _region(space, 0.075)
    out = []
    chunk = 300
    while len(out) < n:
        out.extend(pointer_chase(rng, chunk, 0, region, work=15, write_frac=0.08))
        # Node payload processing: revisits of just-fetched lines that hit.
        out.extend(
            hot_cold(rng, 2 * chunk, 0, region, hot_blocks=max(32, _LLC_SETS // 2),
                     hot_frac=0.97, work=10, write_frac=0.08)
        )
    return out[:n]


def _libquantum(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    region = _region(space, 0.1)
    return stream(rng, n, 0, region, stride=1, work=14, write_frac=0.3, repeats=6)


def _omnetpp(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    heap = _region(space, 0.06)
    out = []
    chunk = 256
    while len(out) < n:
        out.extend(pointer_chase(rng, chunk, 0, heap, work=16, write_frac=0.2))
        out.extend(
            hot_cold(rng, 2 * chunk, 0, heap, hot_blocks=max(32, _LLC_SETS // 2),
                     hot_frac=0.98, work=12, write_frac=0.2)
        )
        out.extend(
            conflict_walk(rng, chunk // 4, 0, heap, set_stride=_LLC_SETS,
                          groups=2, footprint=16, work=14, write_frac=0.2)
        )
    return out[:n]


def _hmmer(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    scan_region = _region(space, 0.08)

    def scan_phase(r: Random, count: int, _off: int) -> list[MemoryRequest]:
        return stream(r, count, 0, scan_region, work=18, write_frac=0.1, repeats=4)

    def compute_phase(r: Random, count: int, _off: int) -> list[MemoryRequest]:
        # Mostly cache-resident profile tables with an occasional spill.
        return hot_cold(
            r, count, 0, scan_region, hot_blocks=max(64, _LLC_LINES // 2),
            hot_frac=0.96, work=32, write_frac=0.1, dependent=False,
        )

    return phases(rng, n, [(0.5, scan_phase), (0.5, compute_phase)])


def _sjeng(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    table = _region(space, 0.2)
    return hot_cold(
        rng, n, 0, table, hot_blocks=max(64, _LLC_LINES // 2),
        hot_frac=0.88, work=95, write_frac=0.25, dependent=True,
    )


def _h264ref(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    frames = _region(space, 0.08)
    out = []
    chunk = 128
    while len(out) < n:
        # Column walks over reference frames: small conflict set, misses
        # repeatedly despite heavy reuse -> prime HD-Dup territory.
        out.extend(
            conflict_walk(rng, chunk, 0, frames, set_stride=_LLC_SETS,
                          groups=3, footprint=16, work=40, write_frac=0.25,
                          dependent=False)
        )
        # Macroblock neighbourhood work that mostly hits in cache.
        out.extend(
            hot_cold(rng, 5 * chunk, 0, frames, hot_blocks=max(64, _LLC_LINES // 2),
                     hot_frac=0.99, work=28, write_frac=0.3, dependent=False)
        )
    return out[:n]


def _namd(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    region = _region(space, 0.05)
    out = []
    chunk = 1024
    while len(out) < n:
        # Cache-resident force computation...
        out.extend(
            hot_cold(rng, chunk, 0, region, hot_blocks=max(32, _LLC_SETS // 2),
                     hot_frac=0.995, work=90, write_frac=0.1, dependent=False)
        )
        # ...plus a small neighbour-list spill set that keeps missing.
        out.extend(
            conflict_walk(rng, chunk // 10, 0, region, set_stride=_LLC_SETS,
                          groups=2, footprint=12, work=80, write_frac=0.1,
                          dependent=False)
        )
    return out[:n]


def _astar(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    graph = _region(space, 0.06)
    out = []
    chunk = 256
    while len(out) < n:
        out.extend(pointer_chase(rng, chunk, 0, graph, work=60, write_frac=0.15))
        out.extend(
            hot_cold(rng, 3 * chunk, 0, graph, hot_blocks=max(64, _LLC_LINES // 2),
                     hot_frac=0.985, work=35, write_frac=0.15)
        )
    return out[:n]


def _bzip2(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    data = _region(space, 0.09)
    out = []
    chunk = 1024
    while len(out) < n:
        out.extend(stream(rng, chunk, 0, data, work=24, write_frac=0.4, repeats=5))
        out.extend(
            hot_cold(rng, chunk, 0, data, hot_blocks=max(64, _LLC_LINES // 2),
                     hot_frac=0.985, work=30, write_frac=0.3, dependent=False)
        )
    return out[:n]


def _gcc(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    heap = _region(space, 0.07)
    out = []
    chunk = 256
    while len(out) < n:
        out.extend(pointer_chase(rng, chunk, 0, heap, work=40, write_frac=0.2))
        out.extend(stream(rng, chunk, 0, heap, work=30, write_frac=0.2, repeats=5))
        out.extend(
            hot_cold(rng, 2 * chunk, 0, heap, hot_blocks=max(64, _LLC_LINES // 2),
                     hot_frac=0.98, work=25, write_frac=0.2, dependent=False)
        )
        out.extend(
            conflict_walk(rng, chunk // 4, 0, heap, set_stride=_LLC_SETS,
                          groups=2, footprint=16, work=28, write_frac=0.2)
        )
    return out[:n]


def _tenants(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    # Multi-tenant serving: eight contiguous tenant strips with a skewed
    # tenant ranking that churns over time.  This is the stress shape for
    # the sharded backend (`repro serve --shards N`): a range partition
    # would hot-spot whichever shard owns the popular strip, while the
    # consistent-hash ring scatters every strip across the fleet.
    region = _region(space, 0.6, minimum=128)
    return tenant_mix(rng, n, 0, region, tenants=8, tenant_skew=1.1,
                      alpha=1.2, churn_interval=2048, work=20,
                      write_frac=0.15)


def _zipf(rng: Random, n: int, space: int) -> list[MemoryRequest]:
    # Cloud key-value traffic: Zipf(1.2) over half the address space with
    # slow hotspot rotation (trending keys).  This is the default address
    # distribution of `repro load` and a sweep-able batch workload here.
    region = _region(space, 0.5)
    return zipf(rng, n, 0, region, alpha=1.2, hotspot_interval=4096,
                work=20, write_frac=0.1)


WORKLOADS: dict[str, Workload] = {
    "mcf": Workload(
        "mcf", "large pointer-chasing working set, memory bound", "high", _mcf
    ),
    "libquantum": Workload(
        "libquantum", "long sequential sweeps, memory bound", "high", _libquantum
    ),
    "omnetpp": Workload(
        "omnetpp", "pointer-heavy event simulation heap", "high", _omnetpp
    ),
    "hmmer": Workload(
        "hmmer", "periodic scan/compute phase alternation (Figure 6)",
        "medium", _hmmer,
    ),
    "sjeng": Workload(
        "sjeng", "low-locality hash probing, long DRIs", "medium", _sjeng
    ),
    "h264ref": Workload(
        "h264ref", "reference-frame conflict walks, hot reuse", "medium", _h264ref
    ),
    "namd": Workload(
        "namd", "mostly cache-resident hot set, few misses", "low", _namd
    ),
    "astar": Workload(
        "astar", "dependent graph walks, medium working set", "medium", _astar
    ),
    "bzip2": Workload(
        "bzip2", "block streaming with local reuse", "medium", _bzip2
    ),
    "gcc": Workload(
        "gcc", "mixed pointer/stream compilation heap", "medium", _gcc
    ),
    "zipf": Workload(
        "zipf", "heavy-tailed cloud key-value skew with hotspot rotation",
        "high", _zipf,
    ),
    "tenants": Workload(
        "tenants", "multi-tenant strip skew with churn (sharded serving)",
        "high", _tenants,
    ),
}


def get_workload(name: str) -> Workload:
    """Look up a workload by name, with a helpful error."""
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; available: {known}") from None


#: The paper's ten SPEC CPU2006 benchmarks, in figure order.
PAPER_WORKLOADS = (
    "mcf", "libquantum", "omnetpp", "hmmer", "sjeng",
    "h264ref", "namd", "astar", "bzip2", "gcc",
)


def workload_names() -> list[str]:
    """The paper's ten benchmarks (figure order) plus the cloud extras."""
    return [*PAPER_WORKLOADS, "zipf", "tenants"]
