"""Shared infrastructure for the figure-regeneration benchmarks.

Every ``test_fig*.py`` file regenerates one table/figure of the paper.
Simulation runs go through the sweep engine
(:mod:`repro.analysis.engine`): an in-process ``lru_cache`` memoises runs
shared between figures — exactly like re-using gem5 checkpoints across
plots — and an optional on-disk :class:`~repro.analysis.cache.ResultCache`
makes the cache survive *across* benchmark invocations.

Scale knobs (environment variables):

``REPRO_BENCH_REQUESTS``  memory instructions per run (default 20000)
``REPRO_BENCH_SWEEP_REQUESTS``  per-run length for dense parameter sweeps
                                 (default REPRO_BENCH_REQUESTS // 2)
``REPRO_BENCH_WORKLOADS`` comma list of workloads (default: the paper's
                           ten SPEC-2006-like workloads)
``REPRO_BENCH_SEED``      workload/ORAM seed (default 1)
``REPRO_BENCH_CACHE_DIR`` on-disk result cache directory (default: no
                           on-disk cache; runs are only memoised in
                           process)

Benchmark artifacts (full-suite transcripts) belong in
:data:`RESULTS_DIR` (``benchmarks/results/``), not the repo root;
:func:`results_path` creates it on demand.  The directory is gitignored
except for ``BENCH_ci.json``, the committed ``repro bench`` record of
the repository benchmark (``BENCHMARK.json``).
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from repro.analysis.cache import ResultCache
from repro.analysis.engine import SweepPoint, SweepRunner
from repro.cpu.core import CpuConfig
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig, named_config
from repro.system.metrics import SimulationResult, geomean
from repro.workloads.spec import PAPER_WORKLOADS

N_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "20000"))
N_SWEEP = int(
    os.environ.get("REPRO_BENCH_SWEEP_REQUESTS", str(max(4000, N_REQUESTS // 2)))
)
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
DEFAULT_LEVELS = 14
CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE_DIR")

# Where benchmark output artifacts live (gitignored; `python -m repro
# bench` writes its per-host history files here too).
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def results_path(name: str) -> Path:
    """Path for a benchmark artifact under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR / name

# One shared runner: benchmarks request points one at a time (pytest-benchmark
# owns the timing loop), so the runner stays serial; the win here is the
# on-disk cache, which turns a re-run of the full figure suite into pure
# cache hits.
RUNNER = SweepRunner(
    jobs=1, cache=ResultCache(CACHE_DIR) if CACHE_DIR else None
)


def bench_workloads() -> list[str]:
    """Workloads the benchmarks sweep: the paper's ten (env-overridable).

    The serving workloads ``zipf`` and ``tenants`` are not in the
    default; the paper never plotted them.
    """
    env = os.environ.get("REPRO_BENCH_WORKLOADS")
    if env:
        return [name.strip() for name in env.split(",") if name.strip()]
    return list(PAPER_WORKLOADS)


def make_config(
    scheme: str,
    tp: bool = False,
    levels: int = DEFAULT_LEVELS,
    treetop: int = 0,
    xor: bool = False,
    cpu: str = "inorder",
) -> SystemConfig:
    """Build a named experiment configuration.

    ``scheme``: any name :func:`repro.system.config.named_config` takes
    (``tiny``, ``insecure``, ``rd``, ``hd``, ``static-<P>``,
    ``dynamic-<W>``, ...).
    """
    oram = OramConfig(
        levels=levels,
        utilization=0.25,
        treetop_levels=treetop,
        xor_compression=xor,
    )
    cfg = named_config(scheme, oram=oram)
    if xor:
        cfg = cfg.with_(name=f"{cfg.name}+XOR")
    if treetop:
        cfg = cfg.with_(name=f"{cfg.name}+Treetop-{treetop}")
    if tp:
        cfg = cfg.with_timing_protection()
    if cpu == "o3":
        cfg = cfg.with_(cpu=CpuConfig.out_of_order(cores=4))
    return cfg


@lru_cache(maxsize=None)
def run(
    scheme: str,
    workload: str,
    tp: bool = False,
    levels: int = DEFAULT_LEVELS,
    treetop: int = 0,
    xor: bool = False,
    cpu: str = "inorder",
    num_requests: int | None = None,
    record_progress: bool = False,
) -> SimulationResult:
    """Run (or fetch from cache) one simulation."""
    config = make_config(scheme, tp=tp, levels=levels, treetop=treetop,
                         xor=xor, cpu=cpu)
    n = num_requests if num_requests is not None else N_REQUESTS
    point = SweepPoint(
        config=config,
        workload=workload,
        num_requests=n,
        seed=SEED,
        record_progress=record_progress,
    )
    return RUNNER.run_points([point])[0]


def gmean_over(values: list[float]) -> float:
    """Geometric mean guarding against zero components."""
    return geomean([max(v, 1e-9) for v in values])


def normalized_parts(
    result: SimulationResult, baseline: SimulationResult
) -> tuple[float, float, float]:
    """(interval, data, total) normalised to the baseline's total —
    the stacked-bar encoding of Figures 8/9/13/14."""
    total = result.total_cycles / baseline.total_cycles
    data = result.data_access_cycles / baseline.total_cycles
    return total - data, data, total
