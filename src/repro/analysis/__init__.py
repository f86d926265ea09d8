"""Analysis helpers: statistics, sweeps, caching and table rendering."""

from repro.analysis.cache import ResultCache
from repro.analysis.engine import (
    SweepPoint,
    SweepResult,
    SweepRunner,
    build_grid,
    execute_point,
)
from repro.analysis.report import format_table, print_table
from repro.analysis.stats import geometric_mean, intervals, mean, percentile, stdev

__all__ = [
    "ResultCache",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "build_grid",
    "execute_point",
    "format_table",
    "geometric_mean",
    "intervals",
    "mean",
    "percentile",
    "print_table",
    "stdev",
]
