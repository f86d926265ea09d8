"""The one table of process exit codes every ``repro`` subcommand uses.

Historically these constants were scattered through :mod:`repro.cli`;
they live here so the CLI, the serve/load stack, CI jobs, and the README
all agree on one contract.  Codes 1 and 2 are left to Python itself
(unhandled exception, argparse usage error); 130 follows the shell
convention of ``128 + SIGINT``.

============================  ====  ===============================================
constant                      code  meaning
============================  ====  ===============================================
``EXIT_OK``                      0  success
``EXIT_SWEEP_FAILED``            3  a sweep/faults run finished with failed or
                                    unresolved grid points (re-running the
                                    same sweep on the same cache executes
                                    only those)
``EXIT_BENCH_REGRESSION``        4  ``bench --compare``: an end-to-end metric
                                    of the declared benchmark moved past its
                                    ``BENCHMARK.json`` bound in its worse
                                    direction against the recorded baseline
``EXIT_TRACE_INVALID``           5  ``trace analyze`` found a span tree violating
                                    the cycle-exact exclusive-time invariant
``EXIT_SERVE_FAILED``            6  ``serve`` aborted before a clean drain
                                    (fatal server error / injected crash), the
                                    shard fleet failed unrecoverably (torn
                                    intent log mid-history or respawn budget
                                    exhausted -- a degraded-mode recovery that
                                    drains cleanly still exits 0), or ``load``
                                    finished with zero served requests
``EXIT_SLO_BREACH``              7  ``serve --slo-fatal`` drained because the
                                    rolling SLO monitor entered ``breached``;
                                    the drain itself was clean (admitted work
                                    completed, post-mortem dumped)
``EXIT_BENCH_INCORRECT``         8  ``bench``: the benchmark command failed,
                                    printed no result line, or reported
                                    ``correct: false`` (the entry is still
                                    recorded)
``EXIT_INTERRUPTED``           130  Ctrl-C; completed sweep points are in the
                                    result cache, so running the same sweep
                                    again finishes it
============================  ====  ===============================================
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_SWEEP_FAILED = 3
EXIT_BENCH_REGRESSION = 4
EXIT_TRACE_INVALID = 5
EXIT_SERVE_FAILED = 6
EXIT_SLO_BREACH = 7
EXIT_BENCH_INCORRECT = 8
EXIT_INTERRUPTED = 130

#: code -> one-line description, for ``--help`` epilogs and docs.
EXIT_CODES: dict[int, str] = {
    EXIT_OK: "success",
    EXIT_SWEEP_FAILED: "sweep finished with failed or unresolved points",
    EXIT_BENCH_REGRESSION: "bench --compare: a metric moved past its bound",
    EXIT_TRACE_INVALID: "trace analyze found an invalid span tree",
    EXIT_SERVE_FAILED: "serve aborted before a clean drain / load served zero",
    EXIT_SLO_BREACH: "serve --slo-fatal drained on a breached SLO",
    EXIT_BENCH_INCORRECT: "bench: the benchmark run failed or was incorrect",
    EXIT_INTERRUPTED: "interrupted by Ctrl-C (sweeps stay resumable)",
}

__all__ = [
    "EXIT_CODES",
    "EXIT_BENCH_INCORRECT",
    "EXIT_BENCH_REGRESSION",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "EXIT_SERVE_FAILED",
    "EXIT_SLO_BREACH",
    "EXIT_SWEEP_FAILED",
    "EXIT_TRACE_INVALID",
]
