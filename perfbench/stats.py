"""Pure helpers of the benchmark: percentiles, the max-rate search and
the output checks.  Nothing here touches a process, socket or clock, so
``test_perfbench.py`` drives every function with synthetic samples."""

from __future__ import annotations

import math


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method).

    ``inf`` samples (failed requests) sort last, so a failure counts as
    over any limit, as the benchmark's metric definitions require.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi or ordered[lo] == ordered[hi]:
        return ordered[lo]
    if math.isinf(ordered[hi]):
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def interpolate_max_rps(rungs: list[tuple[float, float]], limit_ms: float) -> float:
    """Highest offered rate whose p99 stays within ``limit_ms``.

    ``rungs`` are ``(offered_rps, p99_ms)`` in climbing order; the climb
    stops at the first rung over the limit.  The rate is interpolated
    linearly in p99 between the last passing rung and the failing one; a
    first rung that fails interpolates from the origin (p99 0 at rate 0),
    and a ladder that never fails reports its top rung.  A failing rung
    whose p99 is infinite (requests failed) gives the last passing rate.
    """
    if not rungs:
        raise ValueError("no ladder rungs measured")
    lo_rate, lo_p99 = 0.0, 0.0
    for rate, p99 in rungs:
        if p99 <= limit_ms:
            lo_rate, lo_p99 = rate, p99
            continue
        if math.isinf(p99):
            return lo_rate if lo_rate > 0 else rate * 0.5
        return lo_rate + (rate - lo_rate) * (limit_ms - lo_p99) / (p99 - lo_p99)
    return lo_rate


# ----------------------------------------------------------------------
# Output checks.  Each returns a list of human-readable problems; an
# empty list means the check passed.
# ----------------------------------------------------------------------
def check_read_value(got: object, expected: object, uncertain: set | None) -> bool:
    """A read must return the value its connection last wrote to the
    address (``None`` if never written).  When an earlier write to the
    address was not acknowledged ``ok``, any value that connection sent
    there (or ``None``) is accepted instead."""
    if got == expected:
        return True
    return uncertain is not None and (got is None or got in uncertain)


def check_serve_accounting(counters: dict[str, object]) -> list[str]:
    """The server's own books: every admitted request ends served,
    expired or abandoned, and every accepted one is admitted or shed."""
    def c(name: str) -> int:
        return int(counters.get(f"serve/{name}", 0))

    problems = []
    if c("admitted") != c("served") + c("expired") + c("abandoned"):
        problems.append(
            f"admitted {c('admitted')} != served {c('served')} + expired "
            f"{c('expired')} + abandoned {c('abandoned')}"
        )
    if c("accepted") != c("admitted") + c("shed"):
        problems.append(
            f"accepted {c('accepted')} != admitted {c('admitted')} + shed {c('shed')}"
        )
    return problems


def check_shard_padding(shards: list[dict[str, object]]) -> list[str]:
    """Padded dispatch: every round runs one real and ``n - 1`` dummy
    slots, so the summed dummy slots are ``n - 1`` times the real ones."""
    real = sum(int(s["real"]) for s in shards)
    dummy = sum(int(s["dummy"]) for s in shards)
    if dummy != (len(shards) - 1) * real:
        return [f"{dummy} dummy slots over {len(shards)} shards != "
                f"{len(shards) - 1} x {real} real slots"]
    return []


def check_sim_sources(result: dict[str, object], misses_seen: int,
                      writebacks_seen: int) -> list[str]:
    """Every ORAM access of a simulation is served from exactly one
    source: on chip (stash, shadow stash, treetop) or by a real path
    access; and the accesses are the misses plus their writebacks."""
    stats = result["oram_stats"]
    problems = []
    if result["llc_misses"] != misses_seen:
        problems.append(f"result llc_misses {result['llc_misses']} != "
                        f"{misses_seen} misses served")
    if stats["accesses"] != misses_seen + writebacks_seen:
        problems.append(f"{stats['accesses']} accesses != {misses_seen} misses "
                        f"+ {writebacks_seen} writebacks")
    onchip = stats["stash_hits"] + stats["shadow_stash_hits"] + stats["treetop_serves"]
    if stats["onchip_serves"] != onchip:
        problems.append(f"onchip_serves {stats['onchip_serves']} != sum of "
                        f"on-chip sources {onchip}")
    if stats["onchip_serves"] + result["real_requests"] != stats["accesses"]:
        problems.append(
            f"on-chip {stats['onchip_serves']} + path {result['real_requests']} "
            f"serves != {stats['accesses']} accesses"
        )
    return problems
