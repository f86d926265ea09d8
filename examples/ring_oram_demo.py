#!/usr/bin/env python3
"""Extensions demo: shadow blocks on Ring ORAM + integrity verification.

Two claims beyond the paper's main evaluation:

1. Section II-C: shadow blocks apply "to any other ORAMs that utilize
   dummy blocks, such as Ring ORAM".  We run the same hot workload on
   Ring ORAM with and without shadow duplication and compare latency.
2. Tiny ORAM's hardware includes integrity verification; we turn on the
   shadow controller's Merkle layer (``OramConfig(integrity=True)``) and
   show tampering is caught.
"""

from random import Random

from repro.analysis.report import print_table
from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.mem.dram import DramConfig
from repro.oram.block import Block
from repro.oram.config import OramConfig
from repro.oram.integrity import IntegrityError
from repro.oram.ring import RingConfig, RingOramController


def ring_comparison() -> None:
    rows = []
    for shadows in (False, True):
        cfg = RingConfig(levels=10, z=4, s=6, a=3, enable_shadows=shadows)
        ctl = RingOramController(cfg, Random(7), dram_config=DramConfig())
        rng = Random(9)
        hot = list(range(24))
        latencies = []
        now = 0.0
        for _ in range(4000):
            addr = hot[rng.randrange(len(hot))] if rng.random() < 0.6 else (
                rng.randrange(ctl.num_blocks)
            )
            r = ctl.access(addr, "read", now=now)
            latencies.append(r.data_ready - r.issue)
            now = r.finish + 100
        rows.append([
            "Ring + shadow blocks" if shadows else "Ring ORAM",
            sum(latencies) / len(latencies),
            ctl.stats_shadow_serves,
            ctl.stats_stash_hits,
            ctl.stats_reshuffles,
        ])
    print_table(
        ["scheme", "mean data latency (cycles)", "shadow serves",
         "stash hits", "reshuffles"],
        rows,
        title="Shadow blocks generalise to Ring ORAM (Section II-C claim)",
        float_fmt="{:.0f}",
    )


def integrity_demo() -> None:
    cfg = OramConfig(levels=6, utilization=0.25, stash_capacity=200,
                     integrity=True)
    oram = ShadowOramController(cfg, Random(1), ShadowConfig.static(3))
    rng = Random(2)
    for i in range(100):
        oram.access(rng.randrange(oram.num_blocks), "write", payload=i)
    print(f"integrity: {oram.stats.path_reads} paths verified clean")

    # Adversary overwrites a root-bucket slot in untrusted memory.
    oram.tree.bucket(0)[0] = Block(addr=3, leaf=0, version=999, payload="forged")
    try:
        for addr in range(oram.num_blocks):
            oram.access(addr, "read")
    except IntegrityError as err:
        print(f"integrity: tampering detected as expected -> {err}")
    else:
        raise SystemExit("tampering went undetected!")


if __name__ == "__main__":
    ring_comparison()
    integrity_demo()
