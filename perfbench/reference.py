"""A fixed reference workload that measures how fast the host runs Python.

The host this benchmark was sized on is a shared VM whose speed drifts by
a factor of two over tens of minutes, so a program's times change with
the neighbours, not only with the program.  The benchmark therefore runs
chunks of this fixed workload next to the measured work (inside the
simulation worker every few thousand misses; in the load client around
each server start and between load segments) and scales every time it
gates on to a host whose chunk takes ``NOMINAL_S``: a time is divided,
and a rate per CPU-second multiplied, by ``slowdown`` = chunk CPU
seconds / ``NOMINAL_S``.  A change to the program moves the scaled
figure; a slower or faster host moves the time and the chunk alike and
cancels.

The work imitates the program's mix: a path walk down a flat
four-slot-bucket tree of 2^14 buckets, a dict position map, a dict stash
that is trimmed when it fills, and a SHA-256 per path, about 2 MB of
live data in all.  Every chunk does exactly the same work.
"""

from __future__ import annotations

import hashlib
from time import thread_time

LEVELS = 14
Z = 4
ADDRESSES = 1 << 15
#: Path walks per chunk.
STEPS = 800
#: CPU seconds of one chunk on a quiet 2-vCPU Intel Xeon VM (measured
#: 8.3-9.1 ms); the benchmark scales its times to a host of this speed.
NOMINAL_S = 0.009

_MUL = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


def slowdown(chunk_s: float) -> float:
    """How many times slower than nominal a host ran one chunk."""
    return chunk_s / NOMINAL_S


class Reference:
    """The reference state, built once per process; ``chunk`` runs the work."""

    def __init__(self) -> None:
        x = 12345
        tree = []
        for _ in range((1 << LEVELS) * Z):
            x = (x * _MUL + _INC) & _MASK
            tree.append(x >> 40)
        self.tree = tree
        leaves = 1 << (LEVELS - 1)
        self.posmap = {a: (a * 2654435761) % leaves for a in range(ADDRESSES)}
        self.checksum = None

    def work(self) -> int:
        tree, posmap = self.tree, self.posmap
        first_leaf = 1 << (LEVELS - 1)
        stash: dict[int, int] = {}
        x = 1
        acc = 0
        for _ in range(STEPS):
            x = (x * _MUL + _INC) & _MASK
            addr = (x >> 33) % ADDRESSES
            node = posmap[addr] + first_leaf
            digest = hashlib.sha256()
            while node:
                base = node * Z
                for slot in range(Z):
                    block = tree[base + slot]
                    if block & 7 == addr & 7:
                        stash[block] = node
                    digest.update(block.to_bytes(8, "little"))
                node >>= 1
            acc ^= digest.digest()[0]
            if len(stash) > 64:
                for key in sorted(stash)[:32]:
                    del stash[key]
        return acc ^ len(stash)

    def chunk(self) -> float:
        """Run one chunk; return the CPU seconds of the calling thread.

        Raises if a chunk's result differs from the first one's: the work
        must be the same every time for the chunk times to compare.
        """
        start = thread_time()
        result = self.work()
        cpu = thread_time() - start
        if self.checksum is None:
            self.checksum = result
        elif result != self.checksum:
            raise RuntimeError("reference chunk did different work")
        return cpu
