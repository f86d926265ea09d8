"""Hot Address Cache: on-chip access counters for HD-Dup (Section V-B-1).

A small set-associative structure tagged by program address.  Every LLC
miss that reaches the ORAM controller touches it; a hit increments the
stored counter, a miss inserts the address, evicting the Least Frequently
Used way of its set.  HD-Dup consults it during path writes to pick the
hottest duplication candidate.

The paper sizes it at 1 KB; with an 8-byte tag+counter entry that is 128
entries, our default of 32 sets x 4 ways.
"""

from __future__ import annotations


class HotAddressCache:
    """Set-associative LFU counter cache.

    Args:
        sets: Number of sets (power of two recommended).
        ways: Associativity.
    """

    def __init__(self, sets: int = 32, ways: int = 4) -> None:
        if sets < 1 or ways < 1:
            raise ValueError(f"cache geometry must be positive, got {sets}x{ways}")
        self.sets = sets
        self.ways = ways
        self._lines: list[dict[int, int]] = [{} for _ in range(sets)]
        # Merged view over all sets.  An address maps to exactly one set,
        # so the union is collision-free; keeping it up to date on touch /
        # evict turns every ``hotness`` lookup (one per duplication
        # candidate per path write) into a single dict get with no
        # set-indexing arithmetic.
        self._all: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self.sets * self.ways

    def _set_of(self, addr: int) -> dict[int, int]:
        return self._lines[addr % self.sets]

    def touch(self, addr: int) -> int:
        """Record one LLC miss to ``addr``; return its updated counter."""
        line = self._set_of(addr)
        if addr in line:
            count = line[addr] + 1
            line[addr] = count
            self._all[addr] = count
            self.hits += 1
            return count
        self.misses += 1
        if len(line) >= self.ways:
            victim = min(line, key=line.__getitem__)
            del line[victim]
            del self._all[victim]
            self.evictions += 1
        line[addr] = 1
        self._all[addr] = 1
        return 1

    def hotness(self, addr: int) -> int:
        """Access count of ``addr``; 0 when the address is not tracked.

        The paper: "if a candidate is not in the access counter cache,
        priority of this block is set to zero."
        """
        return self._all.get(addr, 0)

    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable rendering; per-set entry order is preserved.

        Order matters: LFU eviction breaks counter ties by insertion
        order (``min`` over dict iteration), so a restored cache must
        iterate identically to the uninterrupted one.
        """
        return {
            "lines": [list(line.items()) for line in self._lines],
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        lines = state["lines"]
        if len(lines) != self.sets:
            raise ValueError(
                f"hot-cache snapshot has {len(lines)} sets, expected {self.sets}"
            )
        self._lines = [
            {int(addr): int(count) for addr, count in line} for line in lines
        ]
        self._all = {
            addr: count for line in self._lines for addr, count in line.items()
        }
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.evictions = state["evictions"]

    def __contains__(self, addr: int) -> bool:
        return addr in self._set_of(addr)

    def __len__(self) -> int:
        return sum(len(line) for line in self._lines)
