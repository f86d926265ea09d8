"""Geometry-derived tables shared across controllers.

The reverse-lexicographic eviction order (a bit reversal of the eviction
counter) is a pure function of the tree depth, so it is computed once per
depth and handed out as a shared read-only table.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=64)
def bit_reverse_table(bits: int) -> tuple[int, ...]:
    """``table[g]`` = ``g`` bit-reversed in a ``bits``-wide field.

    This is the reverse-lexicographic eviction order of Step-5: eviction
    ``n`` targets leaf ``table[n % 2**bits]``.  Shared (immutable tuple)
    across every controller of the same depth in the process.
    """
    if bits < 0:
        raise ValueError(f"bits must be non-negative, got {bits}")
    size = 1 << bits
    table = [0] * size
    for value in range(size):
        out = 0
        v = value
        for _ in range(bits):
            out = (out << 1) | (v & 1)
            v >>= 1
        table[value] = out
    return tuple(table)
