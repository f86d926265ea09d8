"""Consistent-hash placement of the fleet address space onto shards.

A sharded fleet serves one flat *fleet* address space; each address
lives on exactly one shard, inside that shard's private ORAM tree.  The
mapping must be

* **deterministic across processes** — the supervisor, every shard
  worker, and a post-crash respawn must all agree, so it is built on
  SHA-256, never on ``hash()`` (which is salted per process);
* **balanced** — no shard may be asked to hold more blocks than its
  ORAM tree has slots for, so each shard contributes ``vnodes`` virtual
  points to the ring and the constructor *validates* the realized load
  against the per-shard capacity instead of hoping;
* **dense per shard** — an ORAM tree addresses blocks ``0..capacity-1``,
  so each shard's assigned fleet addresses are re-labelled to dense
  local indices (rank within the shard's sorted assignment).

The ring itself is the textbook construction: ``vnodes`` points per
shard on a 64-bit circle, an address hashes to a point and walks
clockwise to the first shard point.  Everything is precomputed at
construction (the address space is known and finite), so lookups are two
list indexings.
"""

from __future__ import annotations

import bisect
import hashlib

#: Fraction of the aggregate per-shard capacity the fleet address space
#: may use.  Consistent hashing balances well but not perfectly; the
#: headroom absorbs the realized imbalance so no shard overflows its
#: ORAM tree.  The constructor still validates the actual assignment.
DEFAULT_FILL = 0.85


def _point(*parts: object) -> int:
    """Deterministic 64-bit ring point for a tuple of parts."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


class HashRingError(ValueError):
    """Raised when the requested space cannot be placed on the ring."""


class HashRing:
    """Precomputed consistent-hash map: fleet address -> (shard, local).

    Args:
        num_shards: Number of shard partitions (>= 1).
        space: Fleet address space size (every address in
            ``[0, space)`` is placed at construction).
        capacity: Per-shard ORAM block capacity; the realized assignment
            is validated against it (``HashRingError`` on overflow).
        vnodes: Virtual points per shard on the ring.
        salt: Ring namespace; two rings with the same parameters and
            salt are identical in every process.

    Attributes:
        assignments: ``assignments[k]`` is the sorted tuple of fleet
            addresses owned by shard ``k``; the local index of a fleet
            address is its rank in that tuple.
    """

    def __init__(
        self,
        num_shards: int,
        space: int,
        capacity: int,
        vnodes: int = 64,
        salt: str = "shard-ring",
    ) -> None:
        if num_shards < 1:
            raise HashRingError(f"need >= 1 shard, got {num_shards}")
        if space < num_shards:
            raise HashRingError(
                f"fleet space {space} cannot cover {num_shards} shards"
            )
        if vnodes < 1:
            raise HashRingError(f"need >= 1 vnode per shard, got {vnodes}")
        self.num_shards = num_shards
        self.space = space
        self.capacity = capacity
        self.vnodes = vnodes
        self.salt = salt

        # Ring keys are the 8-byte big-endian points.  An address's full
        # 32-byte digest bisects against them exactly as its 64-bit
        # ``_point`` would: the first 8 bytes decide, and a digest that
        # starts with a key sorts after it, as an equal point does under
        # bisect_right.
        points = sorted(
            (_point(salt, "node", shard, v).to_bytes(8, "big"), shard)
            for shard in range(num_shards)
            for v in range(vnodes)
        )
        ring_keys = [key for key, _ in points]
        # A point past the last key wraps to the first shard point.
        ring_shards = [shard for _, shard in points] + [points[0][1]]

        prefix = f"{salt}:addr:".encode()
        sha256 = hashlib.sha256
        bisect_right = bisect.bisect_right
        owners = [
            ring_shards[bisect_right(ring_keys, sha256(prefix + b"%d" % addr).digest())]
            for addr in range(space)
        ]
        buckets: list[list[int]] = [[] for _ in range(num_shards)]
        # addr -> dense local index within its shard's sorted assignment.
        local: list[int] = []
        for addr, shard in enumerate(owners):
            bucket = buckets[shard]
            local.append(len(bucket))
            bucket.append(addr)

        for shard, bucket in enumerate(buckets):
            if not bucket:
                raise HashRingError(
                    f"shard {shard} owns no addresses; increase the fleet "
                    f"space or reduce the shard count"
                )
            if len(bucket) > capacity:
                raise HashRingError(
                    f"shard {shard} was assigned {len(bucket)} addresses "
                    f"but its ORAM holds only {capacity} blocks; "
                    f"shrink the fleet space (fill factor) or add shards"
                )
        self.assignments: tuple[tuple[int, ...], ...] = tuple(
            tuple(bucket) for bucket in buckets
        )
        self._owner = owners
        self._local = local

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        num_shards: int,
        capacity: int,
        vnodes: int = 64,
        fill: float = DEFAULT_FILL,
        salt: str = "shard-ring",
    ) -> "HashRing":
        """Build the largest safely-placeable ring for a shard fleet.

        Picks ``space = floor(num_shards * capacity * fill)`` and backs
        off (halving the shortfall) in the rare case the realized
        imbalance still overflows a shard — the result is deterministic
        because the back-off schedule is.
        """
        space = max(num_shards, int(num_shards * capacity * fill))
        while True:
            try:
                return cls(num_shards, space, capacity, vnodes, salt)
            except HashRingError:
                shrunk = max(num_shards, (space * 9) // 10)
                if shrunk == space:
                    raise
                space = shrunk

    # ------------------------------------------------------------------
    def shard_of(self, addr: int) -> int:
        """Owning shard of a fleet address."""
        return self._owner[addr]

    def local_of(self, addr: int) -> int:
        """Dense per-shard local index of a fleet address."""
        return self._local[addr]

    def shard_space(self, shard: int) -> int:
        """Number of addresses shard ``shard`` owns."""
        return len(self.assignments[shard])

    def describe(self) -> dict[str, object]:
        """Ring identity + realized balance (for run keys and stats)."""
        loads = [len(bucket) for bucket in self.assignments]
        return {
            "num_shards": self.num_shards,
            "space": self.space,
            "capacity": self.capacity,
            "vnodes": self.vnodes,
            "salt": self.salt,
            "load_min": min(loads),
            "load_max": max(loads),
        }
