"""Configuration for the ORAM protocol layer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.serialize import serializable


@serializable
@dataclass(frozen=True, slots=True)
class OramConfig:
    """Geometry and protocol parameters of a Tiny ORAM instance.

    Defaults follow Table I of the paper where feasible; the tree depth is
    scaled down (DESIGN.md substitution 4) because a 4 GB / L=24 tree is not
    materialisable at Python simulation speed.  ``utilization`` is the
    fraction of tree slots occupied by program data.  The paper quotes a
    50% *DRAM* utilization; for the Z=5 / A=5 protocol the stable data load
    is N <= A * 2^(L-1) blocks, i.e. 25% of tree slots, which is the default
    here (see DESIGN.md).

    Attributes:
        levels: ``L`` — the leaf level; the tree has ``L + 1`` levels.
        z: Block slots per bucket (Table I: 5).
        a: Eviction rate — one eviction (read + write of the
            reverse-lexicographic path) per ``A`` read-only accesses
            (Table I: 5).
        utilization: Data blocks as a fraction of total tree slots.
        stash_capacity: Maximum real blocks held on chip (``M``).
        treetop_levels: Number of root-ward levels cached on chip
            (Phantom-style treetop caching; 0 disables it).
        xor_compression: Model the Ring-ORAM XOR bandwidth compression on
            read-only path accesses (Section IV-E comparator).
        onchip_latency: Cycles to serve a stash / treetop hit.
        integrity: Maintain a Merkle hash tree over the ORAM tree and
            verify every demand path before reading it (Tiny ORAM ships
            with integrity verification; off by default because the
            functional hashing multiplies host time by about 2.4 —
            static-4 with timing protection on mcf, L=14, 20k
            requests, tree build included).
        recovery: What to do when verification finds a corrupt slot:
            ``raise`` (fail the run with ``IntegrityError``), ``recover``
            (heal through the shadow-copy escalation ladder, raising only
            if no valid copy exists anywhere) or ``degrade`` (like
            ``recover`` but drop unrecoverable slots and keep running).
            Only meaningful with ``integrity=True``.
        scrub_interval: Run a full-tree background scrub every this many
            accesses (0 disables scrubbing).  Only meaningful with
            ``integrity=True``; under ``recovery="raise"`` a scrub hit
            aborts the run instead of healing.
    """

    levels: int = 14
    z: int = 5
    a: int = 5
    utilization: float = 0.25
    stash_capacity: int = 400
    treetop_levels: int = 0
    xor_compression: bool = False
    onchip_latency: float = 4.0
    integrity: bool = False
    recovery: str = "raise"
    scrub_interval: int = 0

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.z < 1:
            raise ValueError(f"z must be >= 1, got {self.z}")
        if self.a < 1:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1], got {self.utilization}")
        if self.treetop_levels < 0 or self.treetop_levels > self.levels:
            raise ValueError(
                f"treetop_levels must be in 0..{self.levels}, got {self.treetop_levels}"
            )
        if self.recovery not in ("raise", "recover", "degrade"):
            raise ValueError(
                f"recovery must be raise|recover|degrade, got {self.recovery!r}"
            )
        if self.scrub_interval < 0:
            raise ValueError(
                f"scrub_interval must be >= 0, got {self.scrub_interval}"
            )

    @property
    def num_leaves(self) -> int:
        return 1 << self.levels

    @property
    def num_buckets(self) -> int:
        return (1 << (self.levels + 1)) - 1

    @property
    def total_slots(self) -> int:
        return self.num_buckets * self.z

    @property
    def num_blocks(self) -> int:
        """Number of program data blocks ``N`` the ORAM stores."""
        return max(1, int(self.total_slots * self.utilization))

    @property
    def path_slots(self) -> int:
        """Blocks transferred per full path access: ``Z * (L + 1)``."""
        return self.z * (self.levels + 1)
