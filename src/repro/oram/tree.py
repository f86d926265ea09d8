"""Binary ORAM tree stored in untrusted external memory.

The tree follows the layout of Section II-C: ``levels + 1`` levels, level 0
being the root and level ``levels`` the leaves.  Every node is a *bucket* of
``z`` slots; a slot holds either a :class:`~repro.oram.block.Block` or
``None`` (a dummy).  Leaves are labelled ``0 .. 2**levels - 1`` and *path-l*
is the root-to-leaf path ending at leaf ``l``.

Buckets are addressed with the classic heap numbering so that the bucket at
level ``lvl`` along path ``leaf`` is ``(2**lvl - 1) + (leaf >> (levels -
lvl))``.  This arithmetic mapping is also what the DRAM layout model uses to
place buckets into rows (see :mod:`repro.mem.layout`).

Storage layout: all buckets live in one flat slot array (``_slots``), with
bucket ``i`` occupying ``_slots[i * z : (i + 1) * z]``.  The hot path-access
loops in :mod:`repro.oram.tiny` slice this array directly, one bucket per
level; :meth:`bucket` hands out a :class:`_BucketView` so existing
per-bucket callers (tests, recovery, fault injection) keep their
mutable-sequence semantics.
"""

from __future__ import annotations

from typing import Iterator

from repro.oram.block import Block


class _BucketView:
    """Mutable view of one bucket's ``z`` slots inside the flat store.

    Supports the subset of the old ``list`` API the codebase uses:
    indexing (read/write, including negative indices), iteration, length
    and equality against plain sequences.
    """

    __slots__ = ("_slots", "_base", "_z")

    def __init__(self, slots: list[Block | None], base: int, z: int) -> None:
        self._slots = slots
        self._base = base
        self._z = z

    def _resolve(self, index: int) -> int:
        if index < 0:
            index += self._z
        if not 0 <= index < self._z:
            raise IndexError(f"slot {index} out of range 0..{self._z - 1}")
        return self._base + index

    def __getitem__(self, index: int) -> Block | None:
        return self._slots[self._resolve(index)]

    def __setitem__(self, index: int, value: Block | None) -> None:
        self._slots[self._resolve(index)] = value

    def __len__(self) -> int:
        return self._z

    def __iter__(self) -> Iterator[Block | None]:
        base = self._base
        return iter(self._slots[base:base + self._z])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _BucketView):
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_BucketView({list(self)!r})"


class OramTree:
    """External-memory binary tree of buckets.

    Args:
        levels: ``L``, the leaf level index.  The tree has ``L + 1`` levels
            and ``2**(L + 1) - 1`` buckets.
        z: Number of block slots per bucket (paper default: 5).
    """

    def __init__(self, levels: int, z: int) -> None:
        if levels < 1:
            raise ValueError(f"ORAM tree needs at least 2 levels, got L={levels}")
        if z < 1:
            raise ValueError(f"bucket size must be positive, got Z={z}")
        self.levels = levels
        self.z = z
        self.num_leaves = 1 << levels
        self.num_buckets = (1 << (levels + 1)) - 1
        # Flat index-addressed store: bucket i owns slots [i*z, (i+1)*z).
        self._slots: list[Block | None] = [None] * (self.num_buckets * z)
        # One ``(offset, shift)`` pair per level, root first: the bucket at
        # ``level`` on path ``leaf`` starts at flat slot
        # ``offset + (leaf >> shift) * z``.  The hot path loops slice
        # ``_slots`` with it instead of calling :meth:`bucket_index`.
        self.path_geometry: tuple[tuple[int, int], ...] = tuple(
            (((1 << level) - 1) * z, levels - level)
            for level in range(levels + 1)
        )

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def bucket_index(self, leaf: int, level: int) -> int:
        """Heap index of the bucket at ``level`` along path ``leaf``."""
        if not 0 <= leaf < self.num_leaves:
            raise ValueError(f"leaf {leaf} out of range 0..{self.num_leaves - 1}")
        if not 0 <= level <= self.levels:
            raise ValueError(f"level {level} out of range 0..{self.levels}")
        return (1 << level) - 1 + (leaf >> (self.levels - level))

    def path_indices(self, leaf: int) -> list[int]:
        """Bucket indices along path ``leaf`` ordered root -> leaf."""
        return [self.bucket_index(leaf, lvl) for lvl in range(self.levels + 1)]

    def bucket(self, index: int) -> _BucketView:
        """Mutable view of bucket ``index``'s slot sequence."""
        return _BucketView(self._slots, index * self.z, self.z)

    @staticmethod
    def common_level(leaf_a: int, leaf_b: int, levels: int) -> int:
        """Deepest level at which paths ``leaf_a`` and ``leaf_b`` coincide.

        This is the length of the common prefix of the two leaf labels read
        MSB-first, i.e. the deepest bucket shared by both paths.  Used by the
        eviction logic to find where a stash block may be placed.
        """
        diff = leaf_a ^ leaf_b
        if diff == 0:
            return levels
        return levels - diff.bit_length()

    # ------------------------------------------------------------------
    # Path read / write primitives (functional part only; timing is the
    # responsibility of repro.mem.dram)
    # ------------------------------------------------------------------
    def read_path(self, leaf: int) -> list[tuple[int, int, Block | None]]:
        """Remove and return all blocks along path ``leaf``.

        Returns a list of ``(level, slot, block_or_none)`` ordered exactly as
        the blocks stream out of memory: root first, leaf last, slots in
        order within a bucket.  Read slots are invalidated (set to dummy), as
        in Step-3 of Section II-C.
        """
        if not 0 <= leaf < self.num_leaves:
            raise ValueError(f"leaf {leaf} out of range 0..{self.num_leaves - 1}")
        slots = self._slots
        z = self.z
        out: list[tuple[int, int, Block | None]] = []
        for level, (offset, shift) in enumerate(self.path_geometry):
            base = offset + (leaf >> shift) * z
            for slot in range(z):
                out.append((level, slot, slots[base + slot]))
                slots[base + slot] = None
        return out

    def write_path(self, leaf: int, contents: dict[tuple[int, int], Block]) -> None:
        """Write ``contents`` onto path ``leaf``.

        ``contents`` maps ``(level, slot)`` to the block to store; missing
        slots become dummies.  The whole path is rewritten (every slot), as
        required for probabilistic re-encryption to hide which slots hold
        data (Section IV-B).
        """
        if not 0 <= leaf < self.num_leaves:
            raise ValueError(f"leaf {leaf} out of range 0..{self.num_leaves - 1}")
        slots = self._slots
        z = self.z
        get = contents.get
        for level, (offset, shift) in enumerate(self.path_geometry):
            base = offset + (leaf >> shift) * z
            for slot in range(z):
                slots[base + slot] = get((level, slot))

    def write_path_buffer(self, leaf: int, buf: list[Block | None]) -> None:
        """Write a preallocated flat path buffer onto path ``leaf``.

        ``buf`` has ``(levels + 1) * z`` entries; level ``lvl`` occupies
        ``buf[lvl * z : (lvl + 1) * z]``.  Every path slot is overwritten
        (dummies included), exactly like :meth:`write_path`, but with one
        slice assignment per level instead of a dict probe per slot.
        """
        slots = self._slots
        z = self.z
        off = 0
        for offset, shift in self.path_geometry:
            base = offset + (leaf >> shift) * z
            slots[base:base + z] = buf[off:off + z]
            off += z

    # ------------------------------------------------------------------
    # Introspection helpers (testing / statistics)
    # ------------------------------------------------------------------
    def iter_blocks(self) -> Iterator[tuple[int, int, Block]]:
        """Yield ``(bucket_index, slot, block)`` for every non-dummy slot."""
        z = self.z
        for i, blk in enumerate(self._slots):
            if blk is not None:
                yield i // z, i % z, blk

    def level_of_bucket(self, index: int) -> int:
        """Level of bucket ``index`` (root = 0)."""
        return (index + 1).bit_length() - 1

    def leaf_under(self, index: int) -> int:
        """Leftmost leaf whose path passes through bucket ``index``."""
        level = self.level_of_bucket(index)
        return (index + 1 - (1 << level)) << (self.levels - level)

    def count_blocks(self) -> tuple[int, int]:
        """Return ``(num_real, num_shadow)`` blocks currently stored."""
        real = shadow = 0
        for blk in self._slots:
            if blk is not None:
                if blk.is_shadow:
                    shadow += 1
                else:
                    real += 1
        return real, shadow

    def on_path(self, leaf: int, bucket_index: int) -> bool:
        """Whether ``bucket_index`` lies on path ``leaf``."""
        level = self.level_of_bucket(bucket_index)
        return self.bucket_index(leaf, level) == bucket_index

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable rendering of every bucket."""
        from repro.oram.block import block_to_jsonable

        slots = self._slots
        z = self.z
        return {
            "buckets": [
                [block_to_jsonable(blk) for blk in slots[base:base + z]]
                for base in range(0, len(slots), z)
            ]
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`."""
        from repro.oram.block import block_from_jsonable

        buckets = state["buckets"]
        if len(buckets) != self.num_buckets:
            raise ValueError(
                f"tree snapshot has {len(buckets)} buckets, "
                f"expected {self.num_buckets}"
            )
        slots: list[Block | None] = []
        for bucket in buckets:
            if len(bucket) != self.z:
                raise ValueError(
                    f"tree snapshot bucket has {len(bucket)} slots, "
                    f"expected {self.z}"
                )
            slots.extend(block_from_jsonable(data) for data in bucket)
        self._slots = slots
