"""Per-slot Merkle hasher: the differential oracle for the framed engine.

This is the straightforward rendering of the hash tree that
:class:`repro.oram.integrity.MerkleTree` computes with one ``sha256``
call per bucket over framed pre-images.  Here every slot pre-image is
assembled from ``int.to_bytes`` pieces, a node digest feeds each slot's
length prefix and pre-image to ``sha256`` one ``update`` at a time, every
rehash records a :class:`~repro.oram.integrity.SlotMeta` per real slot,
and buckets are reached through ``path_indices`` and ``bucket`` views.

It shares the engine's result types (``SlotMeta``, ``CorruptSlot``,
``IntegrityError``) so outputs compare with ``==``.
``tests/oram/test_differential.py`` drives controllers with integrity on
and checks, after every step, that the engine's digests equal a
from-scratch rebuild of this oracle over the same tree.
"""

from __future__ import annotations

import hashlib

from repro.oram.block import Block
from repro.oram.integrity import CorruptSlot, IntegrityError, SlotMeta
from repro.oram.tree import OramTree
from repro.serialize import payload_bytes

_DUMMY_BYTES = b"\x00dummy"


def slot_bytes(blk: Block | None) -> bytes:
    """Canonical pre-image of one bucket slot's logical contents."""
    if blk is None:
        return _DUMMY_BYTES
    return b"".join(
        (
            b"\x01",
            blk.addr.to_bytes(8, "little", signed=False),
            blk.leaf.to_bytes(8, "little", signed=False),
            blk.version.to_bytes(8, "little", signed=True),
            b"\x01" if blk.is_shadow else b"\x00",
            payload_bytes(blk.payload),
        )
    )


def slot_digest(blk: Block | None) -> bytes:
    """Digest of one bucket slot's logical contents."""
    return hashlib.sha256(slot_bytes(blk)).digest()


class OracleMerkleTree:
    """Hash tree over an :class:`~repro.oram.tree.OramTree`, slot by slot."""

    def __init__(self, tree: OramTree) -> None:
        self.tree = tree
        self._digests: list[bytes] = [b""] * tree.num_buckets
        self._slot_preimages: list[list[bytes]] = [
            [] for _ in range(tree.num_buckets)
        ]
        self._slot_meta: list[list[SlotMeta | None]] = [
            [] for _ in range(tree.num_buckets)
        ]
        for index in range(tree.num_buckets - 1, -1, -1):
            self._rehash(index)

    @property
    def root(self) -> bytes:
        return self._digests[0]

    def slot_bytes(self, index: int, slot: int) -> bytes:
        return self._slot_preimages[index][slot]

    def slot_digest(self, index: int, slot: int) -> bytes:
        return hashlib.sha256(self._slot_preimages[index][slot]).digest()

    def slot_meta(self, index: int, slot: int) -> SlotMeta | None:
        return self._slot_meta[index][slot]

    def _node_digest(self, index: int, slot_preimages: list[bytes]) -> bytes:
        h = hashlib.sha256()
        for preimage in slot_preimages:
            h.update(len(preimage).to_bytes(4, "little"))
            h.update(preimage)
        left = 2 * index + 1
        if left < self.tree.num_buckets:
            h.update(self._digests[left])
            h.update(self._digests[left + 1])
        return h.digest()

    def _rehash(self, index: int) -> None:
        bucket = self.tree.bucket(index)
        preimages = [slot_bytes(blk) for blk in bucket]
        self._slot_preimages[index] = preimages
        self._slot_meta[index] = [
            None
            if blk is None
            else SlotMeta(blk.addr, blk.leaf, blk.version, blk.is_shadow,
                          blk.payload)
            for blk in bucket
        ]
        self._digests[index] = self._node_digest(index, preimages)

    def verify_path(self, leaf: int) -> None:
        for index in reversed(self.tree.path_indices(leaf)):
            live = [slot_bytes(blk) for blk in self.tree.bucket(index)]
            if self._node_digest(index, live) != self._digests[index]:
                level = self.tree.level_of_bucket(index)
                raise IntegrityError(
                    f"integrity violation at bucket {index} (level {level}) "
                    f"on path {leaf}"
                )

    def _localize_bucket(self, index: int) -> list[CorruptSlot]:
        bucket = self.tree.bucket(index)
        out = []
        for slot in range(len(bucket)):
            if slot_bytes(bucket[slot]) != self._slot_preimages[index][slot]:
                out.append(
                    CorruptSlot(
                        bucket=index,
                        level=self.tree.level_of_bucket(index),
                        slot=slot,
                        expected=self._slot_meta[index][slot],
                        digest=self.slot_digest(index, slot),
                    )
                )
        return out

    def localize(self, leaf: int) -> list[CorruptSlot]:
        out: list[CorruptSlot] = []
        for index in self.tree.path_indices(leaf):
            out.extend(self._localize_bucket(index))
        return out

    def verify_all(self) -> list[CorruptSlot]:
        out: list[CorruptSlot] = []
        for index in range(self.tree.num_buckets):
            out.extend(self._localize_bucket(index))
        return out
