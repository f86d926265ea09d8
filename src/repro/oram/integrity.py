"""Integrity verification for the ORAM tree (Merkle-style hash tree).

Tiny ORAM's hardware design ("RAW Path ORAM: a low-latency, low-area
hardware ORAM controller **with integrity verification**") authenticates
every block it reads so a tampering memory cannot return stale or forged
ciphertexts.  The classic construction maps naturally onto the ORAM tree:
every bucket stores a digest of its contents plus its children's digests,
the controller keeps only the root digest on chip, and a path read can be
verified (and a path write re-hashed) touching exactly the path plus its
siblings — the same buckets the ORAM already moves.

This module provides that layer for the simulator: a
:class:`MerkleTree` keyed by the ORAM tree geometry, with
``verify_path`` / ``update_path`` plus the primitives the self-healing
runtime builds on: per-slot **localization** of a mismatch
(:meth:`MerkleTree.localize`, :meth:`MerkleTree.verify_all`), a slot
directory of what each slot held at its last authenticated rehash (the
stand-in for the durable replica a repair fetch would consult), and the
O(L) root-ward :meth:`MerkleTree.rehash_bucket` a healed bucket needs.

Block contents hash through the canonical byte codec of
:mod:`repro.serialize` (``payload_bytes``), *not* ``repr``: ``repr`` is
neither stable across processes (default object reprs embed ``id()``) nor
canonical for equal containers, so digests built from it could not be
checked against checkpointed state.  The layer is functional (no timing):
the paper's evaluation does not include integrity latency, and neither do
our benchmarks.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Sequence

from repro.oram.block import Block
from repro.oram.tree import OramTree
from repro.serialize import payload_bytes


class IntegrityError(RuntimeError):
    """Raised when a path's contents do not match the trusted root digest."""


_sha256 = hashlib.sha256

# A slot's pre-image is ``\x01`` ‖ addr (u64) ‖ leaf (u64) ‖ version (i64)
# ‖ shadow bit ‖ canonical payload bytes, or ``\x00dummy`` for a dummy.
# The hasher consumes *framed* pre-images — a 4-byte little-endian length,
# then the pre-image — which keeps a bucket's concatenation injective.
_HEADER = struct.Struct("<IBQQq?")
_PREIMAGE_HEAD = _HEADER.size - 4
_DUMMY_FRAME = b"\x06\x00\x00\x00\x00dummy"
# Fields that do not fit the encoding (negative address, version outside
# i64, ...) frame as a marker no valid pre-image equals, so a forged slot
# fails verification instead of crashing it.
_UNENCODABLE_FRAME = b"\x0c\x00\x00\x00\x02unencodable"

# Experiments run with ``payload=None`` on every block: one precompiled
# pack frames such a slot, canonical ``None`` payload bytes included.
_NONE_PAYLOAD_BYTES = payload_bytes(None)
_NONE_LEN = _PREIMAGE_HEAD + len(_NONE_PAYLOAD_BYTES)
_pack_none = struct.Struct(f"<IBQQq?{len(_NONE_PAYLOAD_BYTES)}s").pack


def _frame(blk: Block | None) -> bytes:
    """Framed canonical pre-image of one bucket slot's logical contents.

    Blocks render their full identity, so any stale or forged
    replacement changes the bytes — and therefore the digest.  Byte
    equality of pre-images is exactly what slot-digest equality
    certifies, checked without hashing anything.
    """
    if blk is None:
        return _DUMMY_FRAME
    payload = blk.payload
    data = _NONE_PAYLOAD_BYTES if payload is None else payload_bytes(payload)
    try:
        return _HEADER.pack(
            _PREIMAGE_HEAD + len(data), 1,
            blk.addr, blk.leaf, blk.version, blk.is_shadow,
        ) + data
    except struct.error:
        return _UNENCODABLE_FRAME


def _bucket_frame(bucket: list[Block | None]) -> bytes:
    """One bucket's framed slot pre-images, concatenated (as hashed)."""
    try:
        return b"".join([
            _DUMMY_FRAME if blk is None
            else _pack_none(
                _NONE_LEN, 1, blk.addr, blk.leaf, blk.version, blk.is_shadow,
                _NONE_PAYLOAD_BYTES,
            ) if blk.payload is None
            else _frame(blk)
            for blk in bucket
        ])
    except struct.error:  # an unencodable slot: let _frame mark it
        return b"".join([_frame(blk) for blk in bucket])


def _split(frames: bytes) -> list[bytes]:
    """Inverse of :func:`_bucket_frame`: one framed pre-image per slot."""
    out = []
    start = 0
    while start < len(frames):
        stop = start + 4 + int.from_bytes(frames[start:start + 4], "little")
        out.append(frames[start:stop])
        start = stop
    return out


def _slot_bytes(blk: Block | None) -> bytes:
    """Canonical (unframed) pre-image of one bucket slot."""
    return _frame(blk)[4:]


def _slot_digest(blk: Block | None) -> bytes:
    """Digest of one bucket slot's logical contents."""
    return _sha256(_slot_bytes(blk)).digest()


@dataclass(slots=True, frozen=True)
class SlotMeta:
    """What a tree slot held at its last authenticated rehash.

    This is the recovery directory entry for one slot.  Conceptually the
    payload lives in the durable replica a repair fetch would read from;
    the simulator keeps it beside the digest so the rebuild branch of the
    escalation ladder is exercisable without modelling a second storage
    tier.
    """

    addr: int
    leaf: int
    version: int
    is_shadow: bool
    payload: object

    def make_block(self) -> Block:
        """Reconstruct the authenticated block this entry describes."""
        return Block(
            addr=self.addr,
            leaf=self.leaf,
            version=self.version,
            payload=self.payload,
            is_shadow=self.is_shadow,
        )


@dataclass(slots=True, frozen=True)
class CorruptSlot:
    """One localized integrity violation.

    Attributes:
        bucket: Heap index of the corrupt bucket.
        level: Tree level of that bucket (root = 0).
        slot: Slot index within the bucket.
        expected: Directory entry for the slot's authenticated contents
            (``None`` when the slot was an authenticated dummy).
        digest: The trusted slot digest the live contents must match.
    """

    bucket: int
    level: int
    slot: int
    expected: SlotMeta | None
    digest: bytes

    def describe(self) -> str:
        what = "dummy" if self.expected is None else f"addr {self.expected.addr}"
        return (
            f"bucket {self.bucket} (level {self.level}) slot {self.slot} "
            f"[{what}]"
        )


class MerkleTree:
    """Hash tree mirroring an :class:`~repro.oram.tree.OramTree`.

    Node digest = H(framed slot pre-images || left child digest || right
    child digest), one ``sha256`` call per bucket.  Only :attr:`root`
    needs trusted storage; the node digests live (conceptually) in
    untrusted memory, while the slot directory — each bucket's frames
    from its last authenticated rehash (``_frames``) plus the payload
    objects they encode — models the repair source recovery falls back
    on.  Invariant, kept by every mutator: ``_digests[i]`` hashes
    ``_frames[i]`` and the stored digests of ``i``'s children.  Bucket
    contents are read from ``tree._slots`` on every call (a restore
    rebinds it), never cached by ``Block`` identity (a fault may mutate
    a tree-resident block in place).

    The controller tells :meth:`update_path` which path levels it
    rewrote, so only those buckets are re-framed: the path write names
    every level, a demand read the levels it cleared a copy of the
    requested block from, a dummy read none.  The eviction read names
    none either: it empties the whole path, and the path write that
    follows it re-frames and re-hashes that path before anything
    verifies it.

    Args:
        tree: The ORAM tree to authenticate.
    """

    def __init__(self, tree: OramTree) -> None:
        self.tree = tree
        # ``(first bucket index, shift)`` per level, leaf level first: the
        # tree's ``path_geometry``, which the controller's path loops
        # slice the tree with, in bucket rather than slot units.
        self._geometry = tuple(
            (offset // tree.z, shift)
            for offset, shift in reversed(tree.path_geometry)
        )
        # Heap order, padded with empty digests for the children of leaf
        # buckets, so one expression hashes every node.
        self._digests: list[bytes] = [b""] * (2 * tree.num_buckets + 1)
        self._frames: list[bytes] = [b""] * tree.num_buckets
        self._payloads: list[object] = []  # parallel to tree._slots
        self._rebuild_all()

    @property
    def root(self) -> bytes:
        """The trusted on-chip root digest."""
        return self._digests[0]

    def _slot_frame(self, index: int, slot: int) -> bytes:
        return _split(self._frames[index])[slot]

    def slot_bytes(self, index: int, slot: int) -> bytes:
        """Trusted pre-image of one slot (from the last authenticated rehash)."""
        return self._slot_frame(index, slot)[4:]

    def slot_digest(self, index: int, slot: int) -> bytes:
        """Trusted digest of one slot (from the last authenticated rehash)."""
        return _sha256(self.slot_bytes(index, slot)).digest()

    def slot_meta(self, index: int, slot: int) -> SlotMeta | None:
        """Directory entry for one slot (``None`` = authenticated dummy).

        Decoded from the stored frame.  A slot authenticated as
        unencodable (a tree built over forged contents) has none either.
        """
        frame = self._slot_frame(index, slot)
        if frame[4] != 1:
            return None
        _, _, addr, leaf, version, is_shadow = _HEADER.unpack_from(frame)
        payload = self._payloads[index * self.tree.z + slot]
        return SlotMeta(addr, leaf, version, is_shadow, payload)

    def is_authentic(self, index: int, slot: int, blk: Block | None) -> bool:
        """Whether ``blk`` is what the slot held at its last rehash."""
        return _frame(blk) == self._slot_frame(index, slot)

    # ------------------------------------------------------------------
    def _node_digest(self, index: int, frames: bytes) -> bytes:
        digests = self._digests
        return _sha256(
            frames + digests[2 * index + 1] + digests[2 * index + 2]
        ).digest()

    def _store(self, index: int, bucket: list[Block | None], frames: bytes) -> None:
        """Record ``bucket``'s live contents as its authenticated ones."""
        self._frames[index] = frames
        base = index * self.tree.z
        self._payloads[base:base + len(bucket)] = [
            None if blk is None else blk.payload for blk in bucket
        ]

    def _rebuild_all(self) -> None:
        slots = self.tree._slots
        z = self.tree.z
        digests = self._digests
        self._payloads = [None if blk is None else blk.payload for blk in slots]
        for index in range(self.tree.num_buckets - 1, -1, -1):
            frames = _bucket_frame(slots[index * z:index * z + z])
            self._frames[index] = frames
            digests[index] = self._node_digest(index, frames)

    def _path(self, leaf: int) -> list[int]:
        """Heap indices of path ``leaf``, leaf bucket first (range-checked)."""
        num_leaves = self.tree.num_leaves
        if not 0 <= leaf < num_leaves:
            raise ValueError(f"leaf {leaf} out of range 0..{num_leaves - 1}")
        return [first + (leaf >> shift) for first, shift in self._geometry]

    # ------------------------------------------------------------------
    def verify_path(self, leaf: int) -> None:
        """Authenticate path ``leaf`` against the trusted root.

        Recomputes each path node's digest from the (untrusted) bucket
        contents and the stored child digests, leaf to root; any mismatch
        along the way — a tampered bucket, a stale digest, a forged
        sibling — raises :class:`IntegrityError`.  One ``sha256`` call
        per bucket.
        """
        slots = self.tree._slots
        z = self.tree.z
        for index in self._path(leaf):
            live = _bucket_frame(slots[index * z:index * z + z])
            if self._node_digest(index, live) != self._digests[index]:
                level = self.tree.level_of_bucket(index)
                raise IntegrityError(
                    f"integrity violation at bucket {index} (level {level}) "
                    f"on path {leaf}"
                )

    def update_path(self, leaf: int, levels: Sequence[int]) -> bytes:
        """Re-hash path ``leaf`` after the controller rewrote ``levels``.

        The caller names the path levels whose buckets it changed: every
        level after a path write, the levels where a demand read cleared a
        copy of the requested block, none after a dummy read.  Only those
        buckets are re-framed; their live contents become the
        authenticated ones.  Then each node from the deepest named level
        up to the root is re-hashed from its stored frames and child
        digests — at most O(L) hashes, the standard Merkle update the
        hardware performs during Step-6.  A bucket changed at a level not
        named keeps its old frames, so :meth:`verify_path` rejects it.
        Returns the new root.
        """
        if not levels:
            return self.root
        path = self._path(leaf)
        top = len(path) - 1
        slots = self.tree._slots
        z = self.tree.z
        for level in levels:
            index = path[top - level]
            bucket = slots[index * z:index * z + z]
            self._store(index, bucket, _bucket_frame(bucket))
        frames = self._frames
        digests = self._digests
        for index in path[top - max(levels):]:
            digests[index] = self._node_digest(index, frames[index])
        return self.root

    # ------------------------------------------------------------------
    # Localization + incremental rehash (the recovery primitives)
    # ------------------------------------------------------------------
    def _localize_bucket(self, index: int) -> list[CorruptSlot]:
        z = self.tree.z
        bucket = self.tree._slots[index * z:index * z + z]
        stored = self._frames[index]
        if _bucket_frame(bucket) == stored:
            return []
        level = self.tree.level_of_bucket(index)
        return [
            CorruptSlot(
                bucket=index,
                level=level,
                slot=slot,
                expected=self.slot_meta(index, slot),
                digest=self.slot_digest(index, slot),
            )
            for slot, (blk, frame) in enumerate(zip(bucket, _split(stored)))
            if _frame(blk) != frame
        ]

    def localize(self, leaf: int) -> list[CorruptSlot]:
        """Every corrupt slot along path ``leaf``, root-ward first."""
        out: list[CorruptSlot] = []
        for index in reversed(self._path(leaf)):
            out.extend(self._localize_bucket(index))
        return out

    def verify_all(self) -> list[CorruptSlot]:
        """Full-tree scrub: every corrupt slot anywhere in the tree."""
        out: list[CorruptSlot] = []
        for index in range(self.tree.num_buckets):
            out.extend(self._localize_bucket(index))
        return out

    def rehash_bucket(self, index: int) -> bytes:
        """Re-authenticate bucket ``index`` and propagate to the root.

        Used after a recovery heals a slot: the healed bucket's live
        contents become its authenticated ones, and every ancestor's node
        digest is recomputed from its (unchanged) stored pre-images — an
        :meth:`update_path` that names only the bucket's level, O(L)
        hashes.
        """
        tree = self.tree
        return self.update_path(
            tree.leaf_under(index), (tree.level_of_bucket(index),)
        )
