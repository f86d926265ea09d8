"""Differential tests: optimized hot-path forms vs slow reference forms.

The hot-path data-layout refactor rewrote several inner loops around
flat arrays, cached tables and batched hashing.  Each rewrite kept a
slow, obviously-correct reference (a loop, a per-slot digest, a naive
walk) either in the code base or reconstructible in a few lines.  These
hypothesis-driven tests pin the equivalence:

* eviction-leaf order: :func:`repro.oram.derived.bit_reverse_table` vs
  the loop-based ``TinyOramController._bit_reverse``;
* path addressing: arithmetic ``path_indices`` / cached
  :class:`~repro.oram.derived.DerivedCache` tables vs a parent-pointer
  walk from the leaf bucket;
* path scan: ``OramTree.read_path`` vs a per-bucket view scan;
* Merkle digests: the framed one-hash-per-bucket engine vs the per-slot
  hasher in ``tests/oram/merkle_oracle.py`` (every node digest after
  every controller step, the slot directory, localization, scrubs and
  error text under in-place bit flips and slot replacements, and a
  snapshot/restore), plus per-slot ``sha256`` digests under injected
  bit-flip-style faults and post-heal re-verification;
* hot-cache hotness: the merged ``_all`` view vs a per-set scan;
* posmap init memo: the cache-hit replay vs an uncached draw.
"""

import hashlib
from dataclasses import dataclass
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.core.hot_cache import HotAddressCache
from repro.oram.block import Block
from repro.oram.config import OramConfig
from repro.oram.derived import DerivedCache, bit_reverse_table
from repro.oram.integrity import (
    IntegrityError,
    MerkleTree,
    _slot_bytes,
    _slot_digest,
)
from repro.oram.posmap import PositionMap
from repro.oram.tiny import TinyOramController
from repro.oram.tree import OramTree
from tests.oram import merkle_oracle
from tests.oram.merkle_oracle import OracleMerkleTree

# ----------------------------------------------------------------------
# Eviction-leaf order
# ----------------------------------------------------------------------


@given(
    bits=st.integers(min_value=0, max_value=14),
    value=st.integers(min_value=0),
)
@settings(max_examples=100, deadline=None)
def test_bit_reverse_table_matches_loop_reference(bits, value):
    value %= 1 << bits if bits else 1
    table = bit_reverse_table(bits)
    assert table[value] == TinyOramController._bit_reverse(value, bits)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_eviction_leaf_sequence_matches_bit_reverse_reference(seed):
    cfg = OramConfig(levels=5, z=4, a=3)
    ctl = TinyOramController(cfg, Random(seed))
    n = 3 * cfg.num_leaves  # wrap the counter a few times
    got = [ctl._next_eviction_leaf() for _ in range(n)]
    expected = [
        TinyOramController._bit_reverse(g % cfg.num_leaves, cfg.levels)
        for g in range(n)
    ]
    assert got == expected


# ----------------------------------------------------------------------
# Path addressing and path scan
# ----------------------------------------------------------------------


def _path_indices_reference(tree: OramTree, leaf: int) -> list[int]:
    """Walk parent pointers from the leaf bucket up to the root."""
    index = (1 << tree.levels) - 1 + leaf
    out = [index]
    while index > 0:
        index = (index - 1) // 2
        out.append(index)
    out.reverse()
    return out


@given(
    levels=st.integers(min_value=1, max_value=10),
    z=st.integers(min_value=1, max_value=5),
    leaf=st.integers(min_value=0),
)
@settings(max_examples=80, deadline=None)
def test_path_indices_match_parent_walk_reference(levels, z, leaf):
    tree = OramTree(levels, z)
    leaf %= tree.num_leaves
    reference = _path_indices_reference(tree, leaf)
    assert tree.path_indices(leaf) == reference
    derived = DerivedCache(tree)
    assert list(derived.path_indices(leaf)) == reference
    assert list(derived.path_bases(leaf)) == [i * z for i in reference]
    # Cache hit returns the identical table.
    assert derived.path_indices(leaf) is derived.path_indices(leaf)


@given(
    levels=st.integers(min_value=1, max_value=6),
    leaf=st.integers(min_value=0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_read_path_matches_bucket_view_reference(levels, leaf, seed):
    z = 3
    rng = Random(seed)
    tree = OramTree(levels, z)
    leaf %= tree.num_leaves
    # Sparsely populate the tree with recognisable blocks.
    for index in range(tree.num_buckets):
        for slot in range(z):
            if rng.random() < 0.4:
                tree.bucket(index)[slot] = Block(
                    addr=index * z + slot, leaf=rng.randrange(tree.num_leaves)
                )
    # Reference: per-bucket views, root -> leaf, then invalidate.
    expected = []
    for level, index in enumerate(tree.path_indices(leaf)):
        for slot, blk in enumerate(tree.bucket(index)):
            expected.append((level, slot, blk))
    survivors = {
        (i, s): blk
        for i, s, blk in tree.iter_blocks()
        if i not in tree.path_indices(leaf)
    }
    got = tree.read_path(leaf)
    assert got == expected
    # Read slots were invalidated; everything off-path survived untouched.
    for index in tree.path_indices(leaf):
        assert all(blk is None for blk in tree.bucket(index))
    assert {(i, s): blk for i, s, blk in tree.iter_blocks()} == survivors


# ----------------------------------------------------------------------
# Merkle digests (batched hasher vs per-slot reference), with faults
# ----------------------------------------------------------------------

payloads = st.one_of(
    st.none(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=12),
    st.lists(st.integers(min_value=0, max_value=255), max_size=6),
)

blocks = st.builds(
    Block,
    addr=st.integers(min_value=0, max_value=2**20),
    leaf=st.integers(min_value=0, max_value=2**20),
    version=st.integers(min_value=-4, max_value=2**20),
    payload=payloads,
    is_shadow=st.booleans(),
)


@given(blk=st.one_of(st.none(), blocks))
@settings(max_examples=100, deadline=None)
def test_slot_digest_is_sha256_of_preimage(blk):
    assert _slot_digest(blk) == hashlib.sha256(_slot_bytes(blk)).digest()
    assert _slot_bytes(blk) == merkle_oracle.slot_bytes(blk)
    assert _slot_digest(blk) == merkle_oracle.slot_digest(blk)


def _reference_corrupt_slots(merkle: MerkleTree) -> set[tuple[int, int]]:
    """Slow reference scrub: per-slot digest objects, one hash per slot."""
    tree = merkle.tree
    out = set()
    for index in range(tree.num_buckets):
        for slot, blk in enumerate(tree.bucket(index)):
            if _slot_digest(blk) != merkle.slot_digest(index, slot):
                out.add((index, slot))
    return out


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    flips=st.lists(
        st.tuples(
            st.integers(min_value=0),  # victim rank among occupied slots
            st.sampled_from(["version", "payload", "leaf", "shadow", "erase"]),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batched_localization_matches_per_slot_digest_reference(seed, flips):
    cfg = OramConfig(levels=4, z=4, a=3)
    ctl = TinyOramController(cfg, Random(seed))
    rng = Random(seed ^ 0x5A5A)
    for _ in range(20):
        ctl.access(rng.randrange(ctl.num_blocks), "read")
    merkle = MerkleTree(ctl.tree)
    assert merkle.verify_all() == []

    # Inject bit-flip-style faults: mutate occupied slots the same way the
    # fault injector does (version flip, payload wrap), plus forged leaf /
    # shadow-bit / whole-slot erasure variants.
    occupied = [(i, s) for i, s, _ in ctl.tree.iter_blocks()]
    touched = set()
    for rank, mode in flips:
        index, slot = occupied[rank % len(occupied)]
        blk = ctl.tree.bucket(index)[slot]
        if blk is None:
            continue
        if mode == "version":
            blk.version ^= 1
        elif mode == "payload":
            blk.payload = ("bitflip", blk.payload)
        elif mode == "leaf":
            blk.leaf ^= 1
        elif mode == "shadow":
            blk.is_shadow = not blk.is_shadow
        else:
            ctl.tree.bucket(index)[slot] = None
        touched.add((index, slot))

    # Two flips of the same field cancel out (version ^= 1 twice restores
    # the original), so the expected set is the *net* byte-level change
    # against the recorded pre-image, not merely which slots were touched.
    tampered = {
        (i, s)
        for i, s in touched
        if _slot_bytes(ctl.tree.bucket(i)[s]) != merkle.slot_bytes(i, s)
    }

    found = {(cs.bucket, cs.slot) for cs in merkle.verify_all()}
    assert found == tampered
    assert found == _reference_corrupt_slots(merkle)

    # Recovery: heal every corrupt slot from its directory entry, rehash,
    # and confirm both the batched and the reference scrub come up clean.
    for cs in merkle.verify_all():
        meta = merkle.slot_meta(cs.bucket, cs.slot)
        healed = None if meta is None else meta.make_block()
        ctl.tree.bucket(cs.bucket)[cs.slot] = healed
        merkle.rehash_bucket(cs.bucket)
    assert merkle.verify_all() == []
    assert _reference_corrupt_slots(merkle) == set()
    for leaf in range(cfg.num_leaves):
        merkle.verify_path(leaf)  # must not raise


# ----------------------------------------------------------------------
# Merkle engine vs the per-slot oracle, driven by a live controller
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Opaque:
    """A payload with no canonical codec: it hashes through ``repr``."""

    tag: int


any_payload = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=6),
    st.binary(max_size=6),
    st.floats(allow_nan=False),
    st.tuples(st.integers(), st.text(max_size=3)),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
    st.builds(Opaque, st.integers(min_value=0, max_value=9)),
)

forged_blocks = st.builds(
    Block,
    addr=st.integers(min_value=0, max_value=2**64 - 1),
    leaf=st.integers(min_value=0, max_value=2**64 - 1),
    version=st.integers(min_value=-(2**63), max_value=2**63 - 1),
    payload=any_payload,
    is_shadow=st.booleans(),
)

merkle_steps = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(min_value=0)),
        st.tuples(st.just("write"), st.integers(min_value=0), any_payload),
        st.tuples(st.just("dummy")),
        st.tuples(st.just("flip"), st.integers(min_value=0)),
        st.tuples(st.just("replace"), st.integers(min_value=0), forged_blocks),
    ),
    min_size=1,
    max_size=25,
)


def _verify_outcome(merkle, leaf):
    try:
        merkle.verify_path(leaf)
    except IntegrityError as err:
        return str(err)
    return None


def _assert_matches_rebuilt_oracle(merkle):
    """Engine state == a from-scratch oracle rebuild over the same tree."""
    tree = merkle.tree
    oracle = OracleMerkleTree(tree)
    assert merkle.root == oracle.root
    assert merkle._digests[:tree.num_buckets] == oracle._digests
    for index in range(tree.num_buckets):
        for slot in range(tree.z):
            assert merkle.slot_bytes(index, slot) == oracle.slot_bytes(index, slot)
            assert merkle.slot_digest(index, slot) == oracle.slot_digest(index, slot)
            assert merkle.slot_meta(index, slot) == oracle.slot_meta(index, slot)
    assert merkle.verify_all() == oracle.verify_all() == []
    return oracle


def _assert_tamper_outputs_match(merkle, oracle):
    """Both hashers localize and report a tampered tree identically."""
    assert merkle.verify_all() == oracle.verify_all()
    for leaf in range(merkle.tree.num_leaves):
        assert merkle.localize(leaf) == oracle.localize(leaf)
        assert _verify_outcome(merkle, leaf) == _verify_outcome(oracle, leaf)


@given(
    levels=st.integers(min_value=1, max_value=6),
    z=st.integers(min_value=1, max_value=5),
    partition=st.integers(min_value=0, max_value=7),
    seed=st.integers(min_value=0, max_value=2**16),
    steps=merkle_steps,
)
@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_merkle_engine_matches_per_slot_oracle(levels, z, partition, seed,
                                                steps):
    cfg = OramConfig(levels=levels, z=z, a=3, integrity=True)
    ctl = ShadowOramController(
        cfg, Random(seed), ShadowConfig.static(min(partition, levels + 1))
    )
    merkle = ctl.integrity
    oracle = _assert_matches_rebuilt_oracle(merkle)
    slots = ctl.tree._slots
    now = 0.0
    for step in steps:
        kind = step[0]
        if kind == "flip":
            # The injector's bit flip: mutate a tree-resident block in
            # place, then undo it so the controller can go on.
            occupied = [blk for blk in slots if blk is not None]
            if occupied:
                blk = occupied[step[1] % len(occupied)]
                old_payload = blk.payload
                blk.version ^= 1
                blk.payload = ("bitflip", old_payload)
                assert merkle.verify_all()
                _assert_tamper_outputs_match(merkle, oracle)
                blk.version ^= 1
                blk.payload = old_payload
        elif kind == "replace":
            forged = step[2]
            assert _slot_bytes(forged) == merkle_oracle.slot_bytes(forged)
            pos = step[1] % len(slots)
            original = slots[pos]
            slots[pos] = forged
            _assert_tamper_outputs_match(merkle, oracle)
            slots[pos] = original
        elif kind == "dummy":
            now = ctl.dummy_access(now).finish
        else:
            addr = step[1] % ctl.num_blocks
            payload = step[2] if kind == "write" else None
            now = ctl.access(addr, kind, payload=payload, now=now).finish
        oracle = _assert_matches_rebuilt_oracle(merkle)


@pytest.mark.parametrize("levels", [3, 5])
def test_tampering_after_restore_is_detected(levels):
    """``restore_state`` rebinds ``tree._slots``; the engine reads the new list."""
    cfg = OramConfig(levels=levels, z=4, a=3, integrity=True)
    ctl = ShadowOramController(cfg, Random(levels), ShadowConfig.static(2))
    rng = Random(7)
    for i in range(30):
        ctl.access(rng.randrange(ctl.num_blocks), "write", payload=i)
    state = ctl.snapshot_state()
    for _ in range(30):
        ctl.access(rng.randrange(ctl.num_blocks), "read")
    stale = ctl.tree._slots
    ctl.restore_state(state)
    assert ctl.tree._slots is not stale
    merkle = ctl.integrity
    _assert_matches_rebuilt_oracle(merkle)
    for _ in range(10):
        ctl.access(rng.randrange(ctl.num_blocks), "read")
        _assert_matches_rebuilt_oracle(merkle)

    # Writes to the list the restore replaced are not the tree any more.
    stale[0] = Block(addr=1, leaf=0, version=99)
    assert merkle.verify_all() == []

    idx, slot, blk = next(iter(ctl.tree.iter_blocks()))
    ctl.tree.bucket(idx)[slot] = Block(blk.addr, blk.leaf, blk.version + 1,
                                       blk.payload, blk.is_shadow)
    assert [(cs.bucket, cs.slot) for cs in merkle.verify_all()] == [(idx, slot)]
    level = ctl.tree.level_of_bucket(idx)
    leaf = (idx - (1 << level) + 1) << (levels - level)  # a leaf below idx
    with pytest.raises(IntegrityError, match=f"at bucket {idx} "):
        merkle.verify_path(leaf)


# ----------------------------------------------------------------------
# Hot Address Cache merged view
# ----------------------------------------------------------------------


@given(
    addrs=st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                   max_size=200),
)
@settings(max_examples=50, deadline=None)
def test_hot_cache_merged_view_matches_set_scan(addrs):
    cache = HotAddressCache(sets=4, ways=2)
    for addr in addrs:
        cache.touch(addr)
        # Reference: hotness of an address is its counter in the one set
        # that can hold it (0 when untracked).
        for probe in set(addrs):
            assert cache.hotness(probe) == cache._set_of(probe).get(probe, 0)
    merged = {
        addr: count
        for line in cache._lines
        for addr, count in line.items()
    }
    assert cache._all == merged
    # The merged view survives a snapshot/restore round trip.
    restored = HotAddressCache(sets=4, ways=2)
    restored.restore_state(cache.snapshot_state())
    assert restored._all == merged
    assert [list(line.items()) for line in restored._lines] == [
        list(line.items()) for line in cache._lines
    ]


# ----------------------------------------------------------------------
# Posmap init memoization
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_blocks=st.integers(min_value=1, max_value=200),
    leaf_bits=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_posmap_init_cache_replays_identical_stream(seed, num_blocks,
                                                    leaf_bits):
    num_leaves = 1 << leaf_bits
    # Reference: the plain uncached draw.
    ref_rng = Random(seed)
    expected_leaves = [ref_rng.randrange(num_leaves) for _ in range(num_blocks)]
    expected_stream = [ref_rng.random() for _ in range(20)]

    # First construction populates the memo, second replays it; both must
    # produce the reference table AND leave the generator positioned so
    # the downstream stream is bit-identical to the uncached draw.
    for _ in range(2):
        rng = Random(seed)
        posmap = PositionMap(num_blocks, num_leaves, rng)
        assert posmap._leaf == expected_leaves
        assert [rng.random() for _ in range(20)] == expected_stream


# ----------------------------------------------------------------------
# End-to-end: optimized controller vs itself under integrity + healing
# ----------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(
    max_examples=5, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_healed_run_matches_fault_free_reference(seed):
    """A bit flip healed by recovery leaves the run bit-identical.

    This is the recovery-facing differential: the fault-free run is the
    reference, and the faulted-then-healed run (batched Merkle scrub +
    directory heal) must converge to the same final state.
    """
    def build():
        cfg = OramConfig(levels=5, z=4, a=3, integrity=True,
                         recovery="recover", scrub_interval=1)
        return ShadowOramController(
            cfg, Random(seed), ShadowConfig.static(3)
        )

    rng = Random(seed ^ 0xBEEF)
    ops = [(rng.randrange(40), rng.random() < 0.3) for _ in range(40)]

    reference = build()
    faulted = build()
    for i, (raw_addr, is_write) in enumerate(ops):
        if i == 12:
            # Identical injected flip in the faulted controller only: the
            # first occupied tree slot gets the injector's mutation.
            for index, slot, blk in faulted.tree.iter_blocks():
                blk.version ^= 1
                blk.payload = ("bitflip", blk.payload)
                break
        for ctl in (reference, faulted):
            addr = raw_addr % ctl.num_blocks
            if is_write:
                ctl.access(addr, "write", payload=i)
            else:
                ctl.access(addr, "read")

    assert faulted.recovery.stats.recoveries >= 1
    assert faulted.tree.snapshot_state() == reference.tree.snapshot_state()
    assert faulted.stash.snapshot_state() == reference.stash.snapshot_state()
    assert faulted.posmap._leaf == reference.posmap._leaf
