"""Tests for the Merkle integrity-verification layer."""

from random import Random

import pytest

from repro.core.config import ShadowConfig
from repro.core.controller import ShadowOramController
from repro.oram.block import Block
from repro.oram.config import OramConfig
from repro.oram.integrity import IntegrityError, MerkleTree
from repro.oram.tiny import TinyOramController
from repro.oram.tree import OramTree

SECURE = OramConfig(levels=5, z=4, a=3, utilization=0.25, stash_capacity=150,
                    integrity=True)


class TestMerkleTree:
    def _tree(self):
        tree = OramTree(levels=3, z=2)
        tree.write_path(5, {(0, 0): Block(addr=1, leaf=5, version=2)})
        return tree

    def test_clean_paths_verify(self):
        tree = self._tree()
        merkle = MerkleTree(tree)
        for leaf in range(tree.num_leaves):
            merkle.verify_path(leaf)

    def test_tampered_bucket_detected(self):
        tree = self._tree()
        merkle = MerkleTree(tree)
        idx = tree.bucket_index(5, 2)
        tree.bucket(idx)[0] = Block(addr=99, leaf=5, version=0)
        with pytest.raises(IntegrityError, match="level 2"):
            merkle.verify_path(5)

    def test_stale_block_replay_detected(self):
        # Replay attack: put back an OLD version of a block.
        tree = self._tree()
        idx = tree.bucket_index(5, 0)
        tree.bucket(idx)[0] = Block(addr=1, leaf=5, version=2)
        merkle = MerkleTree(tree)
        tree.bucket(idx)[0] = Block(addr=1, leaf=5, version=1)  # stale
        with pytest.raises(IntegrityError):
            merkle.verify_path(5)

    def test_tamper_off_path_detected_via_sibling(self):
        # A tampered bucket off the verified path changes the root, so a
        # full verification from the root catches it on ANY path whose
        # ancestors cover it... here we verify the tampered path directly.
        tree = self._tree()
        merkle = MerkleTree(tree)
        victim_leaf = 0
        idx = tree.bucket_index(victim_leaf, 3)
        tree.bucket(idx)[1] = Block(addr=7, leaf=victim_leaf)
        with pytest.raises(IntegrityError):
            merkle.verify_path(victim_leaf)

    def test_update_path_restores_verifiability(self):
        tree = self._tree()
        merkle = MerkleTree(tree)
        root_before = merkle.root
        tree.write_path(5, {(1, 0): Block(addr=2, leaf=5)})
        merkle.update_path(5, range(tree.levels + 1))
        assert merkle.root != root_before
        merkle.verify_path(5)

    def test_dummy_and_shadow_hash_differently(self):
        tree = OramTree(levels=2, z=1)
        merkle = MerkleTree(tree)
        root_empty = merkle.root
        tree.bucket(0)[0] = Block(addr=1, leaf=0, is_shadow=True)
        merkle.update_path(0, [0])
        assert merkle.root != root_empty


class TestUpdateContract:
    """``update_path(leaf, levels)`` re-frames exactly the named levels."""

    LEAF = 5

    def _tree(self):
        tree = OramTree(levels=3, z=2)
        tree.write_path(self.LEAF, {
            (level, 0): Block(addr=level, leaf=self.LEAF, version=level,
                              payload=("p", level))
            for level in range(tree.levels + 1)
        })
        # A shadow off path LEAF, whose bucket no update here names.
        tree.bucket(tree.bucket_index(2, 3))[1] = Block(
            addr=9, leaf=2, is_shadow=True
        )
        return tree

    @staticmethod
    def _directory(merkle):
        tree = merkle.tree
        return [
            (merkle.slot_bytes(index, slot), merkle.slot_meta(index, slot))
            for index in range(tree.num_buckets)
            for slot in range(tree.z)
        ]

    def _change(self, tree, levels):
        """Rewrite path ``LEAF`` at ``levels``: clear one block, add one."""
        for level in levels:
            bucket = tree.bucket(tree.bucket_index(self.LEAF, level))
            bucket[0] = None
            bucket[1] = Block(addr=10 + level, leaf=self.LEAF, version=1,
                              payload=[level], is_shadow=level % 2 == 1)

    @pytest.mark.parametrize(
        "levels", [[3], [0], [1, 2], [2, 2], [3, 0], [0, 1, 2, 3]]
    )
    def test_matches_a_tree_built_from_scratch(self, levels):
        tree = self._tree()
        merkle = MerkleTree(tree)
        self._change(tree, levels)
        root = merkle.update_path(self.LEAF, levels)
        fresh = MerkleTree(tree)
        assert root == merkle.root == fresh.root
        assert merkle._digests == fresh._digests
        assert self._directory(merkle) == self._directory(fresh)
        for leaf in range(tree.num_leaves):
            merkle.verify_path(leaf)

    def test_rehash_bucket_matches_a_tree_built_from_scratch(self):
        tree = self._tree()
        merkle = MerkleTree(tree)
        index = tree.bucket_index(self.LEAF, 2)
        tree.bucket(index)[1] = Block(addr=7, leaf=self.LEAF)
        merkle.rehash_bucket(index)
        fresh = MerkleTree(tree)
        assert merkle._digests == fresh._digests
        assert self._directory(merkle) == self._directory(fresh)

    def test_no_levels_leave_root_and_directory_untouched(self):
        tree = self._tree()
        merkle = MerkleTree(tree)
        root = merkle.root
        digests = list(merkle._digests)
        directory = self._directory(merkle)
        self._change(tree, [1])
        assert merkle.update_path(self.LEAF, []) == root
        assert merkle.root == root
        assert merkle._digests == digests
        assert self._directory(merkle) == directory

    def test_change_at_an_unnamed_level_is_not_authenticated(self):
        tree = self._tree()
        merkle = MerkleTree(tree)
        self._change(tree, [1, 3])
        merkle.update_path(self.LEAF, [3])
        index = tree.bucket_index(self.LEAF, 1)
        assert not merkle.is_authentic(index, 1, tree.bucket(index)[1])
        with pytest.raises(IntegrityError, match=f"bucket {index} .level 1."):
            merkle.verify_path(self.LEAF)


class TestIntegratedIntegrity:
    """``OramConfig(integrity=True)``: every path is verified before it is read."""

    @pytest.mark.parametrize("kind", ["tiny", "shadow"])
    def test_normal_operation_verifies_clean(self, kind):
        if kind == "tiny":
            ctl = TinyOramController(SECURE, Random(1))
        else:
            ctl = ShadowOramController(SECURE, Random(1), ShadowConfig.static(2))
        merkle = ctl.integrity
        verified = []
        verify = merkle.verify_path

        def counting_verify(leaf):
            verified.append(leaf)
            verify(leaf)

        merkle.verify_path = counting_verify
        rng = Random(2)
        model = {}
        for i in range(200):
            addr = rng.randrange(ctl.num_blocks)
            if rng.random() < 0.4:
                ctl.access(addr, "write", payload=i)
                model[addr] = i
            else:
                assert ctl.access(addr, "read").value == model.get(addr)
        # Demand, dummy and eviction paths alike are verified before the
        # read, and the tree stays authenticated throughout.
        assert len(verified) == ctl.stats.path_reads > 0
        assert merkle.verify_all() == []

    def test_tampering_is_caught(self):
        ctl = TinyOramController(SECURE, Random(1))
        ctl.access(0, "read")
        # Adversary overwrites the root bucket in untrusted memory.
        ctl.tree.bucket(0)[0] = Block(addr=5, leaf=0, version=9)
        with pytest.raises(IntegrityError, match="bucket 0 "):
            for addr in range(ctl.num_blocks):
                ctl.access(addr, "read")


FORGERIES = {
    "negative-addr": lambda blk: Block(addr=-5, leaf=blk.leaf,
                                       version=blk.version),
    "version-2**63": lambda blk: Block(addr=blk.addr, leaf=blk.leaf,
                                       version=2**63),
    "addr-2**64": lambda blk: Block(addr=2**64, leaf=blk.leaf,
                                    version=blk.version),
}


class TestForgedSlots:
    """Slot fields that do not fit the encoding fail verification cleanly."""

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    @pytest.mark.parametrize("policy", ["raise", "recover"])
    def test_forged_slot_is_detected_not_crashing(self, policy, forgery):
        cfg = OramConfig(levels=4, integrity=True, recovery=policy)
        ctl = TinyOramController(cfg, Random(3))
        idx, slot, blk = next(
            (i, s, b) for i, s, b in ctl.tree.iter_blocks()
            if ctl.tree.level_of_bucket(i) > 0
        )
        ctl.tree.bucket(idx)[slot] = FORGERIES[forgery](blk)
        if policy == "raise":
            with pytest.raises(IntegrityError, match=f"at bucket {idx} "):
                ctl.access(blk.addr, "read")
            return
        # The demand path holds the forged slot; recovery rebuilds the
        # block from the directory before the read.
        assert ctl.access(blk.addr, "read").value == blk.payload
        assert ctl.recovery.stats.recoveries == 1
        assert ctl.recovery.stats.recovered_from == {"rebuild": 1}
        assert ctl.integrity.verify_all() == []
