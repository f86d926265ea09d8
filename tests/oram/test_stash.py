"""Unit tests for the stash, including the shadow merge rules."""

import pytest

from repro.oram.block import Block
from repro.oram.stash import Stash, StashOverflowError


def real(addr, leaf=0, version=0):
    return Block(addr=addr, leaf=leaf, version=version)


def shadow(addr, leaf=0, version=0):
    return Block(addr=addr, leaf=leaf, version=version, is_shadow=True)


class TestBasics:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Stash(0)

    def test_insert_and_lookup_real(self):
        stash = Stash(4)
        blk = real(3)
        stash.insert(blk)
        assert stash.lookup(3) is blk
        assert stash.lookup_real(3) is blk
        assert stash.lookup_shadow(3) is None
        assert stash.real_count == 1

    def test_lookup_prefers_real_over_shadow(self):
        stash = Stash(4)
        s = shadow(1)
        stash.insert(s)
        r = real(1)
        stash.insert(r)
        assert stash.lookup(1) is r

    def test_remove_real_frees_slot(self):
        stash = Stash(1)
        stash.insert(real(1))
        stash.remove_real(1)
        stash.insert(real(2))  # must not overflow
        assert stash.real_count == 1


class TestOverflow:
    def test_real_overflow_raises(self):
        stash = Stash(2)
        stash.insert(real(1))
        stash.insert(real(2))
        with pytest.raises(StashOverflowError):
            stash.insert(real(3))

    def test_duplicate_real_raises(self):
        stash = Stash(4)
        stash.insert(real(1))
        with pytest.raises(StashOverflowError):
            stash.insert(real(1))

    def test_shadows_never_cause_overflow(self):
        # Rule-3: shadows are replaceable; they must be silently dropped
        # rather than blocking real insertions.
        stash = Stash(3)
        for addr in range(10, 20):
            stash.insert(shadow(addr))
        assert stash.shadow_count <= 3
        stash.insert(real(1))
        stash.insert(real(2))
        stash.insert(real(3))
        assert stash.real_count == 3
        assert stash.real_count + stash.shadow_count <= 3

    def test_peak_real_tracks_maximum(self):
        stash = Stash(5)
        for addr in range(4):
            stash.insert(real(addr))
        stash.remove_real(0)
        stash.remove_real(1)
        assert stash.real_count == 2
        assert stash.peak_real == 4


class TestMergeRules:
    def test_incoming_real_discards_stashed_shadow(self):
        stash = Stash(4)
        stash.insert(shadow(7, version=1))
        stash.insert(real(7, version=1))
        assert stash.lookup_shadow(7) is None
        assert stash.lookup_real(7) is not None
        assert stash.merges == 1

    def test_incoming_shadow_discarded_when_real_present(self):
        stash = Stash(4)
        r = real(7, version=2)
        stash.insert(r)
        stash.insert(shadow(7, version=2))
        assert stash.lookup_shadow(7) is None
        assert stash.lookup(7) is r
        assert stash.merges == 1

    def test_two_shadows_merge_into_one(self):
        stash = Stash(4)
        stash.insert(shadow(7))
        stash.insert(shadow(7))
        assert stash.shadow_count == 1
        assert stash.merges == 1

    def test_shadow_drop_is_fifo(self):
        stash = Stash(2)
        stash.insert(shadow(1))
        stash.insert(shadow(2))
        stash.insert(shadow(3))
        assert stash.lookup_shadow(1) is None
        assert stash.lookup_shadow(2) is not None
        assert stash.lookup_shadow(3) is not None
        assert stash.shadow_drops == 1

    def test_real_insert_evicts_shadow_when_full(self):
        stash = Stash(2)
        stash.insert(shadow(1))
        stash.insert(shadow(2))
        stash.insert(real(3))
        assert stash.real_count == 1
        assert stash.shadow_count == 1
        assert stash.real_count + stash.shadow_count <= 2

    def test_shadow_is_dropped_when_every_entry_is_real(self):
        # Rule-3: a shadow only uses space that is left.  With no older
        # shadow to replace, the incoming one is dropped and counted.
        stash = Stash(2)
        stash.insert(real(1))
        stash.insert(real(2))
        stash.insert(shadow(3))
        assert stash.lookup_shadow(3) is None
        assert stash.real_count + stash.shadow_count == 2
        assert stash.shadow_drops == 1
        stash.insert(shadow(4))
        assert stash.shadow_count == 0
        assert stash.shadow_drops == 2


class TestShadowMetadata:
    def test_kept_shadow_records_level_and_arrival(self):
        stash = Stash(4)
        stash.insert(shadow(1), level=3)
        stash.insert(shadow(2), level=5)
        assert stash._shadow_source_level == {1: 3, 2: 5}
        assert stash._shadow_seq[1] < stash._shadow_seq[2]

    def test_dropped_shadow_records_nothing(self):
        stash = Stash(1)
        stash.insert(real(1))
        stash.insert(shadow(2), level=4)
        assert stash._shadow_source_level == {}
        assert stash._shadow_seq == {}

    def test_merged_shadow_keeps_first_level(self):
        stash = Stash(4)
        stash.insert(shadow(1), level=3)
        stash.insert(shadow(1), level=1)
        assert stash._shadow_source_level == {1: 3}

    def test_real_arrival_forgets_level(self):
        stash = Stash(4)
        stash.insert(shadow(1), level=3)
        stash.insert(real(1), level=2)
        assert stash._shadow_source_level == {}

    def test_fifo_drop_leaves_a_stale_level(self):
        # Checkpoints carry these entries, so they must stay.
        stash = Stash(1)
        stash.insert(shadow(1), level=3)
        stash.insert(shadow(2), level=4)
        assert list(stash._shadow) == [2]
        assert stash._shadow_source_level == {1: 3, 2: 4}

    def test_restore_restamps_in_fifo_order(self):
        stash = Stash(4)
        for addr in (5, 2, 7):
            stash.insert(shadow(addr), level=1)
        stash.remove_shadow(5)
        copy = Stash(4)
        copy.restore_state(stash.snapshot_state())
        assert list(copy._shadow) == [2, 7]
        assert copy._shadow_seq == {2: 0, 7: 1}
        assert copy._shadow_seq_next == 2
        assert copy._shadow_source_level == {}
