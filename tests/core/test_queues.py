"""Unit tests for shadow selection (Algorithm 1) and the shadow rules.

Every selection case runs against two implementations: the class-based
queue oracle (``queue_oracle.py``) and
:func:`repro.core.queues.place_shadows`, the routine both ORAM
controllers call.  A case describes one path write on an L=6 tree —
candidates, free dummy slots per level, the eviction leaf — and expects
the placed ``(level, addr)`` shadows in placement order.
"""

import pytest

from repro.core.queues import place_shadows
from repro.oram.block import Block
from tests.core.queue_oracle import (
    DupCandidate,
    DuplicationQueue,
    hd_queue,
    rd_queue,
)

LEVELS = 6
Z = 4


def cand(addr=0, leaf=0, level_bound=5, hotness=0, from_stash=False):
    return DupCandidate(
        block=Block(addr=addr, leaf=leaf),
        level_bound=level_bound,
        hotness=hotness,
        from_stash_shadow=from_stash,
    )


def oracle_fill(cands, free, evict_leaf, hd=False):
    """One path write through the queue oracle."""
    queue = hd_queue() if hd else rd_queue()
    for c in cands:
        queue.push(c)
    return [
        (level, c.block.addr)
        for level in range(LEVELS, -1, -1)
        for c in queue.select_many(level, free.get(level, 0), evict_leaf, LEVELS)
    ]


def routine_fill(cands, free, evict_leaf, hd=False):
    """The same path write through :func:`place_shadows`."""
    n_path = sum(not c.from_stash_shadow for c in cands)
    assert not any(c.from_stash_shadow for c in cands[:n_path])
    placed = []
    place_shadows(
        evict_leaf,
        [None] * ((LEVELS + 1) * Z),
        [Z - free.get(level, 0) for level in range(LEVELS + 1)],
        Z,
        0,
        [c.block for c in cands],
        [c.level_bound for c in cands],
        n_path,
        [c.hotness for c in cands],
        (lambda level: True) if hd else None,
        lambda copy, level, _hd, _idx: placed.append((level, copy.addr)),
    )
    return placed


class EligibilityCases:
    def test_rule2_strictly_root_ward(self):
        assert self.fill([cand(level_bound=4)], {3: 1}, 0) == [(3, 0)]
        assert self.fill([cand(level_bound=4)], {4: 1, 5: 1}, 0) == []

    def test_rule1_checked_for_stash_shadows(self):
        # Leaf 0 and evict leaf 32 (L=6) share only the root: a stash
        # shadow of leaf 0 cannot go to level 2 of path 32.
        stashed = cand(leaf=0, level_bound=5, from_stash=True)
        assert self.fill([stashed], {0: 1}, 32) == [(0, 0)]
        stashed = cand(leaf=0, level_bound=5, from_stash=True)
        assert self.fill([stashed], {2: 1}, 32) == []

    def test_rule1_skipped_for_same_path_evictions(self):
        # Blocks evicted on this very path are consistent by construction.
        assert self.fill([cand(leaf=0, level_bound=5)], {2: 1}, 32) == [(2, 0)]


class SelectionCases:
    def test_rd_queue_picks_deepest(self):
        shallow = cand(addr=1, level_bound=3)
        deep = cand(addr=2, level_bound=6)
        assert self.fill([shallow, deep], {1: 1}, 0) == [(1, 2)]

    def test_hd_queue_picks_hottest(self):
        cold = cand(addr=1, level_bound=6, hotness=1)
        hot = cand(addr=2, level_bound=6, hotness=9)
        assert self.fill([cold, hot], {1: 1}, 0, hd=True) == [(1, 2)]

    def test_selection_updates_level_bound(self):
        # Figure 4(b): after duplication at level 2, a's level becomes 2
        # and it no longer outranks b (level 4) for the level-1 slot.
        a = cand(addr=1, level_bound=6)
        b = cand(addr=2, level_bound=4)
        assert self.fill([a, b], {2: 1, 1: 1}, 0) == [(2, 1), (1, 2)]

    def test_empty_or_ineligible_returns_none(self):
        assert self.fill([], {0: 1}, 0) == []
        assert self.fill([cand(level_bound=1)], {1: 1}, 0) == []

    def test_select_many_returns_distinct_candidates(self):
        cands = [cand(addr=i, level_bound=3 + i) for i in range(4)]
        # Highest bounds first, each candidate once per bucket.
        assert self.fill(cands, {1: 3}, 0) == [(1, 3), (1, 2), (1, 1)]

    def test_select_many_zero_count(self):
        assert self.fill([cand()], {}, 0) == []


class TestEligibility(EligibilityCases):
    fill = staticmethod(oracle_fill)


class TestSelection(SelectionCases):
    fill = staticmethod(oracle_fill)

    def test_unknown_priority_key_rejected(self):
        with pytest.raises(ValueError):
            DuplicationQueue("speed")

    def test_clear(self):
        q = rd_queue()
        q.push(cand())
        q.clear()
        assert len(q) == 0


class TestRoutineEligibility(EligibilityCases):
    fill = staticmethod(routine_fill)


class TestRoutineSelection(SelectionCases):
    fill = staticmethod(routine_fill)
