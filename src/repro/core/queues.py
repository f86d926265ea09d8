"""RD-queue and HD-queue: duplication candidate selection (Section V-B-2).

During a path write the controller collects every block it writes back to
the tree (plus evictable shadow blocks from the stash) as *duplication
candidates*.  When a slot would otherwise hold a dummy, the head of the
appropriate queue is copied into it as a shadow block:

* the **RD-queue** ranks candidates by *level* — the deepest-placed (rear)
  block has the highest priority, because it is the one whose access a
  future path read would otherwise serve last;
* the **HD-queue** ranks candidates by their Hot Address Cache counter.

Both queues are rebuilt for every path write and cleared afterwards, as in
the hardware design.  Selection must honour the shadow-block rules of
Section IV-A: a copy may only be written strictly root-ward of the
candidate's current lowest copy (Rule-2), and only into a bucket that lies
on the candidate's own path (Rule-1) — automatic for blocks evicted onto
this very path, checked explicitly for re-evicted stash shadows.

:func:`place_shadows` is the one implementation of this selection.  The
Tiny ORAM shadow controller and Ring ORAM both call it; they differ only
in bucket stride, dummy slots held back per bucket, and whether HD-Dup
takes part.  The queues as separate objects are the differential oracle
in ``tests/core/queue_oracle.py``.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import Callable

from repro.oram.block import Block

_PRIORITY = itemgetter(0)


def place_shadows(
    leaf: int,
    buf: list[Block | None],
    fill: list[int],
    stride: int,
    reserve: int,
    blocks: list[Block],
    bounds: list[int],
    n_path: int,
    hots: list[int] | None = None,
    uses_hd: Callable[[int], bool] | None = None,
    on_place: Callable[[Block, int, bool, int], None] | None = None,
) -> tuple[list[bool], int, int]:
    """Algorithm 1: fill one path write's dummy slots with shadow copies.

    Both queues hold the *same* candidates and differ only in priority
    key, so one set of parallel lists serves both.  Levels are walked
    leaf to root; at each level the ``free`` highest-priority eligible
    candidates are copied into the bucket's leftover slots, highest
    priority first.

    Args:
        leaf: The path being written.
        buf: Flat path buffer; level ``lvl`` occupies
            ``buf[lvl * stride : (lvl + 1) * stride]`` and its first
            ``fill[lvl]`` slots hold the real blocks just placed.
        fill: Real blocks placed per level.
        stride: Slots per bucket in ``buf``.
        reserve: Dummy slots per bucket that must stay dummies.
        blocks: Candidates.  The first ``n_path`` were written back onto
            this path; the rest are stash shadows, checked against Rule-1.
        bounds: Level of each candidate's root-most copy on this path; a
            new copy must go strictly root-ward (Rule-2).  Lowered in
            place as copies are placed.
        n_path: Number of leading candidates written back on this path.
        hots: Hot Address Cache counter per candidate (HD priority).
        uses_hd: Partitioning: whether a level's dummy slots belong to
            HD-Dup (requires ``hots``).  ``None`` means RD-Dup everywhere.
        on_place: Called as ``on_place(copy, level, use_hd, index)`` for
            every shadow placed, in placement order.

    Returns:
        ``(used, rd, hd)``: whether each candidate produced at least one
        copy, and how many copies each queue placed.
    """
    levels = len(fill) - 1
    ncand = len(blocks)
    # Rule-1 bounds: the deepest level a candidate's own path shares with
    # the eviction path (inlined OramTree.common_level).  Blocks written
    # back on this path get an unbounded ``levels + 1``, so the scan loop
    # uses one ``rule1[idx] < level`` test for everybody.
    rule1 = [levels + 1] * n_path
    for idx in range(n_path, ncand):
        diff = blocks[idx].leaf ^ leaf
        rule1.append(levels if diff == 0 else levels - diff.bit_length())
    max_bound = max(bounds, default=-1)
    used = [False] * ncand

    # Deepest-bound-first activation schedule.  A candidate is eligible
    # (Rule-1 aside) once the level drops strictly below its bound; a
    # selection then lowers the bound to the level just placed at, which
    # is still deeper than every level yet to come — so eligibility, once
    # gained, is never lost, ``active`` grows monotonically as the walk
    # descends, and no per-candidate ``level >= bound`` test is needed.
    # ``insort`` keeps ``active`` in candidate order, the queues' scan
    # order.
    activation = sorted(zip(bounds, range(ncand)))
    act_ptr = ncand - 1
    active: list[int] = []

    rd_selected = hd_selected = 0
    use_hd = False
    for level in range(levels, -1, -1):
        free = stride - reserve - fill[level]
        if free <= 0 or level >= max_bound:
            # No free slot, or no candidate can satisfy Rule-2 here: every
            # bound is at most ``max_bound`` (selection only lowers
            # bounds) and eligibility needs a strictly deeper one.
            continue
        if uses_hd is not None:
            use_hd = uses_hd(level)
        while act_ptr >= 0:
            bound, idx = activation[act_ptr]
            if bound <= level:
                break
            insort(active, idx)
            act_ptr -= 1
        # (priority, index) best-list, lowest priority first; displacement
        # needs strictly higher priority.  Sorting is deferred until the
        # list first fills — a stable sort on the priority key is
        # idempotent, so every later state and the final stable re-sort
        # match the queues' sorting after every append.
        priority_of = hots if use_hd else bounds
        best: list[tuple[int, int]] = []
        nbest = 0
        for idx in active:
            if rule1[idx] < level:
                continue
            priority = priority_of[idx]
            if nbest < free:
                best.append((priority, idx))
                nbest += 1
                if nbest == free:
                    best.sort(key=_PRIORITY)
            elif priority > best[0][0]:
                best[0] = (priority, idx)
                best.sort(key=_PRIORITY)
        if not best:
            continue
        if use_hd:
            hd_selected += nbest
        else:
            rd_selected += nbest
        base = level * stride + fill[level]
        for offset, (_priority, idx) in enumerate(
            sorted(best, key=lambda pc: -pc[0])
        ):
            bounds[idx] = level
            used[idx] = True
            copy = blocks[idx].shadow_copy()
            buf[base + offset] = copy
            if on_place is not None:
                on_place(copy, level, use_hd, idx)
    return used, rd_selected, hd_selected
