"""Class-based RD/HD queues: the differential oracle for shadow selection.

This is the straightforward rendering of Section V-B-2's hardware queues
that :func:`repro.core.queues.place_shadows` flattens into parallel
arrays.  Each candidate is one :class:`DupCandidate`; both queues may
hold the *same* candidate objects (shared ``level_bound`` state) and
differ only in priority key:

* the **RD-queue** ranks candidates by *level* — the deepest-placed
  (rear) block first;
* the **HD-queue** ranks candidates by their Hot Address Cache counter.

Selection honours the shadow-block rules of Section IV-A: a copy may
only be written strictly root-ward of the candidate's current lowest copy
(Rule-2), and only into a bucket on the candidate's own path (Rule-1),
checked explicitly for re-evicted stash shadows.

``tests/core/test_queues.py`` runs every selection case against both
this oracle and the routine, and ``tests/core/test_differential.py``
drives whole controllers built on each.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.oram.block import Block
from repro.oram.tree import OramTree

_PRIORITY = itemgetter(0)


@dataclass(slots=True)
class DupCandidate:
    """A block eligible for duplication during the current path write.

    Attributes:
        block: The candidate block (its ``leaf`` / ``payload`` / ``version``
            are what the shadow copy will carry).
        level_bound: Level of the candidate's current root-most copy on
            this path; a new shadow must go to a strictly smaller level
            (Rule-2).  Updated every time the candidate is duplicated,
            which is what makes Figure 4(b)'s "Data-A's level changed to 1
            after duplication" behaviour fall out naturally.
        hotness: Hot Address Cache counter snapshot (HD-queue priority).
        from_stash_shadow: Whether the candidate is a shadow block being
            re-evicted from the stash (needs the explicit Rule-1 check).
        used: Set once the candidate produced at least one shadow copy.
        rule1_level: Cached ``common_level(block.leaf, evict_leaf)`` for
            stash-shadow candidates, computed on first use.
    """

    block: Block
    level_bound: int
    hotness: int = 0
    from_stash_shadow: bool = False
    used: bool = False
    rule1_level: int | None = None


class DuplicationQueue:
    """Priority queue over :class:`DupCandidate` for one path write.

    Queues are tiny (at most one entry per path slot) so selection is a
    linear scan, mirroring the CAM-style hardware structure.
    """

    def __init__(self, key: str) -> None:
        if key not in ("level_bound", "hotness"):
            raise ValueError(f"unknown priority key {key!r}")
        self._key = key
        self._candidates: list[DupCandidate] = []
        # Upper bound on any candidate's ``level_bound`` (selection only
        # lowers bounds, so the push-time maximum stays valid).
        self._max_bound = -1

    def __len__(self) -> int:
        return len(self._candidates)

    def push(self, candidate: DupCandidate) -> None:
        self._candidates.append(candidate)
        if candidate.level_bound > self._max_bound:
            self._max_bound = candidate.level_bound

    def select_many(
        self, slot_level: int, count: int, evict_leaf: int, levels: int
    ) -> list[DupCandidate]:
        """Pick up to ``count`` distinct candidates for one bucket's dummies.

        A single scan suffices for a whole bucket: once selected, a
        candidate's ``level_bound`` drops to ``slot_level``, making it
        ineligible for further slots at the same level (Rule-2 is strict),
        so the top-``count`` eligible candidates are exactly what per-slot
        selection would have produced.  Returned highest priority first.
        """
        if count <= 0 or slot_level >= self._max_bound:
            return []
        by_hotness = self._key == "hotness"
        # (priority, candidate) of current best picks, lowest priority first.
        best: list[tuple[int, DupCandidate]] = []
        for cand in self._candidates:
            if slot_level >= cand.level_bound:
                continue
            if cand.from_stash_shadow:
                # Rule-1: the slot's bucket must lie on the candidate's path.
                if cand.rule1_level is None:
                    cand.rule1_level = OramTree.common_level(
                        cand.block.leaf, evict_leaf, levels
                    )
                if cand.rule1_level < slot_level:
                    continue
            priority = cand.hotness if by_hotness else cand.level_bound
            if len(best) < count:
                best.append((priority, cand))
                best.sort(key=_PRIORITY)
            elif priority > best[0][0]:
                best[0] = (priority, cand)
                best.sort(key=_PRIORITY)
        chosen = [cand for _p, cand in sorted(best, key=lambda pc: -pc[0])]
        for cand in chosen:
            cand.level_bound = slot_level
            cand.used = True
        return chosen

    def clear(self) -> None:
        self._candidates.clear()
        self._max_bound = -1


def rd_queue() -> DuplicationQueue:
    """Rear-Data queue: priority = current level (deepest wins)."""
    return DuplicationQueue("level_bound")


def hd_queue() -> DuplicationQueue:
    """Hot-Data queue: priority = Hot Address Cache counter."""
    return DuplicationQueue("hotness")
