"""Dict-based stash: the differential oracle for :class:`repro.oram.stash.Stash`.

This is the stash as it stood before the shadow FIFO became an
``OrderedDict``: both stores are plain dicts, the oldest shadow is
dropped with ``del d[next(iter(d))]``, and the Rule-2 bookkeeping the
shadow controller used to keep beside it (each stashed shadow's source
level and arrival stamp, its removal on re-eviction, and the full FIFO
scan plus stable hotness sort that ranked the re-eviction candidates) is
folded in as it ran there.  It carries one fix the engine has too: a
shadow arriving at a stash full of real blocks is dropped (and counted)
instead of squatting past capacity.

``tests/oram/test_stash_oracle.py`` drives both through random inserts,
removals, re-evictions, candidate queries, repairs and checkpoint round
trips and compares them after every step.
"""

from __future__ import annotations

from operator import itemgetter

from repro.oram.block import Block, block_from_jsonable, block_to_jsonable
from repro.oram.stash import StashOverflowError


class OracleStash:
    """Bounded stash of real blocks plus FIFO-replaceable shadows."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._real: dict[int, Block] = {}
        self._shadow: dict[int, Block] = {}
        self._shadow_source_level: dict[int, int] = {}
        self._shadow_seq: dict[int, int] = {}
        self._shadow_seq_next = 0
        self.peak_real = 0
        self.shadow_drops = 0
        self.merges = 0

    def insert(self, blk: Block, level: int = 0) -> None:
        real = self._real
        shadow = self._shadow
        addr = blk.addr
        if blk.is_shadow:
            if addr in real or addr in shadow:
                self.merges += 1
                return
            if len(real) + len(shadow) + 1 > self.capacity:
                if not shadow:
                    self.shadow_drops += 1
                    return
                del shadow[next(iter(shadow))]
                self.shadow_drops += 1
            shadow[addr] = blk
            self._shadow_source_level[addr] = level
            self._shadow_seq[addr] = self._shadow_seq_next
            self._shadow_seq_next += 1
            return

        if shadow.pop(addr, None) is not None:
            self.merges += 1
        if addr in real:
            raise StashOverflowError(f"duplicate real block for addr {addr}")
        nreal = len(real)
        if nreal >= self.capacity:
            raise StashOverflowError(f"stash overflow: capacity {self.capacity}")
        real[addr] = blk
        nreal += 1
        if nreal + len(shadow) > self.capacity and shadow:
            del shadow[next(iter(shadow))]
            self.shadow_drops += 1
        if nreal > self.peak_real:
            self.peak_real = nreal
        self._shadow_source_level.pop(addr, None)

    def remove_real(self, addr: int) -> Block:
        return self._real.pop(addr)

    def remove_shadow(self, addr: int) -> Block | None:
        return self._shadow.pop(addr, None)

    def evictable_shadows(
        self, hotness: dict[int, int], cap: int
    ) -> list[tuple[Block, int, int]]:
        eligible = []
        for addr, sblk in self._shadow.items():  # FIFO order
            lvl = self._shadow_source_level.get(addr, 0)
            if lvl > 0:
                eligible.append((sblk, lvl, hotness.get(addr, 0)))
        eligible.sort(key=itemgetter(2), reverse=True)  # stable: FIFO ties
        return eligible[:cap]

    def evict_shadow(self, addr: int) -> None:
        self._shadow.pop(addr, None)
        self._shadow_source_level.pop(addr, None)

    def repair_shadow(self, addr: int, blk: Block) -> None:
        if addr in self._shadow:
            self._shadow[addr] = blk

    def source_levels(self) -> list[list[int]]:
        return [[addr, lvl] for addr, lvl in self._shadow_source_level.items()]

    def restore_source_levels(self, pairs: list[list[int]]) -> None:
        self._shadow_source_level = {int(addr): int(lvl) for addr, lvl in pairs}

    def snapshot_state(self) -> dict[str, object]:
        return {
            "real": [block_to_jsonable(blk) for blk in self._real.values()],
            "shadow": [block_to_jsonable(blk) for blk in self._shadow.values()],
            "peak_real": self.peak_real,
            "shadow_drops": self.shadow_drops,
            "merges": self.merges,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        self._real = {}
        for data in state["real"]:
            blk = block_from_jsonable(data)
            self._real[blk.addr] = blk
        self._shadow = {}
        for data in state["shadow"]:
            blk = block_from_jsonable(data)
            self._shadow[blk.addr] = blk
        self.peak_real = state["peak_real"]
        self.shadow_drops = state["shadow_drops"]
        self.merges = state["merges"]
        self._shadow_source_level = {}
        self._shadow_seq = {addr: seq for seq, addr in enumerate(self._shadow)}
        self._shadow_seq_next = len(self._shadow_seq)
