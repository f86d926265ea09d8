"""Adversary model: what the attacker of Section II-A can observe.

The attacker sits on the memory bus and records, for every path access,
its direction (read/write), the leaf label (equivalently the set of bucket
addresses touched) and the time.  It cannot see block contents (they are
probabilistically encrypted) or anything inside the controller.

:class:`AccessPatternObserver` is the callback object the controllers feed
with exactly this view; the security test suites and
:mod:`repro.security.distinguisher` analyse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class AccessPatternObserver:
    """Records the externally visible trace of an ORAM controller."""

    events: list[tuple[str, int, float]] = field(default_factory=list)

    def __call__(self, event: tuple[str, int, float]) -> None:
        self.events.append(event)

    # ------------------------------------------------------------------
    def read_leaves(self) -> list[int]:
        """Leaf labels of path reads, in order."""
        return [leaf for kind, leaf, _t in self.events if kind == "read"]

    def write_leaves(self) -> list[int]:
        """Leaf labels of path writes, in order."""
        return [leaf for kind, leaf, _t in self.events if kind == "write"]

    def kinds(self) -> list[str]:
        """Sequence of event kinds (``read``/``write``)."""
        return [kind for kind, _leaf, _t in self.events]

    def __len__(self) -> int:
        return len(self.events)


@dataclass(slots=True)
class ShardTraceObserver:
    """Records the inter-shard dispatch stream of a sharded fleet.

    The PR 9 extension of the adversary model (DESIGN.md §11): with the
    address space sharded across workers, the attacker additionally sits
    on the supervisor-to-shard links and records *which shard* each
    dispatch slot addresses, in order.  It cannot tell a real access
    from a padding dummy (contents are encrypted) — the slot's
    destination and position are the whole observable.

    The :class:`~repro.shard.supervisor.ShardSupervisor` feeds this with
    one ``(round, shard)`` event per slot, including the virtual slots
    it emits for dead shards, which is exactly why a crash-and-recover
    run is indistinguishable from a clean one.
    """

    events: list[tuple[int, int]] = field(default_factory=list)

    def __call__(self, event: tuple[int, int]) -> None:
        self.events.append(event)

    # ------------------------------------------------------------------
    def shard_stream(self) -> list[int]:
        """The shard index of every dispatch slot, in link order."""
        return [shard for _round, shard in self.events]

    def __len__(self) -> int:
        return len(self.events)


def leaf_histogram(leaves: list[int], num_leaves: int) -> list[int]:
    """Occurrence counts per leaf label."""
    hist = [0] * num_leaves
    for leaf in leaves:
        hist[leaf] += 1
    return hist


def chi_square_uniformity(leaves: list[int], num_leaves: int, bins: int = 16) -> float:
    """Chi-square statistic of the leaf sequence against uniformity.

    Leaves are folded into ``bins`` equal-width bins (labels are uniform on
    ``[0, num_leaves)`` under the null hypothesis).  Returns the statistic;
    the caller compares it against a chi-square quantile with
    ``bins - 1`` degrees of freedom.
    """
    if not leaves:
        raise ValueError("empty leaf sequence")
    if num_leaves % bins != 0:
        raise ValueError(f"{bins} bins must divide {num_leaves} leaves")
    width = num_leaves // bins
    counts = [0] * bins
    for leaf in leaves:
        counts[leaf // width] += 1
    expected = len(leaves) / bins
    return sum((c - expected) ** 2 / expected for c in counts)


def lag_autocorrelation(leaves: list[int], lag: int = 1) -> float:
    """Autocorrelation of the leaf sequence at ``lag``.

    For a secure ORAM consecutive path reads are independent uniform
    draws, so the autocorrelation should be statistically zero.
    """
    n = len(leaves)
    if n <= lag + 1:
        raise ValueError(f"need more than {lag + 1} events, got {n}")
    mean = sum(leaves) / n
    var = sum((x - mean) ** 2 for x in leaves) / n
    if var == 0:
        return 0.0
    cov = sum(
        (leaves[i] - mean) * (leaves[i + lag] - mean) for i in range(n - lag)
    ) / (n - lag)
    return cov / var
