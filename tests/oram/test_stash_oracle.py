"""Differential test: the ``OrderedDict`` stash vs the dict-based oracle.

Random real and shadow inserts (with source levels), removals,
re-evictions, re-eviction candidate queries, shadow repairs and
checkpoint round trips go to :class:`repro.oram.stash.Stash` and to
:class:`tests.oram.stash_oracle.OracleStash`.  After every step both must
return the same candidates, hold the same blocks in the same FIFO order,
raise the same errors, count the same merges, drops and real peak, and
carry the same source levels and arrival stamps.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.oram.block import Block, block_to_jsonable
from repro.oram.stash import Stash
from tests.oram.stash_oracle import OracleStash

ADDRS = st.integers(min_value=0, max_value=11)
LEVELS = st.integers(min_value=0, max_value=6)
OPS = st.one_of(
    st.tuples(st.just("real"), ADDRS, LEVELS),
    st.tuples(st.just("shadow"), ADDRS, LEVELS),
    st.tuples(st.just("shadow"), ADDRS, LEVELS),
    st.tuples(st.just("remove_real"), ADDRS, st.just(0)),
    st.tuples(st.just("remove_shadow"), ADDRS, st.just(0)),
    st.tuples(st.just("evict_shadow"), ADDRS, st.just(0)),
    st.tuples(st.just("candidates"), st.just(0), LEVELS),
    st.tuples(st.just("repair"), ADDRS, LEVELS),
    st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
)
# Hot Address Cache counters are positive; untracked addresses are cold.
HOTNESS = st.dictionaries(ADDRS, st.integers(min_value=1, max_value=3))


def _apply(stash, op, addr, level, step, hotness):
    """Run one step; return its result and the name of the error it
    raised, if any.  ``candidates`` queries up to ``level`` + 1."""
    try:
        if op == "candidates":
            ranked = stash.evictable_shadows(hotness, level + 1)
            return [(block_to_jsonable(b), lvl, hot) for b, lvl, hot in ranked]
        if op == "real":
            stash.insert(Block(addr, leaf=step, version=step), level)
        elif op == "shadow":
            stash.insert(
                Block(addr, leaf=step, version=step, is_shadow=True), level
            )
        elif op == "remove_real":
            stash.remove_real(addr)
        elif op == "remove_shadow":
            stash.remove_shadow(addr)
        elif op == "evict_shadow":
            stash.evict_shadow(addr)
        elif op == "repair":
            stash.repair_shadow(
                addr, Block(addr, leaf=level, version=step, is_shadow=True)
            )
        else:
            levels = stash.source_levels()
            state = stash.snapshot_state()
            stash.restore_state(state)
            stash.restore_source_levels(levels)
    except Exception as exc:  # noqa: BLE001 - compared across both
        return type(exc).__name__
    return None


def _view(stash):
    return {
        "real": [block_to_jsonable(b) for b in stash._real.values()],
        "shadow": [block_to_jsonable(b) for b in stash._shadow.values()],
        "merges": stash.merges,
        "shadow_drops": stash.shadow_drops,
        "peak_real": stash.peak_real,
        "source_level": list(stash._shadow_source_level.items()),
        "seq": dict(stash._shadow_seq),
        "seq_next": stash._shadow_seq_next,
    }


@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(OPS, min_size=1, max_size=80),
    hotness=HOTNESS,
)
@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_stash_matches_dict_oracle(capacity, ops, hotness):
    stash = Stash(capacity)
    oracle = OracleStash(capacity)
    for step, (op, addr, level) in enumerate(ops):
        got = _apply(stash, op, addr, level, step, hotness)
        want = _apply(oracle, op, addr, level, step, hotness)
        assert got == want, f"step {step} ({op} {addr}): {got} vs {want}"
        assert _view(stash) == _view(oracle), f"step {step} ({op} {addr})"
        assert stash.real_count + stash.shadow_count <= capacity
