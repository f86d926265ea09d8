"""Per-layer host-time tracing for the benchmark's traced runs.

The wrappers live here, in the benchmark, and patch the public entry
points of each layer at class or module level before the program builds
its objects; nothing under ``src/`` changes and no ``EventBus`` is
attached, so the program runs its uninstrumented branches.  Each wrapper
charges its call's host time to a name, minus the time of wrapped calls
nested inside it (exclusive time), on a per-thread stack: the sharded
server runs fleet rounds on an executor thread while its event loop keeps
decoding requests.

A later change that inlines a wrapped call would make its layer read 0;
``run.py`` therefore requires every wrapper to have recorded calls on the
workloads that exercise it.
"""

from __future__ import annotations

import threading
from time import perf_counter


class LayerClock:
    """Calls and exclusive seconds per layer name, merged across threads.

    ``timer`` is ``perf_counter`` for the single-threaded simulator, whose
    layers must add up to the traced wall time, and ``thread_time`` for
    the server, whose layers must add up to its process CPU time: a wall
    clock would also charge a call the time its thread spent waiting for
    the interpreter lock while another thread ran.
    """

    def __init__(self, timer=perf_counter) -> None:
        self._timer = timer
        self._local = threading.local()
        self._tables: list[dict[str, list]] = []
        self._lock = threading.Lock()

    def _state(self) -> tuple[list[float], dict[str, list]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, fn, name: str):
        state = self._state
        timer = self._timer

        def wrapped(*args, **kwargs):
            stack, table = state()
            stack.append(0.0)
            start = timer()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = timer() - start
                child = stack.pop()
                if stack:
                    stack[-1] += spent
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0]
                row[0] += 1
                row[1] += spent - child

        return wrapped

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def totals(self) -> dict[str, tuple[int, float]]:
        """``{name: (calls, exclusive seconds)}`` summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, secs) in list(table.items()):
                row = out.setdefault(name, [0, 0.0])
                row[0] += calls
                row[1] += secs
        return {name: (row[0], row[1]) for name, row in out.items()}


#: Wrapped entry points of the simulator path: (module, owner, attribute,
#: layer name).  Subclass overrides are listed as well, because a patch
#: on the base class does not reach an override.
SIM_SEAMS = [
    ("repro.workloads.generator", "Workload", "requests", "workloads.generate"),
    ("repro.cpu.cache", "CacheHierarchy", "filter_trace", "cpu.filter"),
    ("repro.system.simulator", None, "build_oram_controller", "oram.build"),
    ("repro.oram.tiny", "TinyOramController", "access", "oram.access"),
    ("repro.oram.tiny", "TinyOramController", "_maybe_evict", "oram.evict"),
    ("repro.oram.tiny", "TinyOramController", "dummy_access", "oram.dummy_access"),
    ("repro.core.controller", "ShadowOramController", "dummy_access",
     "oram.dummy_access"),
    ("repro.oram.tiny", "TinyOramController", "_stash_insert", "oram.stash"),
    ("repro.core.controller", "ShadowOramController", "_stash_insert", "oram.stash"),
    ("repro.oram.stash", "Stash", "lookup_real", "oram.stash"),
    ("repro.oram.stash", "Stash", "lookup_shadow", "oram.stash"),
    ("repro.oram.integrity", "MerkleTree", "verify_path", "merkle.verify"),
    ("repro.oram.integrity", "MerkleTree", "update_path", "merkle.update"),
    ("repro.core.controller", "ShadowOramController", "_fill_dummies", "core.fill"),
    ("repro.core.hot_cache", "HotAddressCache", "touch", "core.hot_cache"),
    ("repro.mem.dram", "PathTimer", "read", "mem.timing"),
    ("repro.mem.dram", "PathTimer", "write", "mem.timing"),
    ("repro.system.timing", "RequestScheduler", "launch_real", "system.scheduler"),
    ("repro.system.timing", "RequestScheduler", "complete_real", "system.scheduler"),
]

#: Wrapped entry points of the serving path.  ``session.encode`` is the
#: same function as ``protocol.encode``, imported by name.
SERVE_SEAMS = [
    ("repro.serve.protocol", None, "decode", "serve.protocol"),
    ("repro.serve.protocol", None, "encode", "serve.protocol"),
    ("repro.serve.protocol", None, "validate_request", "serve.protocol"),
    ("repro.serve.session", None, "encode", "serve.protocol"),
    ("repro.serve.scheduler_bridge", None, "build_oram_controller", "oram.build"),
    ("repro.serve.scheduler_bridge", "OramServeBridge", "access", "serve.bridge"),
    ("repro.shard.supervisor", "ShardSupervisor", "access", "shard.round"),
    ("repro.shard.supervisor", "ShardSupervisor", "_real_slot", "shard.slot"),
    ("repro.shard.supervisor", "ShardSupervisor", "_dummy_slot", "shard.slot"),
    ("repro.shard.intent_log", "IntentLog", "append", "shard.intent_append"),
]


def install(clock: LayerClock, seams: list[tuple]) -> None:
    """Patch every seam in ``seams`` with a ``clock`` wrapper."""
    import importlib

    for module_name, owner_name, attr, name in seams:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        if attr not in vars(owner):
            raise RuntimeError(f"{module_name}.{owner_name or ''}.{attr} is gone; "
                               "the benchmark's layer map needs updating")
        clock.patch(owner, attr, name)
