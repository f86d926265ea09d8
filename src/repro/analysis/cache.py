"""On-disk result cache for the sweep engine.

Every figure in the paper re-runs sweeps whose grid points overlap
heavily (the insecure/Tiny baselines appear in nearly every figure), so
the engine memoises :class:`~repro.system.metrics.SimulationResult`s on
disk.  A cache entry is keyed by the SHA-256 of::

    (config fingerprint, workload, num_requests, seed,
     record_progress, schema version, code fingerprint)

— everything that determines a run's outcome.  The config fingerprint
covers the *full nested configuration* (ORAM geometry, DRAM timing, CPU,
caches, shadow parameters, timing protection), so any knob change misses
cleanly; the schema version (``repro.serialize.SCHEMA_VERSION``) is
folded in so entries written by an older serialization layout can never
be deserialized into a newer one.  The code fingerprint
(:func:`code_fingerprint`) hashes the simulator's own source, so a result
simulated by other code is never replayed: any edit under ``repro/``
misses, comments included.  Checkpoint, bridge-snapshot and intent-log
run keys do not take it, since those must restore across versions that
keep behaviour.

The cache is also a sweep's one record of which points have finished
under this code: every resolved point is stored as it completes, so
re-running an interrupted or partly failed sweep with the same cache
re-executes only the points that have no entry.

Entries are JSON files written atomically (temp file + ``os.replace``)
under two-level fan-out directories, safe for concurrent writers: the
worst case for two processes racing on the same key is one wasted
simulation, never a torn file.  Corrupt or unreadable entries are treated
as misses and overwritten.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Callable

from repro.serialize import SCHEMA_VERSION, stable_hash
from repro.system.metrics import SimulationResult


def tree_fingerprint(root: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of every ``.py``
    file under ``root``."""
    files = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*.py")
    )
    digest = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def code_fingerprint() -> str:
    """:func:`tree_fingerprint` of the ``repro`` package.

    Computed on first use and kept for the life of the process, not at
    import: ``repro serve`` imports :mod:`repro.analysis` and never keys
    a result.
    """
    return tree_fingerprint(Path(__file__).resolve().parents[1])


class ResultCache:
    """Content-addressed simulation-result store.

    Args:
        root: Cache directory (created on first write).

    Attributes:
        hits / misses / stores: Lookup counters for this instance — the
            acceptance tests assert a warm sweep is served entirely from
            here (``misses == 0``).
        put_errors: Disk failures absorbed by :meth:`put` (ENOSPC,
            read-only directory, quota...).  The sweep engine surfaces
            this as the ``cache/put_errors`` metric.
        write_disabled: Set after the first put failure: further stores
            become silent no-ops so one full disk degrades a sweep to
            cache-less execution instead of aborting it.  Reads keep
            working — whatever made it to disk stays usable.
        fault_hook: Test/fault-injection seam invoked just before the
            disk write inside :meth:`put`; an ``OSError`` it raises takes
            the same degrade path as a real disk error.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.put_errors = 0
        self.write_disabled = False
        self.fault_hook: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def key(
        config_fingerprint: str,
        workload: str,
        num_requests: int,
        seed: int,
        record_progress: bool = False,
        schema_version: int = SCHEMA_VERSION,
    ) -> str:
        """Stable cache key for one sweep point (this process's code
        included, through :func:`code_fingerprint`)."""
        return stable_hash(
            {
                "config": config_fingerprint,
                "workload": workload,
                "num_requests": num_requests,
                "seed": seed,
                "record_progress": record_progress,
                "schema": schema_version,
                "code": code_fingerprint(),
            }
        )

    def path_for(self, key: str) -> Path:
        """On-disk location of a key (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> SimulationResult | None:
        """Look up a key; counts a hit or miss either way."""
        path = self.path_for(key)
        try:
            with open(path) as stream:
                payload = json.load(stream)
            result = SimulationResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, torn, or stale-layout entry: a miss, not an error.
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> bool:
        """Store a result atomically under ``key``.

        Returns ``True`` on success.  Disk errors (``ENOSPC``, read-only
        cache directory, quota) are absorbed: the cache warns once, flips
        into :attr:`write_disabled` mode and returns ``False`` — a sweep
        must never die because its memoisation layer ran out of disk.
        """
        if self.write_disabled:
            return False
        path = self.path_for(key)
        tmp = None
        try:
            if self.fault_hook is not None:
                self.fault_hook()
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = {"schema": SCHEMA_VERSION, "result": result.to_dict()}
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
            with os.fdopen(fd, "w") as stream:
                json.dump(payload, stream)
            os.replace(tmp, path)
            tmp = None
        except OSError as exc:
            self.put_errors += 1
            self.write_disabled = True
            warnings.warn(
                f"result cache {self.root}: write failed ({exc!r}); "
                "disabling cache writes for the rest of the run "
                "(existing entries stay readable)",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self.stores += 1
        return True

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of entries on disk (walks the fan-out directories)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for entry in self.root.glob("*/*.json"):
                entry.unlink(missing_ok=True)
                removed += 1
        return removed
