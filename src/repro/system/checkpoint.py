"""Intra-run checkpointing: atomic, torn-tail-tolerant state snapshots.

PR 3's sweep engine resumes at *point* granularity (a crashed sweep
re-runs whole simulations).  This module extends durability down to
*access* granularity: every N served misses the
:class:`~repro.system.simulator.SystemSimulator` snapshots the full
runtime state (tree buckets, stash, position map, HAC, DRI counter,
partition state, RNG streams, scheduler clocks, frontend cursors) and a
killed run restarted with ``--restore`` finishes bit-identical to an
uninterrupted one.

Format and failure model follow the result cache
(:mod:`repro.analysis.cache`): one JSON file per checkpoint, published by
:func:`repro.serialize.atomic_write`, so a file either exists completely
or not at all.  On top of that each file embeds a digest of its body and
the identity of the run that wrote it; :meth:`Checkpointer.load_latest`
walks newest to oldest, *skipping* anything unreadable, torn, or written
by a different run — a corrupt tail degrades resume granularity, never
correctness.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.serialize import SCHEMA_VERSION, atomic_write, stable_hash


class Checkpointer:
    """Writes and reads intra-run checkpoints in one directory.

    Args:
        directory: Checkpoint directory (created if missing).
        every: Take a checkpoint every this many served accesses.
        keep: Retain this many newest checkpoints (older ones pruned
            after a successful write; at least 1).

    Attributes:
        run_key: Identity of the run writing/reading checkpoints
            (config fingerprint, workload, request count, seed, schema).
            Assigned by the simulator before the first save; a checkpoint
            whose stored key differs is ignored on load, so a directory
            reused across configurations can never resume the wrong run.
    """

    def __init__(self, directory: str | Path, every: int = 1000, keep: int = 2) -> None:
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        if keep < 1:
            raise ValueError(f"must keep at least one checkpoint, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = every
        self.keep = keep
        self.run_key: dict[str, object] | None = None
        self.saves = 0
        self.pruned = 0
        self.skipped = 0

    # ------------------------------------------------------------------
    def scoped(self, subdir: str, key_extra: dict[str, object]) -> "Checkpointer":
        """A child checkpointer in ``subdir`` with an extended run key.

        The sharded fleet uses one of these per shard: every shard
        snapshots into its own subdirectory under the fleet's state
        root, and its run key is the fleet key plus the scoping fields
        (e.g. ``{"shard": 3}``), so shard 3's recovery can never load
        shard 2's snapshot even if files are copied around.
        """
        child = Checkpointer(
            self.directory / subdir, every=self.every, keep=self.keep
        )
        child.run_key = dict(self.run_key or {}, **key_extra)
        return child

    def path_for(self, access_index: int) -> Path:
        """File path of the checkpoint taken after ``access_index`` accesses."""
        return self.directory / f"ckpt-{access_index:010d}.json"

    def save(self, access_index: int, state: dict[str, object]) -> Path:
        """Atomically persist one checkpoint and prune old ones."""
        body = {
            "run": self.run_key,
            "access_index": access_index,
            "state": state,
        }
        payload = {
            "schema": SCHEMA_VERSION,
            "digest": stable_hash(body),
            "body": body,
        }
        target = self.path_for(access_index)
        with atomic_write(target) as fh:
            json.dump(payload, fh, separators=(",", ":"))
        self.saves += 1
        self._prune()
        return target

    def load_latest(self) -> tuple[int, dict[str, object], Path] | None:
        """Newest valid checkpoint for this run, or ``None``.

        Walks checkpoints newest first; entries that fail to parse, fail
        their digest, carry a different schema, or belong to a different
        run are skipped (counted in :attr:`skipped`) — the torn-tail
        tolerance that makes a kill during :meth:`save` harmless.
        """
        for path in sorted(self._checkpoint_files(), reverse=True):
            try:
                with path.open(encoding="utf-8") as fh:
                    payload = json.load(fh)
                body = payload["body"]
                if payload.get("schema") != SCHEMA_VERSION:
                    raise ValueError("schema mismatch")
                if payload.get("digest") != stable_hash(body):
                    raise ValueError("digest mismatch")
                if self.run_key is not None and body["run"] != self.run_key:
                    raise ValueError("run-key mismatch")
                return int(body["access_index"]), body["state"], path
            except (OSError, ValueError, KeyError, TypeError):
                self.skipped += 1
        return None

    # ------------------------------------------------------------------
    def _checkpoint_files(self) -> list[Path]:
        return list(self.directory.glob("ckpt-*.json"))

    def _prune(self) -> None:
        files = sorted(self._checkpoint_files())
        for path in files[: -self.keep]:
            try:
                path.unlink()
                self.pruned += 1
            except OSError:
                pass
