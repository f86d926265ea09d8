"""Sharded multi-ORAM backend with crash failover (DESIGN.md §11).

ROADMAP item 3: the fleet address space is consistent-hashed across N
shard partitions (:mod:`repro.shard.hashring`), each running its own
controller behind an :class:`~repro.serve.scheduler_bridge.OramServeBridge`
(:mod:`repro.shard.worker`), supervised by
:class:`~repro.shard.supervisor.ShardSupervisor`: padded round-based
dispatch (one real-or-dummy slot per shard per request, so the
inter-shard links leak nothing — including during failures), heartbeat +
timeout death detection, and bit-identical recovery from per-shard
checkpoints plus an append-only intent log
(:mod:`repro.shard.intent_log`).

Try it from the shell::

    python -m repro serve --shards 4 --shard-dir /tmp/fleet ...
    python -m repro load --requests 500 ...
    python -m repro serve --shards 4 --degraded-mode allow \\
        --inject shard-crash:shard=2,at_access=120 ...
"""
