"""Deterministic fault injection + runtime invariants (DESIGN.md §8).

This package is the standing proof that the sweep/simulation stack
degrades gracefully: seeded, serializable fault specs
(:mod:`repro.faults.spec`) are injected at the engine's existing seams by
:class:`~repro.faults.injector.FaultInjector`, and
:class:`~repro.faults.invariants.RuntimeInvariants` audits controller
state per access with a configurable degrade-vs-raise policy.

PR 8 extends the taxonomy to the serving seams (DESIGN.md §10):
``client-disconnect`` / ``slow-client`` drive the load generator's
misbehaviour and ``server-crash`` kills ``repro serve`` between ORAM
accesses — all deterministic for a given plan + seed.

PR 9 extends it to the sharded fleet (DESIGN.md §11): ``shard-crash`` /
``shard-hang`` kill or stall one shard worker at a chosen intent
ordinal, and ``shard-checkpoint-corrupt`` tears the shard's newest
snapshot right before the supervisor reloads it.

Try it from the shell::

    python -m repro faults --list
    python -m repro faults --inject worker-crash@2 --inject cache-corrupt
    python -m repro serve --inject server-crash:at_access=500,mode=exit ...
    python -m repro load --inject client-disconnect:at_request=10 ...
"""
