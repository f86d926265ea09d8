"""End-to-end self-healing properties (hypothesis).

The contracts pinned here are the PR's acceptance criteria:

* any seeded ``bit-flip`` plan under ``recovery="recover"`` finishes
  **bit-identical** to the fault-free run, with ``oram/recoveries``
  equal to the number of flips that actually fired;
* the same plan under ``recovery="raise"`` aborts with
  :class:`~repro.oram.integrity.IntegrityError`;
* a run killed at an arbitrary access index and restored from its newest
  checkpoint finishes bit-identical, with an adversary-visible access
  sequence that is a suffix of the uninterrupted one (a restore is
  invisible on the adversary channel).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsCollector
from repro.oram.config import OramConfig
from repro.oram.integrity import IntegrityError
from repro.system.checkpoint import Checkpointer
from repro.system.config import SystemConfig
from repro.system.simulator import simulate

REQUESTS = 20_000
_BASELINE = {}


def plain_config():
    return SystemConfig.dynamic(3, oram=OramConfig(levels=8)).with_(seed=1)


def healing_config(policy="recover"):
    oram = OramConfig(levels=8, integrity=True, recovery=policy,
                      scrub_interval=1)
    return SystemConfig.dynamic(3, oram=oram).with_(seed=1)


def baseline():
    if "result" not in _BASELINE:
        _BASELINE["result"] = simulate(
            plain_config(), "mcf", num_requests=REQUESTS, seed=1
        )
    return _BASELINE["result"]


def run_with_plan(config, plan, requests=REQUESTS):
    injector = plan.injector()
    captured = {}

    def filt(backend):
        wrap = injector.backend_filter()
        if wrap is not None:
            backend = wrap(backend)
        captured["controller"] = getattr(backend, "controller", None)
        return backend

    bus = EventBus()
    collector = MetricsCollector(bus)
    result = simulate(config, "mcf", num_requests=requests, seed=1,
                      bus=bus, backend_filter=filt)
    return result, injector, captured["controller"], collector


# The mcf/20k-request trace has 64 LLC misses; keep fault ordinals well
# inside that so every drawn flip is guaranteed to fire.
flip_plans = st.builds(
    lambda offsets, seed: FaultPlan(
        specs=tuple(
            FaultPlan.parse([f"bit-flip:at_access={o}"]).specs[0]
            for o in sorted(offsets)
        ),
        seed=seed,
    ),
    st.sets(st.integers(min_value=0, max_value=50), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**31),
)


class TestBitFlipRecovery:
    @settings(max_examples=15, deadline=None)
    @given(plan=flip_plans)
    def test_recover_policy_is_bit_identical(self, plan):
        result, injector, controller, collector = run_with_plan(
            healing_config("recover"), plan
        )
        flips = [f for f in injector.fired() if f.startswith("bit-flip")]
        assert len(flips) == len(plan.specs)  # every drawn flip fired
        assert repr(result) == repr(baseline())
        counters = collector.to_dict()["counters"]
        assert counters.get("oram/recoveries", 0) == len(flips)
        assert controller.recovery.stats.recoveries == len(flips)
        assert controller.recovery.stats.unrecoverable == 0

    @settings(max_examples=5, deadline=None)
    @given(plan=flip_plans)
    def test_raise_policy_aborts(self, plan):
        with pytest.raises(IntegrityError):
            run_with_plan(healing_config("raise"), plan)


class TestPostHealAudit:
    def test_latent_flip_off_the_read_paths_is_left_to_a_later_heal(self):
        # The ``repro faults`` defaults: recover policy, no background
        # scrub.  The third flip lands in a shadow (bucket 23, slot 2)
        # that no read has reached when a heal's audit runs; the audit
        # skips that unauthenticated slot instead of blaming recovery
        # for it, and the read that later reaches it heals it.
        oram = OramConfig(levels=8, integrity=True, recovery="recover")
        config = SystemConfig.dynamic(3, oram=oram).with_(seed=1)
        plan = FaultPlan.parse(
            [f"bit-flip:at_access={n}" for n in (3, 6, 10)]
        )
        result, injector, controller, _ = run_with_plan(
            config, plan, requests=400
        )
        assert "bit-flip@access10:bucket23/slot2" in injector.fired()
        stats = controller.recovery.stats
        assert (stats.corruptions, stats.recoveries, stats.unrecoverable) == (
            2, 2, 0
        )
        assert stats.recovered_from == {"rebuild": 1, "shadow_stash": 1}
        clean = simulate(config, "mcf", num_requests=400, seed=1)
        assert repr(result) == repr(clean)


class TestCheckpointRestoreProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        kill_at=st.integers(min_value=1, max_value=60),
        every=st.integers(min_value=1, max_value=9),
    )
    def test_kill_and_restore_is_bit_identical(self, tmp_path_factory,
                                               kill_at, every):
        tmp_path = tmp_path_factory.mktemp("ckpt")

        class Killed(Exception):
            pass

        class KillingBackend:
            def __init__(self, inner):
                self.inner = inner
                self.served = 0
                self.controller = getattr(inner, "controller", None)

            def serve(self, miss, ready):
                if self.served >= kill_at:
                    raise Killed()
                self.served += 1
                return self.inner.serve(miss, ready)

            def writeback(self, addr, now):
                return self.inner.writeback(addr, now)

            def finalize(self, *args, **kwargs):
                return self.inner.finalize(*args, **kwargs)

            def snapshot_state(self):
                return self.inner.snapshot_state()

            def restore_state(self, state):
                self.inner.restore_state(state)

        config = plain_config()
        ref_events = []
        simulate(config, "mcf", num_requests=REQUESTS, seed=1,
                 observer=ref_events.append)

        with pytest.raises(Killed):
            simulate(config, "mcf", num_requests=REQUESTS, seed=1,
                     backend_filter=KillingBackend,
                     checkpointer=Checkpointer(tmp_path, every=every))

        res_events = []
        resumed = simulate(config, "mcf", num_requests=REQUESTS, seed=1,
                           checkpointer=Checkpointer(tmp_path, every=every),
                           restore=True, observer=res_events.append)
        assert repr(resumed) == repr(baseline())
        # The replayed tail of the adversary trace matches exactly.
        assert res_events == ref_events[len(ref_events) - len(res_events):]


class TestAdversaryChannel:
    def test_recovery_does_not_change_adversary_trace(self):
        plan = FaultPlan.parse(
            ["bit-flip:at_access=10", "bit-flip:at_access=33",
             "posmap-corrupt:at_access=20"],
            seed=2,
        )
        injector = plan.injector()

        ref_events = []
        simulate(plain_config(), "mcf", num_requests=REQUESTS, seed=1,
                 observer=ref_events.append)

        def filt(backend):
            wrap = injector.backend_filter()
            return wrap(backend) if wrap is not None else backend

        res_events = []
        result = simulate(healing_config("recover"), "mcf",
                          num_requests=REQUESTS, seed=1,
                          backend_filter=filt, observer=res_events.append)
        assert injector.fired()  # the faults really happened
        assert res_events == ref_events
        assert repr(result) == repr(baseline())

    def test_posmap_repair_preserves_results(self):
        # Fault seed 2 targets an address that is re-accessed, so the
        # repair branch actually runs (pinned by the repairs assert).
        plan = FaultPlan.parse(["posmap-corrupt:at_access=30"], seed=2)
        result, injector, controller, _ = run_with_plan(
            healing_config("recover"), plan
        )
        assert injector.fired()
        assert controller.recovery.stats.posmap_repairs == 1
        assert repr(result) == repr(baseline())
