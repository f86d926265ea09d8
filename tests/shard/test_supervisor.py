"""Crash/recovery tests for the shard fleet supervisor.

The acceptance bar (ISSUE PR 9): kill a shard mid-load and the respawned
fleet must be *bit-identical* to an uninterrupted reference run —
witnessed by the per-shard state digests — while the accounting identity
and the padded dispatch schedule hold throughout.
"""

import sys
import threading
from random import Random

import pytest

from repro.faults.injector import (
    FaultPlan,
    FleetFailed,
    ShardDied,
    ShardUnavailable,
)
from repro.obs.metrics import MetricsRegistry
from repro.oram.config import OramConfig
from repro.shard.supervisor import ShardSettings, ShardSupervisor
from repro.system.config import SystemConfig

SEED = 7


def small_config():
    return SystemConfig.dynamic(3, oram=OramConfig(levels=6))


def make_sup(state_dir, injector=None, trace=None, **kw):
    kw.setdefault("num_shards", 3)
    kw.setdefault("checkpoint_every", 16)
    sup = ShardSupervisor(
        small_config(), seed=SEED, state_dir=state_dir,
        settings=ShardSettings(**kw), injector=injector, trace=trace,
    )
    sup.start()
    return sup


def drive(sup, n, seed=3):
    """Deterministic request stream: mixed reads/writes over the fleet."""
    rng = Random(seed)
    for i in range(n):
        addr = rng.randrange(sup.num_blocks)
        if i % 4 == 0:
            sup.access(addr, "write", f"v{i}")
        else:
            sup.access(addr, "read")


def crash_injector(spec, seed=0):
    return FaultPlan.parse([spec], seed=seed).injector(in_worker=False)


class TestCleanFleet:
    def test_serves_and_pads_every_round(self, tmp_path):
        sup = make_sup(tmp_path)
        drive(sup, 30)
        report = sup.fleet_report()
        assert report["served"] == 30
        assert report["rounds"] == 30
        # Padding: every shard logged exactly one intent per round.
        assert report["intents"] == [30, 30, 30]
        sup.close()

    def test_reads_return_written_values(self, tmp_path):
        sup = make_sup(tmp_path)
        sup.access(5, "write", "hello")
        assert sup.access(5, "read").value == "hello"
        sup.close()

    def test_identical_runs_have_identical_digests(self, tmp_path):
        a = make_sup(tmp_path / "a")
        drive(a, 25)
        b = make_sup(tmp_path / "b")
        drive(b, 25)
        assert a.state_digest() == b.state_digest()
        a.close()
        b.close()

    def test_start_refuses_stale_history_without_restore(self, tmp_path):
        sup = make_sup(tmp_path)
        drive(sup, 5)
        sup.close()
        with pytest.raises(FleetFailed, match="restore"):
            make_sup(tmp_path)

    def test_refused_start_releases_inproc_shards(self, tmp_path):
        sup = refused_start(tmp_path)
        assert [st.log._fh.closed for st in sup._shards] == [True] * 3
        assert [st.handle.alive for st in sup._shards[:2]] == [False] * 2


def refused_start(state_dir, **kw):
    """A fleet whose start meets a stale intent log at its last shard.

    Returns the refused supervisor: the lower shards had opened their
    logs and spawned their handles before the refusal.
    """
    sup = make_sup(state_dir, **kw)
    drive(sup, 5)
    sup.close()
    for k in (0, 1):
        (state_dir / f"shard-{k}" / "intents.log").unlink()
    kw.setdefault("checkpoint_every", 16)
    fresh = ShardSupervisor(
        small_config(), seed=SEED, state_dir=state_dir,
        settings=ShardSettings(num_shards=3, **kw),
    )
    with pytest.raises(FleetFailed, match="shard 2 has .* logged intents"):
        fresh.start()
    return fresh


class TestCrashRecovery:
    def test_deny_mode_recovery_is_bit_identical(self, tmp_path):
        clean = make_sup(tmp_path / "clean")
        drive(clean, 40)
        crashed = make_sup(
            tmp_path / "crashed",
            injector=crash_injector("shard-crash:shard=1,at_access=20"),
            degraded="deny",
        )
        drive(crashed, 40)
        assert crashed.recoveries == 1
        assert crashed.shard_status() == ["up", "up", "up"]
        assert crashed.shard_digests() == clean.shard_digests()
        assert crashed.fleet_report()["served"] == 40
        clean.close()
        crashed.close()

    def test_checkpoint_corrupt_falls_back_and_stays_identical(self, tmp_path):
        clean = make_sup(tmp_path / "clean")
        drive(clean, 40)
        crashed = make_sup(
            tmp_path / "crashed",
            injector=FaultPlan.parse(
                ["shard-crash:shard=1,at_access=20",
                 "shard-checkpoint-corrupt:shard=1,mode=truncate"],
                seed=0,
            ).injector(in_worker=False),
            degraded="deny",
        )
        drive(crashed, 40)
        assert crashed.recoveries == 1
        assert crashed.shard_digests() == clean.shard_digests()
        fired = {entry.split("@")[0] for entry in crashed.injector.fired()}
        assert "shard-checkpoint-corrupt" in fired
        clean.close()
        crashed.close()

    def test_real_slot_is_retried_until_it_runs(self, tmp_path):
        # Two faults at one real slot of shard 1: the hang fires first,
        # the live retry after recovery meets the crash, and the next
        # retry runs clean.
        clean = make_sup(tmp_path / "clean")
        drive(clean, 40)
        rng = Random(3)  # drive()'s address stream
        owners = [
            clean.ring.shard_of(rng.randrange(clean.num_blocks))
            for _ in range(40)
        ]
        # Every shard logs one intent per round: ordinal == round.
        ordinal = owners.index(1, 5)
        crashed = make_sup(
            tmp_path / "crashed",
            injector=FaultPlan.parse(
                [f"shard-crash:shard=1,at_access={ordinal}",
                 f"shard-hang:shard=1,at_access={ordinal}"],
                seed=0,
            ).injector(in_worker=False),
            degraded="deny",
        )
        drive(crashed, 40)
        assert crashed.recoveries == 2
        assert crashed.injector.fired() == [
            f"shard-hang@shard1/access{ordinal}:5.0s",
            f"shard-crash@shard1/access{ordinal}",
        ]
        assert crashed.shard_digests() == clean.shard_digests()
        clean.close()
        crashed.close()

    def test_allow_mode_parks_then_serves_exactly_once(self, tmp_path):
        sup = make_sup(
            tmp_path,
            injector=crash_injector("shard-crash:shard=1,at_access=6"),
            degraded="allow",
        )
        # Find an address owned by shard 1 and preload a value onto it.
        addr = next(
            a for a in range(sup.num_blocks) if sup.ring.shard_of(a) == 1
        )
        sup.access(addr, "write", "precious")
        # Drive rounds until the injected crash kills shard 1.
        raised = None
        for i in range(30):
            try:
                sup.access((addr + 1 + i) % sup.num_blocks, "read")
            except ShardUnavailable as exc:
                raised = exc
                break
        if raised is None:
            # The crash fired on a dummy slot: the round still succeeded,
            # but the owner is now down for its next real access.
            with pytest.raises(ShardUnavailable):
                sup.access(addr, "read")
        assert sup.addr_unavailable(addr)
        assert sup.shard_status()[1] == "dead"
        # Healthy shards keep serving.
        healthy = next(
            a for a in range(sup.num_blocks) if sup.ring.shard_of(a) != 1
        )
        sup.access(healthy, "read")
        # Background-equivalent recovery, then the parked work re-runs
        # exactly once: the preloaded value is still there, applied once.
        sup.recover(1)
        assert sup.shard_status() == ["up", "up", "up"]
        assert sup.access(addr, "read").value == "precious"
        sup.close()

    def test_respawn_budget_exhaustion_is_fleet_fatal(self, tmp_path):
        sup = make_sup(tmp_path, max_respawns=2)
        drive(sup, 5)
        # Kill shard 0 and make every respawn die on arrival.
        sup._shards[0].handle.alive = False
        sup._mark_dead(sup._shards[0], "test")

        def doomed_spawn(shard):
            raise ShardDied(shard, "still down")

        sup._spawn = doomed_spawn
        with pytest.raises(FleetFailed, match="respawn budget"):
            sup.recover(0)
        sup.close()


class TestDurableRestart:
    def test_restore_resumes_bit_identically(self, tmp_path):
        ref = make_sup(tmp_path / "ref")
        drive(ref, 40)

        first = make_sup(tmp_path / "fleet")
        drive(first, 25)
        digests_at_stop = first.shard_digests()
        first.close()

        resumed = ShardSupervisor(
            small_config(), seed=SEED, state_dir=tmp_path / "fleet",
            settings=ShardSettings(num_shards=3, checkpoint_every=16),
        )
        resumed.start(restore=True)
        assert resumed.shard_digests() == digests_at_stop
        # Note: continuing the stream needs the *request* cursor too,
        # which the serve layer owns; state equality at the cut is the
        # supervisor's contract.
        resumed.close()
        ref.close()

    def test_metrics_export_rolls_up_per_shard(self, tmp_path):
        sup = make_sup(tmp_path)
        drive(sup, 20)
        registry = MetricsRegistry()
        sup.export_metrics(registry)
        snap = {
            name: counter.value
            for name, counter in registry._counters.items()
        }
        assert snap["fleet/rounds"] == 20
        assert snap["fleet/accesses_real"] == 20
        # Padding: 2 dummies per round across 3 shards.
        assert snap["fleet/accesses_dummy"] == 40
        for shard in range(3):
            assert (
                snap[f"shard/{shard}/accesses_real"]
                + snap[f"shard/{shard}/accesses_dummy"]
                == 20
            )
        sup.close()


class TestProcessMode:
    def test_process_worker_crash_recovers_bit_identically(self, tmp_path):
        clean = make_sup(tmp_path / "clean", num_shards=2)
        drive(clean, 24)
        crashed = make_sup(
            tmp_path / "crashed",
            num_shards=2,
            mode="process",
            injector=crash_injector(
                "shard-crash:shard=1,at_access=10"
            ),
            degraded="deny",
        )
        drive(crashed, 24)
        assert crashed.recoveries == 1
        assert crashed.shard_digests() == clean.shard_digests()
        clean.close()
        crashed.close()

    def test_refused_start_stops_spawned_workers(self, tmp_path):
        sup = refused_start(tmp_path, mode="process")
        assert [st.log._fh.closed for st in sup._shards] == [True] * 3
        workers = [st.handle._proc for st in sup._shards[:2]]
        assert [proc.is_alive() for proc in workers] == [False] * 2


def run_two_shard_fleet(state_dir, injector=None, **kw):
    """60 seeded accesses on a 2-shard deny-mode L=8 fleet.

    Returns the closed supervisor, its shard digests (read before the
    workers stop) and the bytes of each ``shard-<k>/intents.log``.
    """
    sup = ShardSupervisor(
        SystemConfig.dynamic(3, oram=OramConfig(levels=8)), seed=SEED,
        state_dir=state_dir,
        settings=ShardSettings(
            num_shards=2, checkpoint_every=16, degraded="deny", **kw
        ),
        injector=injector,
    )
    sup.start()
    try:
        drive(sup, 60)
        digests = sup.shard_digests()
    finally:
        sup.close()
    logs = [
        (state_dir / f"shard-{k}" / "intents.log").read_bytes()
        for k in range(2)
    ]
    return sup, digests, logs


@pytest.fixture(scope="module")
def clean_two_shard_fleet(tmp_path_factory):
    _sup, digests, logs = run_two_shard_fleet(
        tmp_path_factory.mktemp("clean-fleet")
    )
    return digests, logs


class TestShardFaultInEitherHousing:
    """A shard fault fires at its ordinal whichever housing runs the
    shard, and the fleet ends as the uninterrupted in-process run."""

    @pytest.mark.parametrize("fault", ["shard-crash", "shard-hang"])
    @pytest.mark.parametrize("mode", ["inproc", "process"])
    def test_recovers_to_the_clean_run(
        self, tmp_path, clean_two_shard_fleet, mode, fault
    ):
        spec = f"{fault}:shard=1,at_access=10"
        timeout_s = 5.0
        if fault == "shard-hang":
            # A worker sleeps past its access timeout, which declares
            # it dead; an in-process shard dies at once.
            spec += ",hang_s=3.0"
            timeout_s = 0.5
        sup, digests, logs = run_two_shard_fleet(
            tmp_path, injector=crash_injector(spec), mode=mode,
            access_timeout_s=timeout_s,
        )
        clean_digests, clean_logs = clean_two_shard_fleet
        assert sup.recoveries == 1
        assert digests == clean_digests
        assert logs == clean_logs
        # The supervisor fires the fault in either housing, so its own
        # injector names it.
        fired = [entry.split(":")[0] for entry in sup.injector.fired()]
        assert fired == [f"{fault}@shard1/access10"]


class TestObservability:
    def test_shard_stats_reports_recovery_detail(self, tmp_path):
        sup = make_sup(
            tmp_path,
            injector=crash_injector("shard-crash:shard=1,at_access=20"),
            degraded="deny",
        )
        drive(sup, 40)
        stats = sup.shard_stats()
        assert [s["shard"] for s in stats] == [0, 1, 2]
        assert all(s["status"] == "up" for s in stats)
        crashed = stats[1]
        assert crashed["respawns"] == 1
        assert crashed["deaths"] == 1
        assert crashed["replayed"] > 0
        healthy = stats[0]
        assert healthy["respawns"] == 0
        # Padded dispatch: every shard logged one intent per round.
        assert len({s["intents"] for s in stats}) == 1
        assert crashed["real"] + crashed["dummy"] == crashed["intents"]
        sup.close()

    def test_shard_stats_reads_consistently_while_rounds_run(self, tmp_path):
        # shard_stats() takes no lock.  Poll it from more threads than
        # cores, with a short switch interval, while rounds run and a
        # deny-mode crash recovers: every view must stay monotone.
        sup = make_sup(
            tmp_path,
            injector=crash_injector("shard-crash:shard=1,at_access=20"),
            degraded="deny",
        )
        done = threading.Event()
        errors = []

        def poll():
            last = [0, 0, 0]
            try:
                while not done.is_set():
                    for s in sup.shard_stats():
                        executed = s["real"] + s["dummy"]
                        assert executed >= last[s["shard"]]
                        last[s["shard"]] = executed
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        pollers = [threading.Thread(target=poll) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in pollers:
                thread.start()
            drive(sup, 60)
        finally:
            done.set()
            for thread in pollers:
                thread.join(10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pollers)
        assert errors == []
        stats = sup.shard_stats()
        assert stats[1]["respawns"] == 1
        assert all(s["real"] + s["dummy"] == s["intents"] for s in stats)
        sup.close()

    def test_recovery_emits_shard_recovered_event(self, tmp_path):
        from repro.obs.events import EventBus, ShardRecovered

        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, ShardRecovered)
        sup = ShardSupervisor(
            small_config(), seed=SEED, state_dir=tmp_path,
            settings=ShardSettings(
                num_shards=3, checkpoint_every=16, degraded="deny",
            ),
            injector=crash_injector("shard-crash:shard=1,at_access=20"),
            bus=bus,
        )
        sup.start()
        drive(sup, 40)
        assert len(seen) == 1
        event = seen[0]
        assert event.shard == 1
        assert event.respawns == 1
        assert event.replayed > 0
        sup.close()

    def test_no_bus_subscribers_is_zero_overhead(self, tmp_path):
        from repro.obs.events import EventBus

        # An unmonitored supervisor (bus=None) must behave identically
        # to one with an idle bus -- digests are the witness.
        plain = make_sup(
            tmp_path / "plain",
            injector=crash_injector("shard-crash:shard=1,at_access=20"),
            degraded="deny",
        )
        drive(plain, 40)
        monitored = ShardSupervisor(
            small_config(), seed=SEED, state_dir=tmp_path / "monitored",
            settings=ShardSettings(
                num_shards=3, checkpoint_every=16, degraded="deny",
            ),
            injector=crash_injector("shard-crash:shard=1,at_access=20"),
            bus=EventBus(),
        )
        monitored.start()
        drive(monitored, 40)
        assert monitored.shard_digests() == plain.shard_digests()
        plain.close()
        monitored.close()
