"""Tests for intra-run checkpointing: the writer and simulator resume."""

import json

import pytest

from repro.obs.events import EventBus
from repro.obs.metrics import MetricsCollector
from repro.system.checkpoint import Checkpointer
from repro.system.config import SystemConfig
from repro.system.simulator import SystemSimulator, simulate
from repro.oram.config import OramConfig

ORAM = OramConfig(levels=8)
REQUESTS = 20_000


def small_config(**oram_kw):
    return SystemConfig.dynamic(3, oram=OramConfig(levels=8, **oram_kw)).with_(
        seed=1
    )


class TestCheckpointer:
    def test_save_load_round_trip(self, tmp_path):
        ck = Checkpointer(tmp_path, every=10)
        ck.run_key = {"run": "a"}
        state = {"x": [1, 2.5, "s"], "y": {"k": None}}
        ck.save(40, state)
        loaded = ck.load_latest()
        assert loaded is not None
        index, got, path = loaded
        assert index == 40
        assert got == state
        assert path == ck.path_for(40)

    def test_newest_wins_and_pruning(self, tmp_path):
        ck = Checkpointer(tmp_path, every=10, keep=2)
        ck.run_key = {"run": "a"}
        for i in (10, 20, 30):
            ck.save(i, {"i": i})
        assert not ck.path_for(10).exists()  # pruned
        assert ck.load_latest()[0] == 30
        assert ck.pruned == 1

    def test_torn_tail_skipped(self, tmp_path):
        ck = Checkpointer(tmp_path, every=10)
        ck.run_key = {"run": "a"}
        ck.save(10, {"i": 10})
        ck.save(20, {"i": 20})
        # Tear the newest file mid-write.
        newest = ck.path_for(20)
        newest.write_text(newest.read_text()[: 30])
        index, state, _ = ck.load_latest()
        assert (index, state) == (10, {"i": 10})
        assert ck.skipped == 1

    def test_digest_mismatch_skipped(self, tmp_path):
        ck = Checkpointer(tmp_path, every=10)
        ck.run_key = {"run": "a"}
        ck.save(10, {"i": 10})
        path = ck.path_for(10)
        payload = json.loads(path.read_text())
        payload["body"]["state"]["i"] = 99  # bit rot
        path.write_text(json.dumps(payload))
        assert ck.load_latest() is None
        assert ck.skipped == 1

    def test_foreign_run_key_skipped(self, tmp_path):
        ck = Checkpointer(tmp_path, every=10)
        ck.run_key = {"seed": 1}
        ck.save(10, {"i": 10})
        other = Checkpointer(tmp_path, every=10)
        other.run_key = {"seed": 2}
        assert other.load_latest() is None
        assert other.skipped == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        ck = Checkpointer(tmp_path, every=10)
        ck.run_key = {"run": "a"}
        ck.save(10, {"i": 10})
        assert not list(tmp_path.glob(".ckpt-*"))

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, every=0)
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, keep=0)


class _KilledAt(Exception):
    """Stand-in for the process dying mid-run."""


class _KillingBackend:
    """Backend proxy that raises after serving ``n`` misses."""

    def __init__(self, inner, n):
        self.inner = inner
        self.n = n
        self.served = 0
        self.controller = getattr(inner, "controller", None)

    def serve(self, miss, ready):
        if self.served >= self.n:
            raise _KilledAt(self.served)
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


class TestScoped:
    def test_scoped_child_nests_directory_and_key(self, tmp_path):
        root = Checkpointer(tmp_path, every=10, keep=3)
        root.run_key = {"run": "fleet", "seed": 1}
        child = root.scoped("shard-2", {"shard": 2})
        assert child.directory == tmp_path / "shard-2"
        assert child.run_key == {"run": "fleet", "seed": 1, "shard": 2}
        # The parent's key is not mutated by the child's extras.
        assert root.run_key == {"run": "fleet", "seed": 1}

    def test_scoped_children_are_isolated(self, tmp_path):
        root = Checkpointer(tmp_path, every=10)
        root.run_key = {"run": "fleet"}
        a = root.scoped("shard-0", {"shard": 0})
        b = root.scoped("shard-1", {"shard": 1})
        a.save(10, {"who": "a"})
        b.save(20, {"who": "b"})
        assert a.load_latest()[1] == {"who": "a"}
        assert b.load_latest()[1] == {"who": "b"}

    def test_scoped_key_guards_cross_shard_reads(self, tmp_path):
        root = Checkpointer(tmp_path, every=10)
        root.run_key = {"run": "fleet"}
        root.scoped("shard-0", {"shard": 0}).save(10, {"who": "a"})
        # A reader scoped to the same directory but a different shard
        # identity must refuse the foreign snapshot.
        impostor = root.scoped("shard-0", {"shard": 1})
        assert impostor.load_latest() is None


class TestSimulatorResume:
    @pytest.mark.parametrize("kill_at", [7, 23, 41])
    def test_killed_run_resumes_bit_identical(self, tmp_path, kill_at):
        config = small_config()
        reference = simulate(config, "mcf", num_requests=REQUESTS, seed=1)
        assert reference.llc_misses > kill_at

        ck = Checkpointer(tmp_path, every=5)
        with pytest.raises(_KilledAt):
            simulate(
                config, "mcf", num_requests=REQUESTS, seed=1,
                backend_filter=lambda b: _KillingBackend(b, kill_at),
                checkpointer=ck,
            )
        assert ck.saves >= 1

        resumed = simulate(
            config, "mcf", num_requests=REQUESTS, seed=1,
            checkpointer=Checkpointer(tmp_path, every=5),
            restore=True,
        )
        assert repr(resumed) == repr(reference)

    def test_restore_with_empty_directory_runs_fresh(self, tmp_path):
        config = small_config()
        reference = simulate(config, "mcf", num_requests=REQUESTS, seed=1)
        resumed = simulate(
            config, "mcf", num_requests=REQUESTS, seed=1,
            checkpointer=Checkpointer(tmp_path, every=5),
            restore=True,
        )
        assert repr(resumed) == repr(reference)

    def test_checkpoints_from_other_config_ignored(self, tmp_path):
        config = small_config()
        other = SystemConfig.tiny(oram=OramConfig(levels=8)).with_(seed=1)
        simulate(other, "mcf", num_requests=REQUESTS, seed=1,
                 checkpointer=Checkpointer(tmp_path, every=5))
        reference = simulate(config, "mcf", num_requests=REQUESTS, seed=1)
        resumed = simulate(
            config, "mcf", num_requests=REQUESTS, seed=1,
            checkpointer=Checkpointer(tmp_path, every=5),
            restore=True,
        )
        assert repr(resumed) == repr(reference)

    def test_resume_with_integrity_enabled(self, tmp_path):
        config = small_config(integrity=True, recovery="recover")
        reference = simulate(config, "mcf", num_requests=REQUESTS, seed=1)
        ck = Checkpointer(tmp_path, every=5)
        with pytest.raises(_KilledAt):
            simulate(
                config, "mcf", num_requests=REQUESTS, seed=1,
                backend_filter=lambda b: _KillingBackend(b, 17),
                checkpointer=ck,
            )
        resumed = simulate(
            config, "mcf", num_requests=REQUESTS, seed=1,
            checkpointer=Checkpointer(tmp_path, every=5),
            restore=True,
        )
        assert repr(resumed) == repr(reference)

    def test_adversary_trace_identical_after_resume(self, tmp_path):
        """The observable access sequence must not betray a restore."""
        config = small_config()

        def record():
            events = []
            return events, events.append

        ref_events, ref_obs = record()
        simulate(config, "mcf", num_requests=REQUESTS, seed=1,
                 observer=ref_obs)

        ck = Checkpointer(tmp_path, every=5)
        with pytest.raises(_KilledAt):
            simulate(config, "mcf", num_requests=REQUESTS, seed=1,
                     backend_filter=lambda b: _KillingBackend(b, 23),
                     checkpointer=ck)
        res_events, res_obs = record()
        simulate(config, "mcf", num_requests=REQUESTS, seed=1,
                 checkpointer=Checkpointer(tmp_path, every=5),
                 restore=True, observer=res_obs)
        # The resumed run replays only the tail: its trace must be a
        # suffix of the uninterrupted one (same leaves, same times).
        assert res_events == ref_events[len(ref_events) - len(res_events):]
        assert len(res_events) > 0


    @pytest.mark.parametrize("tp", [False, True], ids=["no-tp", "tp"])
    def test_counters_survive_a_restore(self, tmp_path, tp):
        """Counters read from the run's stats cover the whole run after
        a restore, not only the accesses served after it.  Counters fed
        by events (``duplication/from_stash``, ``checkpoint/*``,
        ``oram/*``) still cover only the events they saw."""
        config = small_config()
        if tp:
            config = config.with_timing_protection(800)
        event_fed = ("duplication/from_stash", "checkpoint/", "oram/")

        def counters(**kwargs):
            bus = EventBus()
            collector = MetricsCollector(bus)
            simulate(config, "mcf", num_requests=REQUESTS, seed=1, bus=bus,
                     **kwargs)
            return {
                name: value
                for name, value in collector.to_dict()["counters"].items()
                if not name.startswith(event_fed)
            }

        reference = counters()
        with pytest.raises(_KilledAt):
            simulate(
                config, "mcf", num_requests=REQUESTS, seed=1,
                backend_filter=lambda b: _KillingBackend(b, 41),
                checkpointer=Checkpointer(tmp_path, every=5),
            )
        resumed = counters(
            checkpointer=Checkpointer(tmp_path, every=5), restore=True
        )
        assert resumed == reference
        assert reference["requests/data"] > 41
        assert ("scheduler/slot_waits" in reference) == tp


class TestRunKeyIsolation:
    def test_simulator_stamps_run_key(self, tmp_path):
        config = small_config()
        ck = Checkpointer(tmp_path, every=5)
        SystemSimulator(config).run("mcf", num_requests=REQUESTS, seed=1,
                                    checkpointer=ck)
        assert ck.run_key is not None
        assert ck.run_key["workload"] == "mcf"
        assert ck.run_key["seed"] == 1
