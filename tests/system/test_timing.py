"""Unit tests for the request scheduler / timing protection."""

from random import Random

import pytest

from repro.oram.config import OramConfig
from repro.oram.tiny import TinyOramController
from repro.system.config import TimingProtectionConfig
from repro.system.timing import RequestScheduler


class FakeController:
    """Stub controller with fixed dummy-access duration."""

    def __init__(self, dummy_duration=300.0):
        self.dummy_duration = dummy_duration
        self.dummy_times = []
        self.idle_gaps = []

    def dummy_access(self, now):
        self.dummy_times.append(now)

        class R:
            finish = now + self.dummy_duration

        return R()

    def note_idle_gap(self, gap):
        self.idle_gaps.append(gap)


class TestWithoutProtection:
    def test_launch_is_max_of_ready_and_free(self):
        sched = RequestScheduler(FakeController(), TimingProtectionConfig())
        assert sched.launch_real(100.0) == 100.0
        sched.complete_real(100.0, 900.0)
        assert sched.launch_real(500.0) == 900.0

    def test_idle_gaps_reported_to_controller(self):
        ctl = FakeController()
        sched = RequestScheduler(ctl, TimingProtectionConfig())
        sched.complete_real(0.0, 100.0)
        sched.launch_real(1500.0)
        assert ctl.idle_gaps == [1400.0]

    def test_no_gap_note_when_backlogged(self):
        ctl = FakeController()
        sched = RequestScheduler(ctl, TimingProtectionConfig())
        sched.complete_real(0.0, 1000.0)
        sched.launch_real(500.0)
        assert ctl.idle_gaps == []

    def test_busy_accounting(self):
        sched = RequestScheduler(FakeController(), TimingProtectionConfig())
        sched.complete_real(100.0, 900.0)
        sched.complete_real(1000.0, 1600.0)
        assert sched.data_busy == 1400.0


class TestWithProtection:
    def _sched(self, dummy_duration=300.0, rate=800.0):
        ctl = FakeController(dummy_duration)
        tp = TimingProtectionConfig(enabled=True, rate_cycles=rate)
        return ctl, RequestScheduler(ctl, tp)

    def test_ready_request_takes_first_slot(self):
        _ctl, sched = self._sched()
        assert sched.launch_real(0.0) == 0.0
        sched.complete_real(0.0, 500.0)
        # Next slot is at 800 (one per rate even though finished at 500).
        assert sched.launch_real(0.0) == 800.0

    def test_idle_slots_fire_dummies(self):
        ctl, sched = self._sched()
        launch = sched.launch_real(2000.0)
        # Slots 0, 800, 1600 fire dummies; real launches at 2400.
        assert ctl.dummy_times == [0.0, 800.0, 1600.0]
        assert launch == 2400.0
        assert sched.dummy_requests == 3

    def test_just_missed_slot_waits_for_dummy(self):
        # The Figure 2(d) penalty: ready at 810 misses the slot at 800.
        ctl, sched = self._sched()
        sched.launch_real(0.0)
        sched.complete_real(0.0, 700.0)
        launch = sched.launch_real(810.0)
        assert ctl.dummy_times == [800.0]
        assert launch == 1600.0

    def test_slow_dummies_push_slots(self):
        ctl, sched = self._sched(dummy_duration=1000.0, rate=800.0)
        launch = sched.launch_real(2000.0)
        # Slot at 0 fires a dummy that runs to 1000; next slot at 1000
        # (controller-free bound), runs to 2000; real at 2000.
        assert ctl.dummy_times == [0.0, 1000.0]
        assert launch == 2000.0

    def test_dummy_busy_tracked(self):
        # Ready at 900: dummies fire at slots 0 and 800 (300 cycles each).
        _ctl, sched = self._sched()
        sched.launch_real(900.0)
        assert sched.dummy_busy == 600.0


class TestWithRealController:
    def test_dummy_requests_hit_real_oram(self):
        cfg = OramConfig(levels=5, utilization=0.25)
        ctl = TinyOramController(cfg, Random(0))
        tp = TimingProtectionConfig(enabled=True, rate_cycles=100.0)
        sched = RequestScheduler(ctl, tp)
        sched.launch_real(550.0)
        assert ctl.stats.dummy_accesses > 0
