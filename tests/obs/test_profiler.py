"""Exclusive-time profiler semantics and the profile_run harness."""

import time

import pytest

from repro.obs.profiler import Profiler, profile_run
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig


class TestProfiler:
    def test_sections_accumulate(self):
        prof = Profiler()
        with prof.section("a"):
            time.sleep(0.01)
        with prof.section("a"):
            time.sleep(0.01)
        assert prof.totals["a"] >= 0.02
        assert prof.total == pytest.approx(prof.totals["a"])

    def test_nested_section_pauses_parent(self):
        prof = Profiler()
        with prof.section("outer"):
            time.sleep(0.01)
            with prof.section("inner"):
                time.sleep(0.03)
            time.sleep(0.01)
        assert prof.totals["inner"] >= 0.03
        # Exclusive time: the inner 30 ms is not charged to the outer.
        assert prof.totals["outer"] < 0.03
        assert prof.total >= 0.05

    def test_wrap_charges_method_calls(self):
        class Worker:
            def work(self, value):
                time.sleep(0.01)
                return value * 2

        prof = Profiler()
        worker = Worker()
        prof.wrap(worker, "work", "working")
        assert worker.work(21) == 42
        assert prof.totals["working"] >= 0.01


class TestProfileRun:
    def test_stages_reported_and_result_sane(self):
        config = SystemConfig.dynamic(3, oram=OramConfig(levels=8))
        totals, result = profile_run(config, "mcf", num_requests=2000)
        assert result.llc_misses > 0
        for stage in ("trace build", "oram access", "eviction", "bookkeeping"):
            assert stage in totals, f"missing stage {stage!r}"
            assert totals[stage] >= 0.0
        assert sum(totals.values()) > 0.0

    def test_timing_protection_reports_dummy_stage(self):
        config = SystemConfig.dynamic(
            3, oram=OramConfig(levels=8)
        ).with_timing_protection(800)
        totals, result = profile_run(config, "mcf", num_requests=2000)
        assert result.dummy_requests > 0
        assert "dummy requests" in totals

    def test_wrap_targets_do_not_silently_vanish(self):
        """Every section the profiler promises gets real time attributed.

        A hot-path refactor that renames or inlines a wrapped method
        (e.g. the shadow controller inlining ``stash.insert``) would
        leave ``Profiler.wrap`` shadowing a method nobody calls — the
        run still works, the section just silently reads zero.  Guard:
        on a shadow-scheme run every controller-side stage must
        accumulate strictly positive exclusive time, and the wrapped
        attribute names must still exist.
        """
        from repro.core.controller import ShadowOramController
        from repro.oram.stash import Stash

        for cls, name in (
            (ShadowOramController, "access"),
            (ShadowOramController, "_maybe_evict"),
            (ShadowOramController, "dummy_access"),
            (ShadowOramController, "_stash_insert"),
            (Stash, "insert"),
            (Stash, "lookup_real"),
            (Stash, "lookup_shadow"),
        ):
            assert callable(getattr(cls, name)), (
                f"profiler wrap target {cls.__name__}.{name} vanished"
            )

        config = SystemConfig.dynamic(3, oram=OramConfig(levels=8))
        totals, result = profile_run(config, "mcf", num_requests=2000)
        assert result.llc_misses > 0
        for stage in ("oram access", "eviction", "stash scan"):
            assert totals.get(stage, 0.0) > 0.0, (
                f"stage {stage!r} attributed no time: its wrapped "
                "method is no longer on the hot path"
            )

    def test_merkle_stage_attributed_with_integrity_armed(self):
        config = SystemConfig.dynamic(
            3, oram=OramConfig(levels=8, integrity=True, recovery="recover")
        )
        totals, _result = profile_run(config, "mcf", num_requests=2000)
        assert totals.get("merkle hashing", 0.0) > 0.0

    def test_insecure_config_profiles_without_controller_stages(self):
        config = SystemConfig.insecure_system(oram=OramConfig(levels=8))
        totals, result = profile_run(config, "mcf", num_requests=2000)
        assert result.llc_misses > 0
        assert "trace build" in totals
        assert "bookkeeping" in totals
        assert "oram access" not in totals
