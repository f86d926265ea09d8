"""CLI tests for fault-tolerant sweeps and the faults subcommand."""

import pytest

import repro.analysis.engine as engine_mod
from repro.cli import EXIT_INTERRUPTED, EXIT_SWEEP_FAILED, main

FAST = [
    "--workloads", "mcf", "--schemes", "tiny", "--requests", "600",
    "--levels", "8",
]


class TestFaultsCommand:
    def test_list_prints_taxonomy(self, capsys):
        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        for kind in ("worker-crash", "worker-hang", "cache-corrupt",
                     "cache-os-error", "stash-pressure", "bit-flip",
                     "posmap-corrupt"):
            assert kind in out

    def test_no_action_exits(self):
        with pytest.raises(SystemExit):
            main(["faults"] + FAST)

    def test_bad_spec_exits(self):
        with pytest.raises(SystemExit, match="bad --inject"):
            main(["faults", "--inject", "solar-flare@9"] + FAST)

    def test_crash_inject_run(self, capsys):
        code = main(
            ["faults", "--inject", "worker-crash@0", "--retries", "1",
             "--no-cache"] + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "retried" in out
        assert "runtime invariants" in out

    def test_unrecovered_crash_returns_failure_code(self, capsys):
        code = main(
            ["faults", "--inject", "worker-crash@0", "--no-cache"] + FAST
        )
        assert code == EXIT_SWEEP_FAILED
        assert "failed" in capsys.readouterr().out


class TestCorruptionRecovery:
    def test_bit_flip_detected_and_recovered(self, capsys):
        code = main(
            ["faults", "--inject", "bit-flip:at_access=3", "--no-cache",
             "--scrub-interval", "1"] + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "enabling --integrity" in out
        assert "bit-flip@access3" in out
        assert "recovery (recover): 1 corruption(s) detected, 1 recovered" in out

    def test_bit_flip_under_raise_policy_aborts(self, capsys):
        code = main(
            ["faults", "--inject", "bit-flip:at_access=3", "--no-cache",
             "--scrub-interval", "1", "--recovery-policy", "raise"] + FAST
        )
        out = capsys.readouterr().out
        assert code == EXIT_SWEEP_FAILED
        assert "IntegrityError" in out
        assert "integrity layer aborted the run" in out

    def test_posmap_corrupt_inject_runs_clean(self, capsys):
        code = main(
            ["faults", "--inject", "posmap-corrupt:at_access=3", "--no-cache",
             "--scrub-interval", "1"] + FAST
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "posmap-corrupt@access3" in out
        assert "posmap repair(s)" in out


class TestSweepFaultFlags:
    def test_sweep_accepts_robustness_flags(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code = main(
            ["sweep", "--cache-dir", cache_dir, "--timeout", "60",
             "--retries", "2", "--backoff", "0.1", "--jobs", "1"] + FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep report: 1 points: 1 ok" in out
        # The result cache is all a sweep keeps: one entry, no ledger.
        files = [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
        assert [p.suffix for p in files] == [".json"]

    def test_sweep_resume_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "--cache-dir", cache_dir] + FAST) == 0
        capsys.readouterr()
        assert main(["sweep", "--cache-dir", cache_dir] + FAST) == 0
        out = capsys.readouterr().out
        assert "1 hits, 0 misses" in out
        assert "sweep report: 1 points: 1 cached" in out

    def test_plain_rerun_finishes_a_partial_sweep(self, tmp_path, capsys):
        # `raise` keeps the faults run's config fingerprints equal to a
        # plain sweep's (the faults default, `recover`, changes them).
        grid = [
            "--workloads", "mcf,libquantum", "--schemes", "tiny,dynamic-3",
            "--requests", "600", "--levels", "8",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        code = main(
            ["faults", "--inject", "worker-crash@1",
             "--recovery-policy", "raise"] + grid
        )
        assert code == EXIT_SWEEP_FAILED
        assert "1 failed, 3 ok" in capsys.readouterr().out
        assert main(["sweep"] + grid) == 0
        out = capsys.readouterr().out
        assert "3 hits, 1 misses" in out
        assert "sweep report: 4 points: 3 cached, 1 ok" in out

    def test_interrupt_says_a_rerun_finishes(self, tmp_path, capsys,
                                             monkeypatch):
        grid = [
            "--workloads", "mcf", "--schemes", "tiny,dynamic-3",
            "--requests", "600", "--levels", "8",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        real = engine_mod.execute_point
        calls = {"count": 0}

        def flaky(point, backend_filter=None, bus=None):
            calls["count"] += 1
            if calls["count"] == 2:
                raise KeyboardInterrupt
            return real(point, backend_filter=backend_filter, bus=bus)

        monkeypatch.setattr(engine_mod, "execute_point", flaky)
        assert main(["sweep"] + grid) == EXIT_INTERRUPTED
        out = capsys.readouterr().out
        assert "interrupted -- 2 points: 1 interrupted, 1 ok" in out
        assert "run the same command again" in out
        monkeypatch.undo()
        assert main(["sweep"] + grid) == 0
        out = capsys.readouterr().out
        assert "1 hits, 1 misses" in out
        assert "sweep report: 2 points: 1 cached, 1 ok" in out
