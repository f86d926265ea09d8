"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_config, main, make_parser


class TestBuildConfig:
    def _args(self, **overrides):
        defaults = dict(
            scheme="dynamic-3", workload="mcf", requests=100, seed=1,
            levels=8, utilization=0.25, treetop=0, xor=False,
            timing_protection=False, rate=800.0,
            integrity=False, recovery_policy="raise", scrub_interval=0,
        )
        defaults.update(overrides)
        import argparse

        return argparse.Namespace(**defaults)

    def test_scheme_parsing(self):
        assert build_config(self._args(scheme="tiny")).name == "Tiny"
        assert build_config(self._args(scheme="static-5")).name == "static-5"
        assert build_config(self._args(scheme="dynamic-4")).name == "dynamic-4"
        assert build_config(self._args(scheme="rd-dup")).name == "RD-Dup"
        assert build_config(self._args(scheme="hd-dup")).shadow.partition_level == 9
        assert build_config(self._args(scheme="insecure")).insecure

    def test_unknown_scheme_exits(self):
        with pytest.raises(SystemExit):
            build_config(self._args(scheme="quantum"))
        with pytest.raises(SystemExit, match="unknown scheme 'static-x'"):
            build_config(self._args(scheme="static-x"))

    def test_flags_propagate(self):
        cfg = build_config(
            self._args(timing_protection=True, rate=640.0, treetop=2, xor=True)
        )
        assert cfg.timing.enabled
        assert cfg.timing.rate_cycles == 640.0
        assert cfg.oram.treetop_levels == 2
        assert cfg.oram.xor_compression


class TestCommands:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "h264ref" in out

    def test_overhead_command(self, capsys):
        assert main(["overhead", "--levels", "10"]) == 0
        out = capsys.readouterr().out
        assert "shadow bits" in out
        assert "Hot Address Cache" in out

    def test_run_command_small(self, capsys):
        code = main([
            "run", "--scheme", "dynamic-3", "--workload", "namd",
            "--requests", "1500", "--levels", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "total cycles" in out
        assert "on-chip hit rate" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_compare_table(self, capsys):
        def table_rows(extra):
            argv = ["compare", "--levels", "9", "--requests", "1500"]
            assert main(argv + extra) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == "Scheme comparison on h264ref"
            # Title, rule, header, separator, then one row per scheme.
            return [line.split() for line in lines[4:]]

        protected = table_rows(["--timing-protection"])
        assert [row[0] for row in protected] == [
            "insecure", "Tiny", "RD-Dup", "HD-Dup", "dynamic-3",
        ]
        assert protected[1][2] == "1.000"
        # The insecure baseline never runs under timing protection.
        assert protected[0] == table_rows([])[0]


class TestCheckpointFlags:
    ARGS = ["run", "--scheme", "dynamic-3", "--workload", "mcf",
            "--requests", "20000", "--levels", "8"]

    @staticmethod
    def _result_lines(out):
        start = out.index("Simulation result")
        return [line for line in out[start:].splitlines()
                if "cycles" in line or "latency" in line or "stash" in line]

    def test_checkpoint_restore_round_trip(self, tmp_path, capsys):
        ckpt = ["--checkpoint-dir", str(tmp_path / "ckpt"),
                "--checkpoint-every", "10"]
        assert main(self.ARGS) == 0
        reference = self._result_lines(capsys.readouterr().out)

        assert main(self.ARGS + ckpt) == 0
        first = capsys.readouterr().out
        assert "checkpoints in" in first
        assert self._result_lines(first) == reference

        assert main(self.ARGS + ckpt + ["--restore"]) == 0
        resumed = capsys.readouterr().out
        assert self._result_lines(resumed) == reference

    def test_restore_needs_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="--restore needs"):
            main(self.ARGS + ["--restore"])

    def test_integrity_flags_accepted(self, capsys):
        assert main(self.ARGS + ["--integrity", "--recovery-policy",
                                 "recover", "--scrub-interval", "16"]) == 0
        assert "total cycles" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_run_writes_all_observability_outputs(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        adversary = tmp_path / "adversary.jsonl"
        code = main([
            "run", "--scheme", "dynamic-3", "--workload", "namd",
            "--requests", "1200", "--levels", "9", "--timing-protection",
            "--trace", str(trace),
            "--events", str(events),
            "--metrics", str(metrics),
            "--adversary-trace", str(adversary),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote metrics (JSON)" in out

        payload = json.loads(metrics.read_text())
        assert payload["counters"]["requests/data"] > 0
        assert payload["config"].startswith("dynamic-3")

        trace_doc = json.loads(trace.read_text())
        assert trace_doc["traceEvents"]

        event_lines = events.read_text().splitlines()
        assert json.loads(event_lines[0])["type"] == "run_metadata"
        assert any(
            json.loads(line)["type"] == "RequestCompleted"
            for line in event_lines[1:]
        )

        adversary_lines = adversary.read_text().splitlines()
        assert json.loads(adversary_lines[0])["type"] == "run_metadata"
        record = json.loads(adversary_lines[1])
        assert record["type"] == "path_access"
        assert set(record) >= {"kind", "leaf", "time"}

    def test_run_without_flags_writes_nothing(self, tmp_path, capsys):
        code = main([
            "run", "--scheme", "tiny", "--workload", "namd",
            "--requests", "600", "--levels", "9",
        ])
        assert code == 0
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_profile_command(self, capsys):
        code = main([
            "profile", "--workload", "namd", "--requests", "800",
            "--levels", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "oram_access" in out
        assert "trace build" in out
        assert "host time" in out


class TestSweepTelemetryFlags:
    SWEEP_ARGS = [
        "sweep", "--workloads", "mcf", "--schemes", "tiny,dynamic-3",
        "--requests", "600", "--levels", "9", "--jobs", "2",
    ]

    def test_sweep_metrics_merges_workers_and_rollup(self, tmp_path, capsys):
        metrics = tmp_path / "merged.json"
        code = main(self.SWEEP_ARGS + [
            "--cache-dir", str(tmp_path / "cache"), "--metrics", str(metrics),
        ])
        assert code == 0
        assert "wrote merged sweep metrics" in capsys.readouterr().out
        payload = json.loads(metrics.read_text())
        counters = payload["counters"]
        assert counters["sweep/points"] == 2
        assert counters["served/path"] > 0
        worker_keys = [k for k in counters if k.startswith("worker/")]
        assert worker_keys
        per_worker = sum(
            v for k, v in counters.items()
            if k.startswith("worker/") and k.endswith("/served/path")
        )
        assert per_worker == counters["served/path"]
        assert payload["jobs"] == 2

    def test_sweep_progress_jsonl_monotone(self, tmp_path, capsys):
        progress = tmp_path / "progress.jsonl"
        code = main(self.SWEEP_ARGS + [
            "--no-cache", "--progress-jsonl", str(progress),
        ])
        assert code == 0
        records = [
            json.loads(line) for line in progress.read_text().splitlines()
        ]
        assert records
        done = [r["done"] for r in records]
        assert done == sorted(done)
        assert records[-1]["done"] == records[-1]["total"] == 2

    def test_sweep_live_off_tty_degrades_to_plain_lines(self, tmp_path,
                                                        capsys):
        # pytest's captured stdout is not a TTY, so --live degrades to
        # throttled plain progress lines (no \r repaints) after a
        # one-time warning on stderr.
        code = main(self.SWEEP_ARGS + ["--no-cache", "--live"])
        assert code == 0
        captured = capsys.readouterr()
        assert "\r" not in captured.out
        assert "not a TTY" in captured.err
        assert "[2/2]" in captured.out  # final plain progress line
