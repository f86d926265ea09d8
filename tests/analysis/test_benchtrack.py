"""``repro bench``: runs of the declared benchmark, history and gating.

Every test drives a fake benchmark: a ``BENCHMARK.json`` in a temporary
working directory whose command is a small script that prints the
result line it finds in ``result.json``.  No real benchmark runs.
"""

import json
import subprocess
import sys

import pytest

import repro.analysis.benchtrack as benchtrack
from repro.cli import main, make_parser
from repro.exit_codes import EXIT_BENCH_INCORRECT, EXIT_BENCH_REGRESSION

FAKE_BENCH = """\
import argparse, json, sys
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
parser.add_argument("--seconds", type=float)
args = parser.parse_args()
with open("calls.jsonl", "a") as stream:
    stream.write(json.dumps(vars(args)) + "\\n")
with open("result.json") as stream:
    result = json.load(stream)
if "exit" in result:
    sys.exit(result["exit"])
print("a line before the result")
print(json.dumps(result))
"""

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "ok_rate", "unit": "ratio", "better": "higher", "bound": 0.01},
]
GOOD = {"setup_s": 0.3, "peak_rss_mb": 40.0, "ops_per_s": 1000.0, "ok_rate": 1.0}


def result_line(correct=True, **changes):
    values = dict(GOOD, **changes)
    return {
        "correct": correct,
        "attempted": 100,
        "failed": 0,
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in END_TO_END
        },
    }


def entry(git="g", workload="sim-dup", seed=1, seconds=25.0, **changes):
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "git": git, "recorded_at": "t", **result_line(**changes)}


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """A working directory holding a fake benchmark; returns a runner."""
    (tmp_path / "fake_bench.py").write_text(FAKE_BENCH)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "fake_bench.py"],
        "paths": [],
        "run_seconds": 25,
        "workloads": [{"name": "sim-dup"}, {"name": "wire"}],
        "end_to_end": END_TO_END,
    }))
    monkeypatch.chdir(tmp_path)

    def run(*flags, result=None):
        (tmp_path / "result.json").write_text(
            json.dumps(result if result is not None else result_line())
        )
        return main(["bench", "--workload", "sim-dup", "--host", "box",
                     *flags])

    return run


def history():
    return benchtrack.BenchHistory(host="box")


def calls():
    with open("calls.jsonl") as stream:
        return [json.loads(line) for line in stream]


class TestRegressionGate:
    def test_within_threshold_passes(self):
        checks = benchtrack.check_metrics(
            END_TO_END, entry(), entry(ops_per_s=800.0, setup_s=0.36)
        )
        assert [regressed for _line, regressed in checks] == [False] * 4

    def test_past_threshold_flags(self):
        checks = dict(
            (line.split(":")[0], regressed)
            for line, regressed in benchtrack.check_metrics(
                END_TO_END, entry(), entry(ops_per_s=700.0, peak_rss_mb=45.0)
            )
        )
        assert checks == {"setup_s": False, "peak_rss_mb": True,
                          "ops_per_s": True, "ok_rate": False}

    def test_better_direction_never_flags(self):
        checks = benchtrack.check_metrics(
            END_TO_END, entry(),
            entry(setup_s=0.01, peak_rss_mb=1.0, ops_per_s=9000.0),
        )
        assert not any(regressed for _line, regressed in checks)

    def test_missing_current_metric_flags(self):
        current = entry()
        del current["metrics"]["ok_rate"]
        baseline = entry()
        del baseline["metrics"]["setup_s"]
        checks = dict(benchtrack.check_metrics(END_TO_END, baseline, current))
        assert checks["ok_rate: missing in this run"] is True
        assert checks["setup_s: missing in baseline"] is False


class TestCompare:
    def test_identical_entries_do_not_regress(self):
        checks = benchtrack.check_metrics(END_TO_END, entry(), entry())
        assert len(checks) == len(END_TO_END)
        assert not any(regressed for _line, regressed in checks)

    def test_slower_wall_clock_regresses(self):
        checks = dict(benchtrack.check_metrics(
            END_TO_END, entry(), entry(setup_s=0.45)
        ))
        assert [line for line, regressed in checks.items() if regressed] == [
            "setup_s: 0.3 -> 0.45 s (+50.0%; lower is better, bound 25%) "
            "REGRESSION"
        ]

    def test_mismatched_keys_refuse_to_compare(self):
        entries = [entry(workload="wire"), entry(seed=2), entry(seconds=1.0),
                   entry(correct=False)]
        assert benchtrack.find_baseline(entries, entry()) is None
        assert benchtrack.find_baseline(entries, entry(seed=2)) is entries[1]


class TestMeasureAndHistory:
    def test_history_append_and_find(self, tmp_path):
        history = benchtrack.BenchHistory(tmp_path, host="ci-box")
        assert history.load() == []
        assert history.append(entry(git="aaa111")) == 1
        assert history.append(entry(git="bbb222", workload="wire")) == 2
        assert history.append(entry(git="ccc333")) == 3
        assert history.path.name == "BENCH_ci-box.json"
        entries = history.load()
        assert benchtrack.find_baseline(entries, entry())["git"] == "ccc333"
        assert benchtrack.find_baseline(entries, entry(), "aaa")["git"] == "aaa111"
        assert benchtrack.find_baseline(entries, entry(), "bbb") is None

    def test_history_file_is_valid_json(self, tmp_path):
        history = benchtrack.BenchHistory(tmp_path)
        history.append(entry())
        payload = json.loads(history.path.read_text())
        assert payload["schema"] == benchtrack.BenchHistory.SCHEMA
        assert len(payload["entries"]) == 1

    def test_other_schema_is_refused_not_overwritten(self, tmp_path):
        history = benchtrack.BenchHistory(tmp_path)
        history.path.write_text(json.dumps({"schema": 1, "entries": [{}]}))
        with pytest.raises(ValueError, match="schema 1"):
            history.append(entry())
        assert json.loads(history.path.read_text())["entries"] == [{}]

    def test_host_slug_sanitizes(self):
        assert benchtrack.host_slug("my host/01!") == "my-host-01"
        assert benchtrack.host_slug("...") == "unknown"

    def test_measure_entry_shape(self, bench):
        assert bench("--seed", "3", "--seconds", "2") == 0
        assert calls() == [{"workload": "sim-dup", "seed": 3, "seconds": 2.0}]
        [recorded] = history().load()
        assert recorded["host"] == "box"
        assert {k: recorded[k] for k in ("workload", "seed", "seconds")} == {
            "workload": "sim-dup", "seed": 3, "seconds": 2.0}
        assert recorded["git"] and recorded["recorded_at"]
        assert {k: recorded[k] for k in result_line()} == result_line()


class TestBenchCli:
    def test_first_run_records_baseline(self, bench, capsys):
        assert bench("--compare") == 0
        assert "serve as one" in capsys.readouterr().out
        assert len(history().load()) == 1
        # Defaults: seed 1 and BENCHMARK.json's run_seconds.
        assert calls() == [{"workload": "sim-dup", "seed": 1, "seconds": 25.0}]

    def test_identical_rerun_exits_zero(self, bench, capsys):
        assert bench() == 0
        assert bench("--compare") == 0
        assert "no regression" in capsys.readouterr().out

    def test_slowed_rerun_exits_nonzero(self, bench, capsys):
        assert bench() == 0
        slowed = result_line(ops_per_s=700.0)
        assert bench("--compare", result=slowed) == EXIT_BENCH_REGRESSION
        out = capsys.readouterr().out
        assert "ops_per_s: 1000 -> 700" in out
        assert "PERF REGRESSION" in out

    def test_grown_lower_is_better_metric_exits_nonzero(self, bench):
        assert bench() == 0
        grown = result_line(peak_rss_mb=44.5)
        assert bench("--compare", result=grown) == EXIT_BENCH_REGRESSION

    def test_change_within_bound_exits_zero(self, bench, capsys):
        assert bench() == 0
        within = result_line(ops_per_s=800.0, setup_s=0.37, peak_rss_mb=43.9)
        assert bench("--compare", result=within) == 0
        assert "no regression" in capsys.readouterr().out

    def test_every_run_appends_history(self, bench):
        for expected in (1, 2, 3):
            bench()
            assert len(history().load()) == expected

    def test_incorrect_run_is_recorded_and_exits_nonzero(self, bench, capsys):
        assert bench("--compare", result=result_line(correct=False)) == (
            EXIT_BENCH_INCORRECT)
        assert "output checks failed" in capsys.readouterr().out
        assert history().load()[0]["correct"] is False
        # An incorrect entry is never a baseline.
        assert bench("--compare") == 0
        assert "serve as one" in capsys.readouterr().out

    def test_failed_command_records_nothing(self, bench):
        assert bench(result={"exit": 3}) == EXIT_BENCH_INCORRECT
        assert bench(result={"correct": True}) == EXIT_BENCH_INCORRECT
        assert history().load() == []

    def test_other_workload_seed_or_length_is_never_the_baseline(
        self, bench, capsys
    ):
        slow = dict(ops_per_s=1.0, setup_s=99.0)
        for other in (entry(workload="wire", **slow), entry(seed=2, **slow),
                      entry(seconds=5.0, **slow)):
            history().append(other)
        assert bench("--compare") == 0
        assert "serve as one" in capsys.readouterr().out

    def test_base_selects_baseline_by_git_prefix(self, bench, capsys):
        history().append(entry(git="aaa111", ops_per_s=2000.0))
        history().append(entry(git="bbb222"))
        assert bench("--compare") == 0
        assert "baseline bbb222" in capsys.readouterr().out
        assert bench("--compare", "aaa") == EXIT_BENCH_REGRESSION
        assert "baseline aaa111" in capsys.readouterr().out
        assert bench("--compare", "zzz") == 0
        assert "serve as one" in capsys.readouterr().out

    def test_undeclared_workload_is_refused(self, bench):
        with pytest.raises(SystemExit, match="declares sim-dup, wire"):
            main(["bench", "--workload", "mcf"])

    def test_parser_needs_no_benchmark_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = make_parser().parse_args(["bench", "--workload", "sim-dup"])
        assert (args.seed, args.seconds, args.compare) == (1, None, None)
        with pytest.raises(SystemExit, match="no BENCHMARK.json"):
            main(["bench", "--workload", "sim-dup"])

    def test_only_the_six_options(self):
        bench_p = make_parser()._subparsers._group_actions[0].choices["bench"]
        flags = {opt for action in bench_p._actions
                 for opt in action.option_strings} - {"-h", "--help"}
        assert flags == {"--workload", "--seed", "--seconds", "--host",
                         "--history-dir", "--compare"}


def git(*args):
    """Run git in the working directory; its stripped stdout."""
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         "-c", "commit.gpgsign=false", *args],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


class TestRecordedRevision:
    """A checkout that tracks its history file stays clean for ``bench``."""

    def test_own_history_does_not_dirty_the_revision(self, bench):
        history().append(entry(git="seed"))
        git("init", "-q")
        git("add", "BENCHMARK.json", "fake_bench.py", str(history().path))
        git("commit", "-q", "-m", "seed")
        head = git("describe", "--always", "--dirty", "--tags")
        assert not head.endswith("-dirty")
        assert bench() == 0
        assert bench() == 0
        assert git("status", "--porcelain", "--untracked-files=no") != ""
        assert [e["git"] for e in history().load()[1:]] == [head, head]
        with open("fake_bench.py", "a") as stream:
            stream.write("# a tracked edit\n")
        assert bench() == 0
        assert history().load()[-1]["git"] == f"{head}-dirty"
