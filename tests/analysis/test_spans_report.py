"""Host-time attribution from span wall clocks: trace analyze and profile.

``repro trace analyze`` reports exclusive host seconds per phase next to
cycles, and ``repro profile`` is a span-traced run folded into the same
per-phase host seconds plus its own ``trace build`` and ``frontend``
clock.  The profile test doubles as the span-coverage check: a refactor
that drops a phase's span pair (e.g. ``eviction`` from ``_maybe_evict``)
makes that stage vanish and fails it.
"""

import json
from pathlib import Path
from time import perf_counter

import pytest

from repro.analysis.spans_report import host_by_phase, host_profile
from repro.cli import main
from repro.exit_codes import EXIT_TRACE_INVALID
from repro.obs.events import EventBus
from repro.obs.flightrec import FlightRecorder
from repro.obs.spans import Span, SpanTrace
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig
from repro.system.simulator import simulate

RUN = ["--workload", "mcf", "--requests", "2000", "--levels", "9"]

# ``repro run --scheme dynamic-3 --workload mcf --levels 6
# --timing-protection --rate 800 --requests 100 --spans FILE``, and the
# flight-recorder dump of a 300-request run of that configuration
# (capacity 600, so the ring opens mid-trace), each beside the output
# ``trace analyze`` printed for it.
GOLDEN = Path(__file__).parent / "golden"
SPANS = GOLDEN / "spans-dynamic-3-L6-tp800-mcf.jsonl"
POSTMORTEM = GOLDEN / "postmortem-dynamic-3-L6-tp800-mcf.jsonl"


def spans_file(tmp_path, *extra):
    path = tmp_path / "spans.jsonl"
    assert main(["run", *RUN, *extra, "--spans", str(path)]) == 0
    return path


class TestTraceAnalyzeCli:
    def test_reports_cycles_and_host_seconds(self, tmp_path, capsys):
        path = spans_file(tmp_path, "--timing-protection")
        capsys.readouterr()
        assert main(["trace", "analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "exclusive cycles" in out
        assert "host s" in out
        assert "invariant check: all" in out

        assert main(["trace", "analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        phases = payload["phase_attribution"]
        assert {"request", "dummy", "oram_access", "eviction"} <= set(phases)
        for row in phases.values():
            assert row["exclusive_cycles"] >= 0.0
            assert row["host_seconds"] > -1e-6
        assert sum(row["host_seconds"] for row in phases.values()) > 0.0

    def test_root_cut_below_its_child_exits_trace_invalid(
        self, tmp_path, capsys
    ):
        path = spans_file(tmp_path)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            root = record.get("root")
            children = root.get("children", []) if root else []
            if any(child["end"] > root["start"] for child in children):
                root["end"] = max(child["end"] for child in children) - 1
                lines[i] = json.dumps(record)
                break
        else:
            pytest.fail("no trace with a timed child to cut")
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["trace", "analyze", str(path)]) == EXIT_TRACE_INVALID
        assert "INVARIANT VIOLATIONS" in capsys.readouterr().out

    def test_postmortem_is_analyzed_without_host_seconds(
        self, tmp_path, capsys
    ):
        bus = EventBus()
        recorder = FlightRecorder(bus, capacity=2000, directory=tmp_path)
        simulate(
            SystemConfig.dynamic(3, oram=OramConfig(levels=9)), "mcf",
            num_requests=1500, bus=bus,
        )
        dump = recorder.dump("test")

        assert main(["trace", "analyze", str(dump)]) == 0
        out = capsys.readouterr().out
        assert f"event(s) in {dump}" in out
        assert "exclusive cycles" in out
        assert "host s" not in out

        assert main(["trace", "analyze", str(dump), "--json"]) == 0
        captured = capsys.readouterr()
        assert f"event(s) in {dump}" in captured.err
        payload = json.loads(captured.out)
        assert payload["traces"] > 0
        for row in payload["phase_attribution"].values():
            assert "host_seconds" not in row


def strip_wall(value):
    """``value`` without the host wall stamps of its spans."""
    if isinstance(value, dict):
        return {key: strip_wall(item) for key, item in value.items()
                if key not in ("wall_start", "wall_end")}
    if isinstance(value, list):
        return [strip_wall(item) for item in value]
    return value


def analyze_output(capsys, *args):
    capsys.readouterr()
    assert main(["trace", "analyze", *map(str, args)]) == 0
    return capsys.readouterr().out


class TestAnalyzeOutputLock:
    """``trace analyze`` prints the committed output for committed files.

    The span file's wall stamps are fixed, so its host seconds are too.
    A post-mortem's spans are stamped as it replays, so its analysis is
    compared without them; the dump was written by an earlier
    ``FlightRecorder`` and must keep loading.
    """

    def test_span_file_text(self, capsys):
        expected = SPANS.with_suffix(".analyze.txt").read_text()
        assert analyze_output(capsys, SPANS) == expected

    def test_span_file_json(self, capsys):
        expected = SPANS.with_suffix(".analyze.json").read_text()
        assert analyze_output(capsys, SPANS, "--json") == expected

    def test_postmortem_json(self, capsys):
        payload = json.loads(analyze_output(capsys, POSTMORTEM, "--json"))
        expected = POSTMORTEM.with_suffix(".analyze.json").read_text()
        assert json.dumps(strip_wall(payload), indent=2) + "\n" == expected


def without_host_time(payload):
    """An analysis payload without host seconds or wall stamps."""
    for row in payload["phase_attribution"].values():
        row.pop("host_seconds", None)
    return strip_wall(payload)


class TestOneReader:
    """Span files, event logs and post-mortems all read as traces."""

    def test_event_log_analyzes_like_the_span_file(self, tmp_path, capsys):
        spans, events = tmp_path / "spans.jsonl", tmp_path / "events.jsonl"
        assert main([
            "run", "--scheme", "dynamic-3", "--workload", "mcf",
            "--levels", "6", "--requests", "300", "--timing-protection",
            "--spans", str(spans), "--events", str(events),
        ]) == 0
        from_spans = json.loads(analyze_output(capsys, spans, "--json"))
        capsys.readouterr()
        assert main(["trace", "analyze", str(events), "--json"]) == 0
        captured = capsys.readouterr()
        assert f"event(s) in {events}" in captured.err
        from_events = json.loads(captured.out)
        assert from_events["traces"] == from_spans["traces"] > 0
        assert without_host_time(from_events) == without_host_time(from_spans)

    @pytest.mark.parametrize("records, why", [
        ([], "it holds no span tree and no event"),
        ([{"meta": {"sample_every": 1, "traces": 0, "dropped": 0}}],
         "it holds no span tree and no event"),
        ([{"type": "run_metadata"},
          {"type": "SpanStarted", "name": "request", "ts": 0.0}],
         "none of its 1 event(s) completes a span trace"),
    ], ids=["empty", "span-file-meta-only", "event-log-torn"])
    def test_traceless_file_is_refused(self, tmp_path, records, why):
        path = tmp_path / "traces.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "analyze", str(path), "--json"])
        assert exit_info.value.code == (
            f"trace analyze: no trace in {path}: {why}"
        )


def span(name, wall_start, wall_end, *children):
    return Span(name, 0.0, 0.0, wall_start, wall_end, children=list(children))


def trace(trace_id, root):
    return SpanTrace(trace_id=trace_id, core=-1, root=root)


class TestHostByPhase:
    def test_exclusive_wall_time_per_phase(self):
        root = span("request", 0.0, 10.0,
                    span("oram_access", 1.0, 9.0,
                         span("path_read", 2.0, 5.0)))
        assert host_by_phase([trace(0, root)]) == {
            "request": 2.0, "oram_access": 5.0, "path_read": 3.0,
        }

    def test_nested_root_counted_once(self):
        # A dummy fired in a request's slot wait opens inside the request
        # root's wall window; its time leaves the span open around it.
        request = span("request", 0.0, 20.0,
                       span("stall", 1.0, 12.0),
                       span("oram_access", 12.0, 19.0))
        dummy = span("dummy", 3.0, 8.0, span("path_read", 4.0, 7.0))
        late = span("request", 21.0, 22.0)
        traces = [trace(1, dummy), trace(0, request), trace(2, late)]
        seconds = host_by_phase(traces)
        assert seconds == {
            "request": 2.0 + 1.0, "stall": 11.0 - 5.0, "oram_access": 7.0,
            "dummy": 2.0, "path_read": 3.0,
        }
        # Every second of the two top-level roots is named exactly once.
        assert sum(seconds.values()) == 20.0 + 1.0


def profile_json(tmp_path, capsys, *extra):
    path = tmp_path / "profile.json"
    assert main(["profile", *RUN, *extra, "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "host time" in out
    return json.loads(path.read_text())


class TestProfile:
    """Every stage comes from a span wall clock or the profile's own."""

    SHADOW_STAGES = {
        "trace build", "frontend", "request", "oram_access", "stash_scan",
        "path_read", "dram_read", "eviction", "eviction_read",
        "eviction_write", "dram_write", "shadow_fill",
    }

    @pytest.mark.parametrize("extra, expected", [
        ((), set()),
        (("--timing-protection",), {"dummy", "stall"}),
        (("--integrity",), {"merkle"}),
    ], ids=["default", "timing-protection", "integrity"])
    def test_stages_sum_to_host_seconds(self, tmp_path, capsys, extra,
                                        expected):
        payload = profile_json(tmp_path, capsys, *extra)
        stages = payload["stages"]
        assert "bookkeeping" not in stages
        assert set(stages) <= self.SHADOW_STAGES | {
            "dummy", "stall", "merkle", "shadow_serve", "queue",
        }
        total = sum(stage["seconds"] for stage in stages.values())
        assert total == pytest.approx(payload["host_seconds"], abs=1e-9)
        assert min(stage["seconds"] for stage in stages.values()) > -1e-9
        assert sum(s["share"] for s in stages.values()) == pytest.approx(1.0)
        for name in {"trace build", "frontend", "oram_access",
                     "eviction"} | expected:
            assert stages.get(name, {}).get("seconds", 0.0) > 0.0, (
                f"stage {name!r} attributed no host time"
            )

    def test_every_controller_phase_has_host_time(self):
        """Span coverage of the shadow controller's hot path.

        A refactor that drops or renames a phase's span pair leaves the
        run working and the stage silently absent; every phase a shadow
        run goes through must attribute strictly positive host time.
        """
        config = SystemConfig.dynamic(3, oram=OramConfig(levels=9))
        stages, result = host_profile(config, "mcf", num_requests=2000)
        assert result.llc_misses > 0
        for name in sorted(self.SHADOW_STAGES):
            assert stages.get(name, 0.0) > 0.0, (
                f"stage {name!r} attributed no host time: its span pair "
                "is no longer emitted on the hot path"
            )

    def test_insecure_config_has_no_controller_stages(self):
        config = SystemConfig.insecure_system(oram=OramConfig(levels=9))
        stages, result = host_profile(config, "mcf", num_requests=2000)
        assert result.llc_misses > 0
        assert {"trace build", "frontend", "request", "dram_read"} <= set(
            stages
        )
        assert "oram_access" not in stages

    def test_result_equals_untraced_run(self):
        config = SystemConfig.dynamic(
            3, oram=OramConfig(levels=9)
        ).with_timing_protection(800)
        start = perf_counter()
        stages, traced = host_profile(config, "mcf", num_requests=2000, seed=5)
        elapsed = perf_counter() - start
        # The stages split the profiled run's own wall window.
        assert 0.0 < sum(stages.values()) <= elapsed
        assert traced == simulate(config, "mcf", num_requests=2000, seed=5)
