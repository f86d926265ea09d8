"""Command-line interface for running Shadow Block ORAM experiments.

Usage (after ``pip install -e .``)::

    python -m repro run --scheme dynamic-3 --workload mcf --requests 20000
    python -m repro run --trace out.json --events out.jsonl --metrics out.json
    python -m repro run --spans spans.jsonl --trace-sample 1/8 --trace out.json
    python -m repro trace analyze spans.jsonl --top 5
    python -m repro profile --workload mcf --requests 20000 --json prof.json
    python -m repro compare --workload h264ref --timing-protection
    python -m repro sweep --workloads mcf,libquantum --schemes insecure,tiny,dynamic-3 --jobs 4
    python -m repro sweep --jobs 4 --metrics merged.json --live --progress-jsonl progress.jsonl
    python -m repro bench --workload sim-dup --seconds 5 --compare
    python -m repro serve --scheme dynamic-3 --port 7700 --checkpoint-dir ckpt
    python -m repro load --port 7700 --clients 8 --requests 500 --rate 400
    python -m repro workloads
    python -m repro overhead

The CLI is a thin layer over :func:`repro.system.simulator.simulate`; it
exists so downstream users can explore configurations without writing
Python.  The ``--trace``/``--events``/``--metrics``/``--adversary-trace``
flags attach :mod:`repro.obs` subscribers to the run and export a Perfetto
timeline, a JSONL event log, a metrics JSON, and the adversary-visible
path sequence respectively.

The module top imports only what the parser and the shared helpers need;
each command imports the rest in its own body, so ``repro serve`` never
loads the sweep engine and ``repro run`` never loads ``asyncio``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from repro.analysis.report import format_table
from repro.exit_codes import (
    EXIT_BENCH_INCORRECT,
    EXIT_BENCH_REGRESSION,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_SERVE_FAILED,
    EXIT_SWEEP_FAILED,
    EXIT_TRACE_INVALID,
)
from repro.obs.events import EventBus
from repro.obs.log import (
    AdversaryTraceWriter,
    JsonlLogger,
    git_describe,
    run_metadata,
)
from repro.oram.config import OramConfig
from repro.system.checkpoint import Checkpointer
from repro.system.config import SystemConfig, named_config
from repro.system.simulator import simulate
from repro.workloads.spec import WORKLOADS, workload_names


def build_config(args: argparse.Namespace) -> SystemConfig:
    """Translate CLI flags into a :class:`SystemConfig`."""
    oram = OramConfig(
        levels=args.levels,
        utilization=args.utilization,
        treetop_levels=args.treetop,
        xor_compression=args.xor,
        integrity=args.integrity,
        recovery=args.recovery_policy,
        scrub_interval=args.scrub_interval,
    )
    try:
        config = named_config(args.scheme, oram=oram)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.timing_protection:
        config = config.with_timing_protection(args.rate)
    return config.with_(seed=args.seed)


def _result_rows(result) -> list[list[object]]:
    return [
        ["workload", result.workload],
        ["scheme", result.scheme],
        ["LLC misses", result.llc_misses],
        ["total cycles", f"{result.total_cycles:,.0f}"],
        ["data access cycles", f"{result.data_access_cycles:,.0f}"],
        ["DRI cycles", f"{result.dri_cycles:,.0f}"],
        ["real / dummy ORAM requests",
         f"{result.real_requests} / {result.dummy_requests}"],
        ["on-chip hit rate", f"{result.onchip_hit_rate:.1%}"],
        ["advanced (shadow on path)", result.shadow_path_serves],
        ["mean data latency", f"{result.mean_data_latency:,.0f} cycles"],
        ["energy", f"{result.energy_nj / 1e3:,.1f} uJ"],
        ["peak stash (real blocks)", result.stash_peak],
    ]


def cmd_run(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsCollector
    from repro.obs.spans import SpanTracer, parse_sample_spec
    from repro.obs.timeline import TimelineBuilder

    config = build_config(args)
    print(f"config: {config.describe()}")
    if args.restore and not args.checkpoint_dir:
        raise SystemExit("--restore needs --checkpoint-dir")
    checkpointer = (
        Checkpointer(args.checkpoint_dir, every=args.checkpoint_every)
        if args.checkpoint_dir
        else None
    )
    bus = EventBus()
    meta = run_metadata(config, workload=args.workload, requests=args.requests)
    collector = MetricsCollector(bus) if args.metrics else None
    timeline = TimelineBuilder(bus) if args.trace else None
    tracer = (
        SpanTracer(bus, sample_every=parse_sample_spec(args.trace_sample))
        if args.spans
        else None
    )
    observer = None
    written = []
    with contextlib.ExitStack() as files:
        if args.events:
            logger = JsonlLogger(files.enter_context(open(args.events, "w")))
            logger.write_record(meta)
            logger.attach(bus)
            written.append(("event log (JSONL)", args.events))
        if args.adversary_trace:
            observer = AdversaryTraceWriter(
                files.enter_context(open(args.adversary_trace, "w"))
            )
            observer.logger.write_record(meta)
            written.append(("adversary trace (JSONL)", args.adversary_trace))
        result = simulate(config, args.workload, num_requests=args.requests,
                          seed=args.seed, bus=bus, observer=observer,
                          checkpointer=checkpointer, restore=args.restore)
    print(format_table(["metric", "value"], _result_rows(result),
                       title="Simulation result"))
    if checkpointer is not None:
        print(f"checkpoints in {args.checkpoint_dir}: "
              f"{checkpointer.saves} saved, {checkpointer.pruned} pruned"
              + (f", {checkpointer.skipped} skipped on restore"
                 if args.restore else ""))
    if tracer is not None and collector is not None:
        tracer.feed_metrics(collector.registry)
    if collector is not None:
        with open(args.metrics, "w") as stream:
            collector.registry.write_json(stream, **meta)
        written.append(("metrics (JSON)", args.metrics))
    if tracer is not None:
        with open(args.spans, "w") as stream:
            tracer.write_jsonl(stream)
        written.append(
            (f"span traces (JSONL, {len(tracer.traces)} kept)", args.spans)
        )
    if timeline is not None:
        with open(args.trace, "w") as stream:
            timeline.write(stream)
        written.append(("timeline (Perfetto / chrome://tracing)", args.trace))
    for label, path in written:
        print(f"wrote {label}: {path}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis import spans_report

    config = build_config(args)
    print(f"config: {config.describe()}")
    totals, result = spans_report.host_profile(
        config, args.workload, num_requests=args.requests, seed=args.seed
    )
    total = sum(totals.values()) or 1e-12
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])
    rows = [
        [stage, f"{seconds:.3f}", f"{seconds / total:.1%}"]
        for stage, seconds in ranked
    ]
    rows.append(["total", f"{total:.3f}", "100.0%"])
    print(format_table(
        ["stage", "seconds", "share"], rows,
        title=f"Simulator wall-clock profile ({args.workload})",
    ))
    print(f"simulated {result.llc_misses} LLC misses "
          f"({result.total_cycles:,.0f} cycles) in {total:.3f}s host time")
    if args.json:
        payload = {
            "scheme": config.name,
            "workload": args.workload,
            "requests": args.requests,
            "seed": args.seed,
            "llc_misses": result.llc_misses,
            "total_cycles": result.total_cycles,
            "host_seconds": total,
            "stages": {
                stage: {"seconds": seconds, "share": seconds / total}
                for stage, seconds in ranked
            },
        }
        with open(args.json, "w") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        print(f"wrote profile (JSON): {args.json}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.engine import SweepRunner

    args.schemes = f"insecure,tiny,rd-dup,hd-dup,dynamic-{args.width}"
    configs = _build_sweep_configs(args)
    sweep = SweepRunner(jobs=1).run_grid(
        configs, [args.workload], args.requests, seed=args.seed
    )
    tiny_total = sweep.get(args.workload, "Tiny").total_cycles
    rows = []
    for config in configs:
        result = sweep.get(args.workload, config.name)
        rows.append([
            result.scheme,
            result.total_cycles / 1e6,
            tiny_total / result.total_cycles,
            result.onchip_hit_rate,
            result.shadow_path_serves,
        ])
    print(format_table(
        ["scheme", "Mcycles", "speedup vs Tiny", "on-chip hits", "advanced"],
        rows,
        title=f"Scheme comparison on {args.workload}",
    ))
    return 0


def _parse_workloads(spec: str) -> list[str]:
    if spec.strip().lower() == "all":
        return workload_names()
    workloads = [w.strip() for w in spec.split(",") if w.strip()]
    unknown = [w for w in workloads if w not in workload_names()]
    if unknown:
        raise SystemExit(
            f"unknown workloads: {', '.join(unknown)}; "
            f"known: {', '.join(workload_names())}"
        )
    return workloads


def _build_sweep_configs(args: argparse.Namespace) -> list[SystemConfig]:
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise SystemExit("--schemes must name at least one scheme")
    configs = []
    for scheme in schemes:
        sub = argparse.Namespace(**vars(args))
        sub.scheme = scheme
        if scheme == "insecure":
            sub.timing_protection = False
        configs.append(build_config(sub))
    return configs


def _sweep_runner(args: argparse.Namespace, **kwargs):
    """The sweep engine under the flags ``sweep`` and ``faults`` share."""
    from repro.analysis.cache import ResultCache
    from repro.analysis.engine import SweepRunner

    return SweepRunner(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        timeout_s=args.timeout,
        retries=args.retries,
        backoff_s=args.backoff,
        on_failure="report",
        **kwargs,
    )


def _write_registry(registry, args: argparse.Namespace, label: str,
                    *meta_args, **meta_fields) -> None:
    """Write ``registry`` to ``--metrics`` (JSON, headed by run metadata
    built from ``meta_args``/``meta_fields``) and ``--metrics-prom``."""
    if args.metrics:
        with open(args.metrics, "w") as stream:
            registry.write_json(stream, **run_metadata(*meta_args,
                                                       **meta_fields))
        print(f"wrote {label} (JSON): {args.metrics}")
    if args.metrics_prom:
        from repro.obs.export import render_prometheus

        with open(args.metrics_prom, "w") as stream:
            stream.write(render_prometheus(registry))
        print(f"wrote {label} (Prometheus text): {args.metrics_prom}")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.engine import SweepInterrupted
    from repro.obs.events import SweepPointFailed, SweepPointFinished
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.progress import ProgressJsonlWriter, ProgressReporter

    workloads = _parse_workloads(args.workloads)
    configs = _build_sweep_configs(args)
    bus = EventBus()

    reporter = ProgressReporter(sys.stdout) if args.live else None
    live = reporter is not None and reporter.attach(bus)
    progress_stream = (
        open(args.progress_jsonl, "w") if args.progress_jsonl else None
    )
    if progress_stream is not None:
        ProgressJsonlWriter(progress_stream).attach(bus)

    def progress(event: SweepPointFinished) -> None:
        status = "cached" if event.cached else f"{event.elapsed_s:.2f}s"
        print(f"[{event.index + 1}/{event.total}] "
              f"{event.workload}/{event.scheme}: {status}")

    def failure(event: SweepPointFailed) -> None:
        print(f"[{event.index + 1}/{event.total}] "
              f"{event.workload}/{event.scheme}: {event.status} "
              f"after {event.attempts} attempt(s): {event.error}")

    # The live status line owns stdout while the sweep runs; the per-point
    # print subscribers would tear it, so they stay off under --live.
    if not live:
        bus.subscribe(progress, SweepPointFinished)
        bus.subscribe(failure, SweepPointFailed)

    registry = (
        MetricsRegistry()
        if args.metrics or args.metrics_prom else None
    )
    runner = _sweep_runner(args, bus=bus, registry=registry)
    cache = runner.cache

    def write_metrics() -> None:
        if registry is not None:
            _write_registry(
                registry, args, "merged sweep metrics",
                workloads=",".join(workloads),
                schemes=",".join(config.name for config in configs),
                requests=args.requests,
                seed=args.seed,
                jobs=args.jobs,
            )

    try:
        sweep = runner.run_grid(configs, workloads, args.requests,
                                seed=args.seed)
    except SweepInterrupted as interrupt:
        if reporter is not None:
            reporter.close()
        report = interrupt.report
        print(f"\ninterrupted -- {report.summary()}")
        if cache is not None:
            print("completed points are cached; run the same command "
                  "again to finish without re-simulating them")
        write_metrics()
        return EXIT_INTERRUPTED
    finally:
        if progress_stream is not None:
            progress_stream.close()
    if reporter is not None:
        reporter.close()
    report = runner.last_report

    baseline = configs[0].name
    rows = []
    for workload in workloads:
        for config in configs:
            if not (sweep.has(workload, config.name)
                    and sweep.has(workload, baseline)):
                continue
            result = sweep.get(workload, config.name)
            base = sweep.get(workload, baseline)
            rows.append([
                workload,
                result.scheme,
                result.total_cycles / 1e6,
                base.total_cycles / result.total_cycles,
                result.onchip_hit_rate,
            ])
    print(format_table(
        ["workload", "scheme", "Mcycles", f"speedup vs {baseline}",
         "on-chip hits"],
        rows,
        title=f"Sweep ({len(workloads)} workloads x {len(configs)} schemes, "
              f"jobs={args.jobs})",
    ))
    if cache is not None:
        print(f"cache {args.cache_dir}: {cache.hits} hits, "
              f"{cache.misses} misses, {cache.stores} stored, "
              f"{len(cache)} entries on disk")
    if progress_stream is not None:
        print(f"wrote progress stream (JSONL): {args.progress_jsonl}")
    write_metrics()
    if report is not None:
        print(f"sweep report: {report.summary()}")
        if not report.ok:
            for point in report.failures():
                print(f"  FAILED {point.workload}/{point.scheme}: "
                      f"{point.status} after {point.attempts} attempt(s)"
                      + (f" ({point.error})" if point.error else ""))
            return EXIT_SWEEP_FAILED
    return 0


def _fault_plan(args: argparse.Namespace):
    """``--inject``/``--fault-seed`` → the printed plan and an in-process
    injector for it, or ``(None, None)`` without specs."""
    if not args.inject:
        return None, None
    from repro.faults.injector import FaultPlan
    from repro.faults.spec import FaultSpecError

    try:
        plan = FaultPlan.parse(args.inject, seed=args.fault_seed)
    except FaultSpecError as exc:
        raise SystemExit(f"bad --inject spec: {exc}")
    print(f"fault plan (seed {plan.seed}):")
    for spec in plan.specs:
        print(f"  {spec.to_dict()}")
    return plan, plan.injector(in_worker=False)


def _print_fired(injector) -> None:
    if injector is not None and injector.fired():
        print("fired faults (deterministic for this plan+seed):")
        for entry in injector.fired():
            print(f"  {entry}")


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.invariants import InvariantViolation, RuntimeInvariants
    from repro.faults.spec import FAULT_KINDS, BitFlip, PosmapCorrupt
    from repro.oram.integrity import IntegrityError

    if args.list:
        rows = []
        for kind, cls in sorted(FAULT_KINDS.items()):
            spec = cls()
            fields = ", ".join(
                f"{name}={value!r}"
                for name, value in sorted(spec.to_dict().items())
                if name != "kind"
            )
            rows.append([kind, fields or "-"])
        print(format_table(
            ["kind", "fields (defaults)"], rows,
            title="Fault specs (--inject 'kind@point:field=value,...')",
        ))
        return 0
    if not args.inject:
        raise SystemExit("nothing to do: pass --list or --inject SPEC")
    plan, injector = _fault_plan(args)

    # Corruption specs only make sense with the integrity layer watching:
    # auto-arm it so `faults --inject bit-flip:...` detects and (under the
    # faults default --recovery-policy recover) self-heals end to end.
    corruption_plan = any(
        isinstance(spec, (BitFlip, PosmapCorrupt)) for spec in plan.specs
    )
    if corruption_plan and not args.integrity:
        args.integrity = True
        print(f"corruption specs in plan: enabling --integrity "
              f"(--recovery-policy {args.recovery_policy})")

    workloads = _parse_workloads(args.workloads)
    configs = _build_sweep_configs(args)
    runner = _sweep_runner(args, faults=plan)
    runner.run_grid(configs, workloads, args.requests, seed=args.seed)
    report = runner.last_report
    print(f"sweep under faults: {report.summary()}")
    rows = [
        [p.workload, p.scheme, p.status, p.attempts,
         p.error or "-"]
        for p in report.points
    ]
    print(format_table(
        ["workload", "scheme", "status", "attempts", "error"], rows,
        title="Per-point fault report",
    ))

    # Invariant sweep: re-run the first point in-process with the
    # backend-level faults applied and the runtime checker attached.
    invariants_report = None
    checked_controller = None

    def checked_filter(backend):
        backend_filter = injector.backend_filter()
        if backend_filter is not None:
            backend = backend_filter(backend)
        controller = getattr(backend, "controller", None)
        if controller is not None:
            nonlocal invariants_report, checked_controller
            checked_controller = controller
            checker = RuntimeInvariants(
                controller, policy=args.invariant_policy
            )
            checker.attach()
            invariants_report = checker.report
        return backend

    try:
        simulate(configs[0], workloads[0], num_requests=args.requests,
                 seed=args.seed, backend_filter=checked_filter)
    except InvariantViolation as violation:
        print(f"runtime invariants aborted the run: {violation}")
    except IntegrityError as violation:
        print(f"integrity layer aborted the run "
              f"(--recovery-policy {args.recovery_policy}): {violation}")
    _print_fired(injector)
    if invariants_report is not None:
        print(f"runtime invariants ({args.invariant_policy}): "
              f"{invariants_report.checks} checks, "
              f"{len(invariants_report.violations)} violation(s)")
        for violation in invariants_report.violations[:10]:
            print(f"  {violation}")
    recovery = getattr(checked_controller, "recovery", None)
    if recovery is not None:
        stats = recovery.stats
        print(f"recovery ({recovery.policy}): "
              f"{stats.corruptions} corruption(s) detected, "
              f"{stats.recoveries} recovered, "
              f"{stats.unrecoverable} unrecoverable, "
              f"{stats.posmap_repairs} posmap repair(s)")
        if stats.recovered_from:
            breakdown = ", ".join(
                f"{source}={count}"
                for source, count in sorted(stats.recovered_from.items())
            )
            print(f"  recovered from: {breakdown}")
    return 0 if report.ok else EXIT_SWEEP_FAILED


def cmd_trace_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import spans_report
    from repro.obs.flightrec import is_postmortem, load_postmortem_traces
    from repro.obs.spans import load_traces

    # Flight-recorder post-mortems carry raw bus events, not span trees;
    # rebuild whatever complete request spans the crash window holds.
    # Their wall stamps date from the replay, so host seconds are left out.
    postmortem = is_postmortem(args.file)
    if postmortem:
        traces = load_postmortem_traces(args.file)
        # On stderr under --json, so stdout stays one JSON document.
        print(f"post-mortem dump: rebuilt {len(traces)} complete span "
              f"trace(s) from the flight-recorder ring",
              file=sys.stderr if args.json else sys.stdout)
    else:
        traces = load_traces(args.file)
    if args.json:
        payload = spans_report.analyze(
            traces, top=args.top, host=not postmortem
        )
        print(json.dumps(payload, indent=2))
        violations = payload["invariant"]["violations"]
        return 0 if violations == 0 else EXIT_TRACE_INVALID
    text, ok = spans_report.render_report(
        traces, top=args.top, host=not postmortem
    )
    print(text)
    return 0 if ok else EXIT_TRACE_INVALID


def cmd_bench(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    from repro.analysis import benchtrack

    try:
        bench = json.loads(benchtrack.BENCHMARK_FILE.read_text())
    except FileNotFoundError:
        raise SystemExit(
            f"no {benchtrack.BENCHMARK_FILE} in the working directory"
        ) from None
    declared = [w["name"] for w in bench["workloads"]]
    if args.workload not in declared:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"{benchtrack.BENCHMARK_FILE} declares "
                         f"{', '.join(declared)}")
    seconds = (args.seconds if args.seconds is not None
               else float(bench["run_seconds"]))
    history = benchtrack.BenchHistory(
        args.history_dir or benchtrack.DEFAULT_HISTORY_DIR, host=args.host
    )
    try:
        prior = history.load()
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    git = git_describe(ignore=history.path)
    argv = benchtrack.bench_argv(bench, args.workload, args.seed, seconds)
    print(f"running: {' '.join(argv)}", flush=True)
    result = benchtrack.run_benchmark(argv)
    if result is None:
        print("BENCH FAILED: the command failed or printed no result line")
        return EXIT_BENCH_INCORRECT
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "git": git,
        "host": history.host,
        "recorded_at": datetime.now(timezone.utc).isoformat(),
        **result,
    }
    total = history.append(entry)
    rows = [[name, f"{m['value']:.6g}", m.get("unit", "")]
            for name, m in sorted(entry["metrics"].items())]
    print(format_table(
        ["metric", "value", "unit"], rows,
        title=f"{args.workload}, seed {args.seed}, {seconds:g} s, at {git}",
    ))
    print(f"correct={entry['correct']}: {entry['attempted']} attempted, "
          f"{entry['failed']} failed; recorded in {history.path} "
          f"({total} entries)")
    if entry["correct"] is not True:
        print("BENCH FAILED: the benchmark's output checks failed")
        return EXIT_BENCH_INCORRECT
    if args.compare is None:
        return 0
    baseline = benchtrack.find_baseline(prior, entry, base=args.compare)
    if baseline is None:
        print(f"no baseline matching --compare {args.compare!r} for this "
              f"workload, seed and run length; this entry will serve as one")
        return 0
    print(f"baseline {baseline['git']} ({baseline['recorded_at']}) "
          f"-> current {git}")
    checks = benchtrack.check_metrics(bench["end_to_end"], baseline, entry)
    for line, _regressed in checks:
        print(f"  {line}")
    if any(regressed for _line, regressed in checks):
        print("PERF REGRESSION detected")
        return EXIT_BENCH_REGRESSION
    print("no regression")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.flightrec import FlightRecorder
    from repro.obs.slo import parse_slo_spec
    from repro.serve.server import OramServer, ServeSettings

    config = build_config(args)
    sharded = args.shards > 1
    if args.restore and not (args.checkpoint_dir or sharded):
        raise SystemExit("--restore needs --checkpoint-dir (or --shards)")
    _plan, injector = _fault_plan(args)
    checkpointer = (
        Checkpointer(args.checkpoint_dir)
        if args.checkpoint_dir and not sharded else None
    )
    slo = None
    if args.slo:
        try:
            slo = parse_slo_spec(args.slo)
        except ValueError as exc:
            raise SystemExit(f"bad --slo spec: {exc}")
    settings = ServeSettings(
        host=args.host,
        port=args.port,
        max_clients=args.max_clients,
        client_space=args.client_space,
        queue_depth=args.queue_depth,
        shed_highwater=args.shed_highwater,
        session_window=args.session_window,
        default_deadline_ms=args.default_deadline_ms,
        retry_after_ms=args.retry_after_ms,
        checkpoint_every=args.checkpoint_every,
        slo=slo,
        slo_window_s=args.slo_window_s,
        slo_fatal=args.slo_fatal,
        metrics_port=args.metrics_port,
    )
    # The observability plane only materializes when asked for: without
    # these flags no bus is created, so the serving hot path constructs
    # zero event objects and stays bit-identical to a bare run.
    bus = None
    flightrec = None
    if args.flight_recorder or slo is not None:
        bus = EventBus()
    if args.flight_recorder:
        flightrec = FlightRecorder(
            bus, capacity=args.flight_capacity,
            directory=args.flight_recorder,
        )
    with contextlib.ExitStack() as files:
        observer = None
        if args.adversary_trace:
            observer = AdversaryTraceWriter(
                files.enter_context(open(args.adversary_trace, "w"))
            )
            observer.logger.write_record(
                run_metadata(config, mode="serve", seed=args.seed)
            )
        supervisor = None
        shard_trace = None
        if sharded:
            from repro.security.adversary import ShardTraceObserver
            from repro.shard.supervisor import ShardSettings, ShardSupervisor

            if args.shard_trace:
                shard_trace = ShardTraceObserver()
            supervisor = ShardSupervisor(
                config,
                seed=args.seed,
                state_dir=args.shard_dir,
                settings=ShardSettings(
                    num_shards=args.shards,
                    mode=args.shard_mode,
                    degraded=args.degraded_mode,
                    checkpoint_every=args.checkpoint_every,
                    access_timeout_s=args.shard_timeout_s,
                    max_respawns=args.max_respawns,
                ),
                injector=injector,
                trace=shard_trace,
                bus=bus,
            )
        server = OramServer(
            config,
            seed=args.seed,
            settings=settings,
            injector=injector,
            checkpointer=checkpointer,
            restore=args.restore,
            observer=observer,
            bridge=supervisor,
            bus=bus,
            flight_recorder=flightrec,
        )

        def announce(srv) -> None:
            host, port = srv.address
            print(f"serving {config.describe()}", flush=True)
            if supervisor is not None:
                print(f"sharded backend: {args.shards} shards "
                      f"({args.shard_mode}, degraded={args.degraded_mode}, "
                      f"{supervisor.num_blocks} fleet blocks)", flush=True)
            print(f"listening on {host}:{port} "
                  f"({settings.max_clients} slots x {srv.client_space} "
                  f"blocks); drain with SIGTERM or a shutdown message",
                  flush=True)

        code = asyncio.run(server.run(on_started=announce))
    if server.crashed is not None:
        print(f"server crashed: {server.crashed}")
    else:
        print(f"drained ({server.drain_reason or 'done'})")
    stats = server.stats_snapshot()
    for key in sorted(stats):
        print(f"  {key}: {stats[key]}")
    if server.slo is not None:
        snap = server.slo.snapshot()
        print(f"slo: {snap['state']} after {snap['rolls']} window(s), "
              f"{snap['breaches']} breach(es)")
        for key, detail in sorted(snap["violations"].items()):
            print(f"  violated {key}: {detail['value']:g} > "
                  f"{detail['threshold']:g}")
    if server.postmortem_path is not None:
        print(f"wrote flight-recorder post-mortem (JSONL): "
              f"{server.postmortem_path} -- replay with "
              f"'repro trace analyze {server.postmortem_path}'")
    if supervisor is not None:
        report = supervisor.fleet_report()
        print("fleet report:")
        for key in sorted(report):
            print(f"  {key}: {report[key]}")
    _print_fired(injector)
    if shard_trace is not None:
        with open(args.shard_trace, "w") as stream:
            for round_no, shard in shard_trace.events:
                stream.write(json.dumps({"round": round_no, "shard": shard}))
                stream.write("\n")
        print(f"wrote inter-shard dispatch trace (JSONL): "
              f"{args.shard_trace} ({len(shard_trace)} slots)")
    if args.metrics or args.metrics_prom:
        _write_registry(server.export_registry(), args, "metrics",
                        config, mode="serve", seed=args.seed)
    return code


def cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.load import LoadSettings, run_load

    _plan, injector = _fault_plan(args)
    settings = LoadSettings(
        host=args.host,
        port=args.port,
        clients=args.clients,
        requests=args.requests,
        rate=args.rate,
        seed=args.seed,
        alpha=args.alpha,
        write_frac=args.write_frac,
        deadline_ms=args.deadline_ms,
        timeout_s=args.timeout_s,
        retries=args.retries,
        backoff_s=args.backoff_s,
        shutdown_after=args.shutdown_after,
    )
    try:
        report = asyncio.run(run_load(settings, injector=injector))
    except ConnectionError as exc:
        print(f"load failed: cannot reach "
              f"{settings.host}:{settings.port}: {exc}")
        return EXIT_SERVE_FAILED
    print(json.dumps(report, indent=2, sort_keys=True))
    _print_fired(injector)
    if args.report:
        with open(args.report, "w") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote load report (JSON): {args.report}")
    return EXIT_OK if report["served"] > 0 else EXIT_SERVE_FAILED


def cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.top import TopSettings, parse_addr, run_top

    try:
        host, port = parse_addr(args.addr)
        settings = TopSettings(
            host=host, port=port,
            interval_s=args.interval, count=args.count,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    try:
        return asyncio.run(run_top(settings))
    except KeyboardInterrupt:
        return EXIT_OK


def cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [
        [name, WORKLOADS[name].memory_intensity, WORKLOADS[name].description]
        for name in workload_names()
    ]
    print(format_table(["name", "intensity", "behaviour"], rows,
                       title="Available workloads"))
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    from repro.core.config import ShadowConfig
    from repro.system.overhead import estimate_overhead

    oram = OramConfig(levels=args.levels, utilization=args.utilization)
    report = estimate_overhead(oram, ShadowConfig())
    rows = [
        ["shadow bits (DRAM)", f"{report.shadow_bits_bytes:,} B"],
        ["Hot Address Cache (on chip)", f"{report.hot_cache_bytes:,} B"],
        ["RD+HD queue entries", report.queue_entries],
        ["queue gate count (paper synthesis)", f"~{report.queue_gate_count:,}"],
        ["extra registers", f"{report.extra_registers_bits} bits"],
        ["total extra on-chip storage", f"{report.total_onchip_bytes:,} B"],
    ]
    print(format_table(["component", "cost"], rows,
                       title=f"Shadow Block overhead (L={args.levels})"))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shadow Block ORAM (MICRO 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def workload_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="h264ref",
                       choices=workload_names())
        p.add_argument("--requests", type=int, default=20_000)

    def config_flags(p: argparse.ArgumentParser) -> None:
        """What :func:`build_config` reads, bar ``--scheme``."""
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--levels", type=int, default=14)
        p.add_argument("--utilization", type=float, default=0.25)
        p.add_argument("--treetop", type=int, default=0)
        p.add_argument("--xor", action="store_true")
        p.add_argument("--timing-protection", action="store_true")
        p.add_argument("--rate", type=float, default=800.0,
                       help="timing protection slot length (cycles)")
        p.add_argument("--integrity", action="store_true",
                       help="authenticate every path access against a "
                            "Merkle hash tree")
        p.add_argument("--recovery-policy",
                       choices=["raise", "recover", "degrade"],
                       default="raise",
                       help="on corruption: abort (raise), self-heal from "
                            "duplicates (recover), or drop the slot and "
                            "keep running (degrade)")
        p.add_argument("--scrub-interval", type=int, default=0, metavar="N",
                       help="full-tree integrity scrub every N accesses "
                            "(0 disables; under --recovery-policy raise "
                            "a scrub hit aborts the run)")

    def fault_flags(p: argparse.ArgumentParser, examples: str) -> None:
        p.add_argument(
            "--inject", action="append", default=[], metavar="SPEC",
            help="fault spec 'kind[@point][:field=value,...]' (repeatable; "
                 f"'repro faults --list' names the kinds), e.g. {examples}",
        )
        p.add_argument(
            "--fault-seed", type=int, default=0,
            help="seed for the fault injector's random choices",
        )

    run_p = sub.add_parser("run", help="run one configuration")
    workload_flags(run_p)
    config_flags(run_p)
    run_p.add_argument("--scheme", default="dynamic-3")
    run_p.add_argument("--trace", metavar="FILE",
                       help="write a Perfetto/Chrome trace-event timeline")
    run_p.add_argument("--events", metavar="FILE",
                       help="stream the observability event log as JSONL")
    run_p.add_argument("--metrics", metavar="FILE",
                       help="write the metrics registry as JSON")
    run_p.add_argument("--adversary-trace", metavar="FILE",
                       help="dump the adversary-visible (kind, leaf, time) "
                            "path sequence as JSONL")
    run_p.add_argument("--spans", metavar="FILE",
                       help="assemble causal per-request span trees and "
                            "write them as JSONL (analyze with "
                            "'repro trace analyze FILE')")
    run_p.add_argument("--trace-sample", default="1", metavar="N|1/N",
                       help="keep one span trace in N (deterministic "
                            "sequence-number sampling; default keeps all)")
    run_p.add_argument("--checkpoint-dir", metavar="DIR",
                       help="snapshot the full runtime state into DIR "
                            "(atomic writes, torn-tail tolerant)")
    run_p.add_argument("--checkpoint-every", type=int, default=1000,
                       metavar="N",
                       help="checkpoint every N served LLC misses")
    run_p.add_argument("--restore", action="store_true",
                       help="resume from the newest valid checkpoint in "
                            "--checkpoint-dir; the finished run is "
                            "bit-identical to an uninterrupted one")
    run_p.set_defaults(fn=cmd_run)

    prof_p = sub.add_parser(
        "profile",
        help="report the simulator's host seconds per span phase, plus "
             "trace build and frontend",
    )
    workload_flags(prof_p)
    config_flags(prof_p)
    prof_p.add_argument("--scheme", default="dynamic-3")
    prof_p.add_argument("--json", metavar="FILE",
                        help="also write the per-stage profile as "
                             "machine-readable JSON")
    prof_p.set_defaults(fn=cmd_profile)

    trace_p = sub.add_parser(
        "trace",
        help="span-trace tooling (see 'repro run --spans')",
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    analyze_p = trace_sub.add_parser(
        "analyze",
        help="phase attribution, latency breakdown, invariant audit and "
             "top-K slowest requests from a --spans JSONL file; exits "
             f"{EXIT_TRACE_INVALID} if any span tree violates the "
             "cycle-exact exclusive-time invariant",
    )
    analyze_p.add_argument("file", help="JSONL file written by run --spans")
    analyze_p.add_argument("--top", type=int, default=5, metavar="K",
                           help="slowest requests to render as span trees")
    analyze_p.add_argument("--json", action="store_true",
                           help="print the analysis as JSON instead of "
                                "tables")
    analyze_p.set_defaults(fn=cmd_trace_analyze)

    cmp_p = sub.add_parser("compare", help="compare all schemes on a workload")
    workload_flags(cmp_p)
    config_flags(cmp_p)
    cmp_p.add_argument("--width", type=int, default=3,
                       help="DRI counter width for the dynamic scheme")
    cmp_p.set_defaults(fn=cmd_compare)

    def sweep_flags(p: argparse.ArgumentParser) -> None:
        config_flags(p)
        p.add_argument(
            "--workloads", default="mcf,libquantum",
            help="comma-separated workload names, or 'all'",
        )
        p.add_argument("--requests", type=int, default=20_000)
        p.add_argument(
            "--schemes", default="insecure,tiny,dynamic-3",
            help="comma-separated scheme names (first is the speedup baseline)",
        )
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes (1 = serial, 0 = one per CPU); "
                 "parallel results are bit-identical to serial",
        )
        p.add_argument(
            "--cache-dir", default=".repro-sweep-cache", metavar="DIR",
            help="on-disk result cache location",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="always simulate; do not read or write the result cache",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-point wall-clock budget (parallel runs only); a point "
                 "past its deadline is retried or reported timed-out",
        )
        p.add_argument(
            "--retries", type=int, default=0, metavar="N",
            help="extra attempts per point after a crash/timeout",
        )
        p.add_argument(
            "--backoff", type=float, default=0.0, metavar="SECONDS",
            help="base of the exponential retry backoff",
        )

    sweep_p = sub.add_parser(
        "sweep",
        help="run a (workload x scheme) grid in parallel with result caching",
    )
    sweep_flags(sweep_p)
    sweep_p.add_argument(
        "--metrics", metavar="FILE",
        help="aggregate per-worker telemetry and write the merged "
             "registry (cross-worker rollups + worker/<n>/ breakdown) "
             "as JSON; rollups are bit-identical to a --jobs 1 run",
    )
    sweep_p.add_argument(
        "--metrics-prom", metavar="FILE",
        help="write the merged telemetry registry as Prometheus text "
             "format (worker/<n>/ breakdowns become labeled series)",
    )
    sweep_p.add_argument(
        "--live", action="store_true",
        help="render a throttled single-line progress display "
             "(done/total, cache hits, retries, pts/s, ETA); degrades "
             "to heavily throttled plain progress lines when stdout "
             "is not a TTY",
    )
    sweep_p.add_argument(
        "--progress-jsonl", metavar="FILE",
        help="stream machine-readable progress (one JSON object per "
             "resolved point) to FILE for CI dashboards",
    )
    sweep_p.set_defaults(fn=cmd_sweep)

    bench_p = sub.add_parser(
        "bench",
        help="run the declared benchmark (BENCHMARK.json) once, record "
             "its result in the per-host history and optionally gate it "
             "against a recorded baseline",
    )
    bench_p.add_argument("--workload", required=True,
                         help="one of BENCHMARK.json's workloads")
    bench_p.add_argument("--seed", type=int, default=1)
    bench_p.add_argument(
        "--seconds", type=float, default=None, metavar="S",
        help="run length (default: BENCHMARK.json's run_seconds)",
    )
    bench_p.add_argument(
        "--history-dir", default=None, metavar="DIR",
        help="where BENCH_<host>.json lives (default: benchmarks/results)",
    )
    bench_p.add_argument(
        "--host", default=None, metavar="NAME",
        help="logical host name for the history file and entry (default: "
             "this machine's hostname)",
    )
    bench_p.add_argument(
        "--compare", nargs="?", const="latest", default=None, metavar="BASE",
        help="check every end-to-end metric against its BENCHMARK.json "
             "bound, relative to the newest prior correct entry of the "
             "same workload, seed and run length ('latest', the default "
             "when BASE is omitted) or the newest whose git revision "
             f"starts with BASE; exits {EXIT_BENCH_REGRESSION} on a "
             "regression",
    )
    bench_p.set_defaults(fn=cmd_bench)

    faults_p = sub.add_parser(
        "faults",
        help="deterministic fault injection: list specs or run a sweep "
             "under an injected fault plan + runtime invariant checks",
    )
    sweep_flags(faults_p)
    faults_p.add_argument(
        "--list", action="store_true",
        help="list available fault spec kinds and exit",
    )
    fault_flags(faults_p, "worker-crash@2:attempt=1 or "
                          "cache-corrupt:mode=truncate")
    faults_p.add_argument(
        "--invariant-policy", choices=["raise", "degrade"], default="degrade",
        help="what the runtime invariant checker does on a violation",
    )
    # Fault runs default to self-healing (the other subcommands keep the
    # fail-stop `raise` default); --recovery-policy raise still aborts.
    faults_p.set_defaults(fn=cmd_faults, recovery_policy="recover")

    serve_p = sub.add_parser(
        "serve",
        help="serve the ORAM to concurrent TCP clients (newline-JSON "
             "protocol) with bounded admission, load shedding, deadlines, "
             "graceful drain, and crash-restartable checkpoints",
    )
    config_flags(serve_p)
    serve_p.add_argument("--scheme", default="dynamic-3")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7700,
                         help="bind port (0 picks an ephemeral port)")
    serve_p.add_argument("--max-clients", type=int, default=16,
                         help="address-space slots; further connections "
                              "are refused")
    serve_p.add_argument("--client-space", type=int, default=None,
                         metavar="BLOCKS",
                         help="ORAM blocks per client slot (default: "
                              "num_blocks / max-clients)")
    serve_p.add_argument("--queue-depth", type=int, default=256,
                         help="hard bound of the admission queue")
    serve_p.add_argument("--shed-highwater", type=int, default=None,
                         metavar="N",
                         help="shed (retry_after) once the queue holds N "
                              "requests (default: 3/4 of --queue-depth)")
    serve_p.add_argument("--session-window", type=int, default=32,
                         help="per-client in-flight cap; a client that "
                              "stops reading responses is throttled, "
                              "not buffered unboundedly")
    serve_p.add_argument("--default-deadline-ms", type=float, default=1000.0,
                         help="deadline for requests that carry none "
                              "(<= 0 disables)")
    serve_p.add_argument("--retry-after-ms", type=float, default=50.0,
                         help="backoff hint attached to shed responses")
    serve_p.add_argument("--checkpoint-dir", metavar="DIR",
                         help="snapshot the served ORAM state into DIR")
    serve_p.add_argument("--checkpoint-every", type=int, default=500,
                         metavar="N",
                         help="checkpoint every N served accesses "
                              "(0 disables periodic snapshots; a final "
                              "one is still taken on drain)")
    serve_p.add_argument("--restore", action="store_true",
                         help="resume from the newest valid checkpoint "
                              "before accepting clients; state is "
                              "bit-identical to the killed server's "
                              "last snapshot")
    serve_p.add_argument("--metrics", metavar="FILE",
                         help="write the final merged registry as JSON "
                              "on exit")
    serve_p.add_argument("--adversary-trace", metavar="FILE",
                         help="dump the adversary-visible path sequence "
                              "as JSONL")
    fault_flags(serve_p, "server-crash:at_access=100,mode=exit or "
                         "shard-crash:shard=1,at_access=40")
    serve_p.add_argument("--shards", type=int, default=1, metavar="N",
                         help="shard the address space over N supervised "
                              "workers behind a consistent-hash ring "
                              "(1 = single-bridge backend, the default)")
    serve_p.add_argument("--shard-mode", choices=["inproc", "process"],
                         default="inproc",
                         help="house shards in the server process "
                              "(deterministic) or in spawned worker "
                              "processes with pipe-timeout liveness")
    serve_p.add_argument("--degraded-mode", choices=["deny", "allow"],
                         default="allow",
                         help="on a shard death: recover synchronously "
                              "inside the failed access (deny) or keep "
                              "serving healthy shards while the dead one "
                              "recovers in the background (allow)")
    serve_p.add_argument("--shard-dir", default=".repro-shards",
                         metavar="DIR",
                         help="durable root for per-shard intent logs "
                              "and checkpoints (recovery + --restore "
                              "read it; must be clean for a fresh fleet)")
    serve_p.add_argument("--shard-timeout-s", type=float, default=5.0,
                         metavar="S",
                         help="per-command liveness budget for "
                              "process-mode shards (a hang past this is "
                              "treated as a death)")
    serve_p.add_argument("--max-respawns", type=int, default=3, metavar="N",
                         help="recovery attempts per shard before the "
                              "fleet declares the death unrecoverable "
                              f"(exit {EXIT_SERVE_FAILED})")
    serve_p.add_argument("--shard-trace", metavar="FILE",
                         help="dump the adversary-visible inter-shard "
                              "dispatch stream (round, shard) as JSONL")
    serve_p.add_argument("--slo", metavar="SPEC",
                         help="rolling SLO thresholds as 'key=value,...', "
                              "e.g. p99_ms=50,shed_rate=0.05; evaluated "
                              "per --slo-window-s window and surfaced in "
                              "the wire 'stats'/'health' replies")
    serve_p.add_argument("--slo-window-s", type=float, default=1.0,
                         metavar="S",
                         help="width of one SLO evaluation window")
    serve_p.add_argument("--slo-fatal", action="store_true",
                         help="drain once the SLO state machine enters "
                              "'breached' and exit "
                              "7 (EXIT_SLO_BREACH) instead of riding "
                              "out the degradation")
    serve_p.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="serve live Prometheus text at "
                              "http://HOST:PORT/metrics (and newline-JSON "
                              "at /metrics.json); 0 picks an ephemeral "
                              "port")
    serve_p.add_argument("--metrics-prom", metavar="FILE",
                         help="write the final merged registry as "
                              "Prometheus text format on exit")
    serve_p.add_argument("--flight-recorder", metavar="DIR",
                         help="keep a bounded in-memory ring of bus "
                              "events and dump it to DIR as a "
                              "timestamped post-mortem JSONL on crash, "
                              "SLO breach, or drain")
    serve_p.add_argument("--flight-capacity", type=int, default=4096,
                         metavar="N",
                         help="flight-recorder ring size (older events "
                              "are evicted, never reallocated)")
    serve_p.set_defaults(fn=cmd_serve)

    top_p = sub.add_parser(
        "top",
        help="live terminal view of a running 'repro serve': polls the "
             "wire 'stats' snapshot and renders queue pressure, latency "
             "percentiles, shard health, and SLO state",
    )
    top_p.add_argument("addr", nargs="?", default="127.0.0.1:7700",
                       metavar="HOST:PORT",
                       help="server address (default 127.0.0.1:7700)")
    top_p.add_argument("--interval", type=float, default=1.0, metavar="S",
                       help="seconds between polls")
    top_p.add_argument("--count", type=int, default=0, metavar="N",
                       help="stop after N polls (0 = until interrupted)")
    top_p.set_defaults(fn=cmd_top)

    load_p = sub.add_parser(
        "load",
        help="open-loop Poisson/Zipf load generator for 'repro serve' "
             "with per-request timeout + capped-backoff retries and a "
             "p50/p95/p99 latency report",
    )
    load_p.add_argument("--host", default="127.0.0.1")
    load_p.add_argument("--port", type=int, default=7700)
    load_p.add_argument("--clients", type=int, default=4,
                        help="concurrent connections")
    load_p.add_argument("--requests", type=int, default=200,
                        help="total scheduled requests")
    load_p.add_argument("--rate", type=float, default=400.0,
                        help="aggregate Poisson arrival rate (req/s); "
                             "open loop: arrivals do not slow down when "
                             "the server does")
    load_p.add_argument("--seed", type=int, default=1,
                        help="schedule seed (arrivals, addresses, ops)")
    load_p.add_argument("--alpha", type=float, default=1.2,
                        help="Zipf skew of the address distribution")
    load_p.add_argument("--write-frac", type=float, default=0.1)
    load_p.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline forwarded to the "
                             "server (default: server's own)")
    load_p.add_argument("--timeout-s", type=float, default=5.0,
                        help="per-attempt client-side timeout")
    load_p.add_argument("--retries", type=int, default=3,
                        help="retries after timeout / retry_after / "
                             "disconnect")
    load_p.add_argument("--backoff-s", type=float, default=0.05,
                        help="initial retry backoff, doubled per retry "
                             "(capped at 1s)")
    load_p.add_argument("--shutdown-after", action="store_true",
                        help="ask the server for a graceful drain once "
                             "the schedule completes")
    load_p.add_argument("--report", metavar="FILE",
                        help="also write the report as JSON to FILE; its "
                             "'latency' block has the same schema as the "
                             "server's wire 'stats' latency section, so "
                             "client- and server-observed latency diff "
                             "directly")
    fault_flags(load_p, "client-disconnect:at_request=5 or "
                        "slow-client:at_request=3,stall_s=0.5")
    load_p.set_defaults(fn=cmd_load)

    wl_p = sub.add_parser("workloads", help="list available workloads")
    wl_p.set_defaults(fn=cmd_workloads)

    ov_p = sub.add_parser("overhead", help="print Section V-C overhead numbers")
    ov_p.add_argument("--levels", type=int, default=14)
    ov_p.add_argument("--utilization", type=float, default=0.25)
    ov_p.set_defaults(fn=cmd_overhead)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
