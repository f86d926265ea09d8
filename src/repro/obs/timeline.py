"""Chrome trace-event export: inspect a whole run in ui.perfetto.dev.

:class:`TimelineBuilder` subscribes to an :class:`~repro.obs.events.EventBus`
and renders the event stream as Chrome trace-event JSON (the format both
``chrome://tracing`` and Perfetto load natively):

* one thread track per CPU core — a slice per data request from issue to
  ``data_ready``, named by its serving source
  (``RequestCompleted.served_from``);
* one track for the ORAM bus — duplication placements;
* one track for the scheduler — slot-alignment waits (each ``stall``
  span, redrawn as a slice) and served-request marks of the serving
  layer;
* one track for integrity/recovery — corruption detections, heals,
  posmap repairs, and checkpoint save/restore marks;
* a separate process for the sweep engine's host-side point lifecycle;
* counter tracks for the partitioning level and the stash occupancy (one
  sample after each access, from its ``RequestCompleted``);
* three span tracks (scheduler / ORAM / DRAM) rendering the causal span
  trees of :mod:`repro.obs.spans` as nested B/E duration events, with
  flow arrows linking each request's hop from its scheduler root through
  the controller phases down to the DRAM streaming stage.  Path reads
  (``path_read``/``eviction_read``, purpose in ``args.detail``), RW
  evictions and dummy requests are drawn here and nowhere else.

Dispatch is a ``{event class: handler}`` table covering *every* class in
:data:`~repro.obs.events.EVENT_TYPES` — the constructor refuses to build
otherwise, so adding an event type without a timeline rendering is an
immediate error instead of a silently empty track.  ``RunFinished``
maps to a no-op: the run's totals have no place on a timeline.

Simulated cycles are written as microseconds (``ts``/``dur``), which keeps
the UI units readable; 1 us on screen == 1 CPU cycle.  Timestamps within a
track are clamped to be monotone, which Perfetto requires for correct slice
nesting.  Sweep events carry no simulated clock, so their track uses a
per-event sequence number as its timeline.
"""

from __future__ import annotations

import json
from typing import IO

from repro.obs.events import (
    EVENT_TYPES,
    BlockRecovered,
    CheckpointRestored,
    CheckpointSaved,
    CorruptionDetected,
    DuplicationPlaced,
    EventBus,
    PartitionAdjusted,
    PosmapRepaired,
    RecoveryFailed,
    RequestCompleted,
    RunFinished,
    ServeRequestServed,
    ShardRecovered,
    SloStateChanged,
    SpanFinished,
    SpanStarted,
    SweepPointFailed,
    SweepPointFinished,
    SweepPointRetried,
    SweepPointStarted,
)

PID_CORES = 0
PID_ORAM = 1
PID_SWEEP = 2
TID_BUS = 0
TID_SCHEDULER = 1
TID_RECOVERY = 2
TID_SPANS_SCHED = 3
TID_SPANS_ORAM = 4
TID_DRAM = 5

# Span-name -> track routing for the nested B/E duration rendering.
# Roots and launch waits live on the scheduler span track, DRAM streaming
# phases on the DRAM track, every controller phase in between on the ORAM
# span track — so one request's flow arrows hop scheduler -> ORAM -> DRAM.
_SCHED_SPANS = frozenset({"request", "dummy", "queue", "stall"})
_DRAM_SPANS = frozenset({"dram_read", "dram_write"})
_ROOT_SPANS = frozenset({"request", "dummy"})


class TimelineBuilder:
    """Accumulates trace events; call :meth:`write` after the run."""

    def __init__(self, bus: EventBus) -> None:
        self.events: list[dict[str, object]] = []
        self._last_ts: dict[tuple[int, int], float] = {}
        self._cores_seen: set[int] = set()
        self._stall_start = 0.0
        self._sweep_seq = 0
        self._sweep_seen = False
        self._span_seen = False
        self._flow_seq = 0
        # Open root spans (mirrors the tracer's trace stack): flow id +
        # how far this trace's arrow chain has progressed (0 = scheduler,
        # 1 = ORAM, 2 = DRAM).
        self._flow_stack: list[dict[str, int]] = []
        self._handlers: dict[type, object] = {
            RequestCompleted: self._on_request_completed,
            RunFinished: self._ignore,
            DuplicationPlaced: self._on_duplication,
            PartitionAdjusted: self._on_partition,
            SpanStarted: self._on_span_started,
            SpanFinished: self._on_span_finished,
            SweepPointStarted: self._on_sweep_point,
            SweepPointFinished: self._on_sweep_point,
            SweepPointRetried: self._on_sweep_point,
            SweepPointFailed: self._on_sweep_point,
            CorruptionDetected: self._on_corruption,
            BlockRecovered: self._on_recovered,
            RecoveryFailed: self._on_recovery_failed,
            PosmapRepaired: self._on_posmap_repaired,
            CheckpointSaved: self._on_checkpoint,
            CheckpointRestored: self._on_checkpoint,
            ServeRequestServed: self._on_serve_request,
            ShardRecovered: self._on_shard_recovered,
            SloStateChanged: self._on_slo_state,
        }
        missing = [cls for cls in EVENT_TYPES if cls not in self._handlers]
        if missing:
            raise TypeError(
                "TimelineBuilder lacks handlers for: "
                + ", ".join(cls.__name__ for cls in missing)
            )
        bus.subscribe(self.on_event)

    # ------------------------------------------------------------------
    # Low-level emitters
    # ------------------------------------------------------------------
    def _clamped(self, pid: int, tid: int, ts: float) -> float:
        key = (pid, tid)
        last = self._last_ts.get(key, 0.0)
        if ts < last:
            ts = last
        self._last_ts[key] = ts
        return ts

    def _slice(
        self,
        pid: int,
        tid: int,
        name: str,
        start: float,
        finish: float,
        args: dict[str, object] | None = None,
        cat: str = "oram",
    ) -> None:
        start = self._clamped(pid, tid, start)
        event: dict[str, object] = {
            "name": name,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": start,
            "dur": max(0.0, finish - start),
            "cat": cat,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def _counter(self, name: str, ts: float, values: dict[str, float]) -> None:
        self.events.append(
            {
                "name": name,
                "ph": "C",
                "pid": PID_ORAM,
                "tid": 0,
                "ts": max(0.0, ts),
                "args": values,
            }
        )

    def _instant(
        self,
        pid: int,
        tid: int,
        name: str,
        ts: float,
        args: dict[str, object] | None = None,
        cat: str = "oram",
    ) -> None:
        event: dict[str, object] = {
            "name": name,
            "ph": "i",
            "s": "t",
            "pid": pid,
            "tid": tid,
            "ts": max(0.0, ts),
            "cat": cat,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    # ------------------------------------------------------------------
    # Bus subscription
    # ------------------------------------------------------------------
    def on_event(self, event: object) -> None:
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(event)

    @staticmethod
    def _ignore(event: object) -> None:
        pass

    def _on_request_completed(self, event: RequestCompleted) -> None:
        self._counter(
            "stash occupancy",
            event.finish,
            {"real": float(event.stash_real),
             "shadow": float(event.stash_shadow)},
        )
        if event.op == "dummy":
            return
        core = event.core if event.core >= 0 else 0
        self._cores_seen.add(core)
        source = event.served_from or "unknown"
        self._slice(
            PID_CORES,
            core,
            f"{event.op} {event.addr} [{source}]",
            event.issue,
            event.data_ready,
            {"addr": event.addr, "source": source},
            cat="request",
        )

    def _on_duplication(self, event: DuplicationPlaced) -> None:
        self._instant(
            PID_ORAM,
            TID_BUS,
            f"dup {event.kind}",
            event.ts,
            {"addr": event.addr, "level": event.level,
             "from_stash": event.from_stash},
            cat="duplication",
        )

    # ------------------------------------------------------------------
    # Span rendering: nested B/E duration events + flow arrows
    # ------------------------------------------------------------------
    @staticmethod
    def _span_track(name: str) -> tuple[int, int]:
        if name in _SCHED_SPANS:
            return PID_ORAM, TID_SPANS_SCHED
        if name in _DRAM_SPANS:
            return PID_ORAM, TID_DRAM
        return PID_ORAM, TID_SPANS_ORAM

    def _flow(self, phase: str, flow_id: int, pid: int, tid: int,
              ts: float) -> None:
        event: dict[str, object] = {
            "name": "request flow",
            "ph": phase,
            "id": flow_id,
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "cat": "flow",
        }
        if phase == "f":
            event["bp"] = "e"
        self.events.append(event)

    def _on_span_started(self, event: SpanStarted) -> None:
        self._span_seen = True
        if event.name == "stall":
            self._stall_start = event.ts
        pid, tid = self._span_track(event.name)
        ts = self._clamped(pid, tid, event.ts)
        begin: dict[str, object] = {
            "name": event.name,
            "ph": "B",
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "cat": "span",
        }
        args: dict[str, object] = {}
        if event.addr != -1:
            args["addr"] = event.addr
        if event.detail:
            args["detail"] = event.detail
        if args:
            begin["args"] = args
        self.events.append(begin)
        if event.name in _ROOT_SPANS:
            flow_id = self._flow_seq
            self._flow_seq += 1
            self._flow_stack.append({"id": flow_id, "stage": 0})
            self._flow("s", flow_id, pid, tid, ts)
        elif self._flow_stack:
            flow = self._flow_stack[-1]
            if tid == TID_SPANS_ORAM and flow["stage"] == 0:
                flow["stage"] = 1
                self._flow("t", flow["id"], pid, tid, ts)
            elif tid == TID_DRAM and flow["stage"] == 1:
                flow["stage"] = 2
                self._flow("f", flow["id"], pid, tid, ts)

    def _on_span_finished(self, event: SpanFinished) -> None:
        pid, tid = self._span_track(event.name)
        ts = self._clamped(pid, tid, event.ts)
        self.events.append(
            {
                "name": event.name,
                "ph": "E",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "cat": "span",
            }
        )
        if event.name in _ROOT_SPANS and self._flow_stack:
            self._flow_stack.pop()
        elif event.name == "stall":
            self._slice(
                PID_ORAM,
                TID_SCHEDULER,
                "slot wait",
                self._stall_start,
                event.ts,
                cat="scheduler",
            )

    def _on_partition(self, event: PartitionAdjusted) -> None:
        self._counter(
            "partition level", event.ts, {"P": float(event.new_level)}
        )

    def _on_sweep_point(self, event: object) -> None:
        # Sweep events are host-side and carry no simulated clock; the
        # track advances one tick per event so ordering stays visible.
        self._sweep_seen = True
        names = {
            SweepPointStarted: "point started",
            SweepPointFinished: "point finished",
            SweepPointRetried: "point retried",
            SweepPointFailed: "point FAILED",
        }
        self._instant(
            PID_SWEEP,
            0,
            f"{names[type(event)]} {event.workload}/{event.scheme}",
            float(self._sweep_seq),
            {"workload": event.workload, "scheme": event.scheme,
             "index": event.index},
            cat="sweep",
        )
        self._sweep_seq += 1

    def _on_corruption(self, event: CorruptionDetected) -> None:
        self._instant(
            PID_ORAM,
            TID_RECOVERY,
            "corruption detected",
            event.ts,
            {"bucket": event.bucket, "level": event.level,
             "slot": event.slot, "addr": event.addr},
            cat="recovery",
        )

    def _on_recovered(self, event: BlockRecovered) -> None:
        self._instant(
            PID_ORAM,
            TID_RECOVERY,
            f"recovered [{event.source}]",
            event.ts,
            {"bucket": event.bucket, "level": event.level,
             "slot": event.slot, "addr": event.addr,
             "scrub": event.scrub},
            cat="recovery",
        )

    def _on_recovery_failed(self, event: RecoveryFailed) -> None:
        self._instant(
            PID_ORAM,
            TID_RECOVERY,
            f"recovery FAILED ({event.action})",
            event.ts,
            {"bucket": event.bucket, "level": event.level,
             "slot": event.slot, "addr": event.addr},
            cat="recovery",
        )

    def _on_posmap_repaired(self, event: PosmapRepaired) -> None:
        self._instant(
            PID_ORAM,
            TID_RECOVERY,
            "posmap repaired",
            event.ts,
            {"addr": event.addr, "stale_leaf": event.stale_leaf,
             "leaf": event.leaf},
            cat="recovery",
        )

    def _on_checkpoint(self, event: CheckpointSaved | CheckpointRestored) -> None:
        name = (
            "checkpoint saved"
            if type(event) is CheckpointSaved
            else "checkpoint restored"
        )
        self._instant(
            PID_ORAM,
            TID_RECOVERY,
            name,
            event.ts,
            {"access_index": event.access_index, "path": event.path},
            cat="recovery",
        )

    def _on_serve_request(self, event: ServeRequestServed) -> None:
        self._instant(
            PID_ORAM,
            TID_SCHEDULER,
            f"served {event.op} {event.addr} [{event.served_from}]",
            event.ts,
            {"addr": event.addr, "wall_ms": event.wall_ms,
             "latency_cycles": event.latency_cycles},
            cat="serve",
        )

    def _on_shard_recovered(self, event: ShardRecovered) -> None:
        self._instant(
            PID_ORAM,
            TID_RECOVERY,
            f"shard {event.shard} recovered",
            event.ts,
            {"shard": event.shard, "respawns": event.respawns,
             "replayed": event.replayed},
            cat="recovery",
        )

    def _on_slo_state(self, event: SloStateChanged) -> None:
        self._instant(
            PID_ORAM,
            TID_RECOVERY,
            f"SLO {event.previous} -> {event.state}",
            event.ts,
            {"window": event.window, "violations": event.violations},
            cat="slo",
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _metadata(self) -> list[dict[str, object]]:
        meta: list[dict[str, object]] = [
            {"ph": "M", "name": "process_name", "pid": PID_CORES,
             "args": {"name": "CPU cores"}},
            {"ph": "M", "name": "process_name", "pid": PID_ORAM,
             "args": {"name": "ORAM controller"}},
            {"ph": "M", "name": "thread_name", "pid": PID_ORAM, "tid": TID_BUS,
             "args": {"name": "oram bus"}},
            {"ph": "M", "name": "thread_name", "pid": PID_ORAM,
             "tid": TID_SCHEDULER, "args": {"name": "scheduler"}},
            {"ph": "M", "name": "thread_name", "pid": PID_ORAM,
             "tid": TID_RECOVERY, "args": {"name": "integrity/recovery"}},
        ]
        if self._span_seen:
            meta.extend(
                [
                    {"ph": "M", "name": "thread_name", "pid": PID_ORAM,
                     "tid": TID_SPANS_SCHED,
                     "args": {"name": "spans: scheduler"}},
                    {"ph": "M", "name": "thread_name", "pid": PID_ORAM,
                     "tid": TID_SPANS_ORAM,
                     "args": {"name": "spans: oram"}},
                    {"ph": "M", "name": "thread_name", "pid": PID_ORAM,
                     "tid": TID_DRAM, "args": {"name": "spans: dram"}},
                ]
            )
        if self._sweep_seen:
            meta.append(
                {"ph": "M", "name": "process_name", "pid": PID_SWEEP,
                 "args": {"name": "sweep engine"}}
            )
        for core in sorted(self._cores_seen):
            meta.append(
                {"ph": "M", "name": "thread_name", "pid": PID_CORES,
                 "tid": core, "args": {"name": f"core {core}"}}
            )
        return meta

    def to_chrome_trace(self) -> dict[str, object]:
        """The full trace as a Chrome/Perfetto-loadable dict."""
        return {
            "traceEvents": self._metadata() + self.events,
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "simulated CPU cycles (as us)"},
        }

    def write(self, stream: IO[str]) -> None:
        """Serialise the trace as JSON to ``stream``."""
        json.dump(self.to_chrome_trace(), stream)
        stream.write("\n")
