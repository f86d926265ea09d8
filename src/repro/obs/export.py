"""Metrics exporters: Prometheus text-format, newline-JSON, mini endpoint.

Renders any :class:`~repro.obs.metrics.MetricsRegistry` — including the
merged per-shard breakdowns produced by
:func:`~repro.obs.aggregate.merge_labeled_snapshots` — in two formats:

* :func:`render_prometheus`: the Prometheus text exposition format.
  Registry names are slash-namespaced (``serve/served``); a leading
  ``shard/<k>/`` or ``worker/<n>/`` component is lifted into a label
  (``repro_serve_served{shard="0"}``) so fleet rollups stay queryable,
  and the rest of the name is sanitised to ``[a-z0-9_]``.  Histograms
  render as cumulative ``_bucket{le=...}`` series plus exact ``_sum``
  and ``_count`` — straight from the accumulators, no re-interpolation.
* :func:`render_json_lines`: one compact JSON object per line (a meta
  header, then one line per instrument, sorted by name) for tools that
  would rather not parse Prometheus.

:class:`MetricsEndpoint` is the ``--metrics-port`` mini HTTP server:
``GET /metrics`` serves Prometheus text, ``GET /metrics.json`` the
newline-JSON form.  It re-renders from a provider callback per request,
so scrapes always see live counters.  Output ordering is deterministic
(sorted names, label key after base name) — the golden-file test diffs
it byte-for-byte.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Callable

from repro.obs.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABELED_RE = re.compile(r"^(shard|worker)/([^/]+)/(.+)$")


def split_labels(name: str) -> tuple[str, dict[str, str]]:
    """Lift a ``shard/<k>/`` or ``worker/<n>/`` prefix into a label."""
    match = _LABELED_RE.match(name)
    if match is None:
        return name, {}
    scope, index, rest = match.groups()
    return rest, {scope: index}


def prom_name(name: str, namespace: str = "repro") -> str:
    """A registry name as a legal Prometheus metric name."""
    flat = _NAME_RE.sub("_", name.replace("/", "_"))
    return f"{namespace}_{flat}" if namespace else flat


def _labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _merge_labels(base: dict[str, str], extra: dict[str, str]) -> str:
    merged = dict(base)
    merged.update(extra)
    return _labels(merged)


def _fmt(value: float) -> str:
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(
    registry: MetricsRegistry, namespace: str = "repro"
) -> str:
    """The registry in Prometheus text exposition format (sorted)."""
    lines: list[str] = []
    typed: set[str] = set()

    def header(pname: str, kind: str) -> None:
        if pname not in typed:
            typed.add(pname)
            lines.append(f"# TYPE {pname} {kind}")

    for name, counter in sorted(registry._counters.items()):
        base, labels = split_labels(name)
        pname = prom_name(base, namespace)
        header(pname, "counter")
        lines.append(f"{pname}{_labels(labels)} {_fmt(counter.value)}")
    for name, gauge in sorted(registry._gauges.items()):
        base, labels = split_labels(name)
        pname = prom_name(base, namespace)
        header(pname, "gauge")
        value = gauge.value if gauge.updates else 0.0
        lines.append(f"{pname}{_labels(labels)} {_fmt(value)}")
    for name, hist in sorted(registry._histograms.items()):
        base, labels = split_labels(name)
        pname = prom_name(base, namespace)
        header(pname, "histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(
                f"{pname}_bucket"
                f"{_merge_labels(labels, {'le': _fmt(float(bound))})}"
                f" {cumulative}"
            )
        lines.append(
            f"{pname}_bucket{_merge_labels(labels, {'le': '+Inf'})}"
            f" {hist.total}"
        )
        lines.append(f"{pname}_sum{_labels(labels)} {_fmt(hist.sum)}")
        lines.append(f"{pname}_count{_labels(labels)} {hist.total}")
    return "\n".join(lines) + "\n"


def render_json_lines(registry: MetricsRegistry, **meta: object) -> str:
    """Newline-JSON: a meta header line, then one instrument per line."""
    records: list[dict[str, object]] = []
    for name, counter in registry._counters.items():
        records.append({"name": name, "kind": "counter",
                        "value": counter.value})
    for name, gauge in registry._gauges.items():
        records.append({"name": name, "kind": "gauge", **gauge.to_dict()})
    for name, hist in registry._histograms.items():
        records.append({"name": name, "kind": "histogram",
                        **hist.summary()})
    records.sort(key=lambda r: (r["name"], r["kind"]))
    header = {"meta": {"format": "metrics-jsonl", "schema": 1, **meta}}
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(record, sort_keys=True) for record in records
    )
    return "\n".join(lines) + "\n"


class MetricsEndpoint:
    """A deliberately tiny HTTP/1.0 scrape endpoint (``--metrics-port``).

    Answers ``GET /metrics`` (Prometheus text) and ``GET /metrics.json``
    (newline-JSON); everything else is a 404.  ``provider`` is called
    per request so responses reflect live instruments; exceptions in it
    surface as a 500 instead of killing the serving process.
    """

    def __init__(
        self,
        provider: Callable[[], MetricsRegistry],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.provider = provider
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
            parts = request.decode("ascii", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            # Drain headers (bounded) so well-behaved clients see a
            # clean close instead of a reset.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if not line or line in (b"\r\n", b"\n"):
                    break
            status, ctype, body = self._respond(path)
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body.encode())}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
                + body.encode()
            )
            await writer.drain()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    def _respond(self, path: str) -> tuple[str, str, str]:
        path = path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            try:
                body = render_prometheus(self.provider())
            except Exception as exc:  # noqa: BLE001 - scrape must not kill serve
                return "500 Internal Server Error", "text/plain", f"{exc}\n"
            return "200 OK", "text/plain; version=0.0.4", body
        if path == "/metrics.json":
            try:
                body = render_json_lines(self.provider())
            except Exception as exc:  # noqa: BLE001
                return "500 Internal Server Error", "text/plain", f"{exc}\n"
            return "200 OK", "application/x-ndjson", body
        return "404 Not Found", "text/plain", "not found\n"
