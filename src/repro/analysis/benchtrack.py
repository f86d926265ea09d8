"""Records of the declared repository benchmark, for ``python -m repro bench``.

``BENCHMARK.json`` at the root of a checkout declares the benchmark: the
``command`` that runs one workload, the ``workloads``, the default run
length ``run_seconds``, and the ``end_to_end`` metrics, each with the
direction that is ``better`` and a relative ``bound``.  The command takes
``--workload W --seed N --seconds S``; its last stdout line is the
result: ``correct``, ``attempted``, ``failed`` and ``metrics`` (name ->
``{"value", "unit"}``).

* :func:`run_benchmark` runs the command in the working directory and
  returns that line;
* :class:`BenchHistory` appends it, with workload, seed, run length, git
  revision, host and UTC time, to ``benchmarks/results/BENCH_<host>.json``;
* :func:`find_baseline` picks the entry a new one is compared against;
* :func:`check_metrics` checks each end-to-end metric of a new entry
  against its baseline's, in the metric's ``better`` direction, with its
  ``bound`` as the largest tolerated relative loss.
"""

from __future__ import annotations

import json
import re
import socket
import subprocess
from pathlib import Path

from repro.serialize import atomic_write

DEFAULT_HISTORY_DIR = Path("benchmarks") / "results"
BENCHMARK_FILE = Path("BENCHMARK.json")
#: The fields of the benchmark's result line.
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench_argv(
    bench: dict, workload: str, seed: int, seconds: float
) -> list[str]:
    """The declared command for one run."""
    return [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}"]


def run_benchmark(argv: list[str]) -> dict | None:
    """Run the benchmark in the working directory; its result line.

    The command's stderr passes through.  Returns ``None`` when the
    command fails or its last stdout line is not a result object.
    """
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or not RESULT_KEYS <= result.keys():
        return None
    return result


def host_slug(host: str | None = None) -> str:
    """Hostname reduced to a filesystem-safe slug."""
    raw = host if host is not None else socket.gethostname()
    slug = re.sub(r"[^A-Za-z0-9._-]+", "-", raw).strip("-.")
    return slug or "unknown"


class BenchHistory:
    """Append-only per-host benchmark history (``BENCH_<host>.json``).

    The file holds ``{"schema": 2, "entries": [...]}``, oldest entry
    first.  Appends are a read-modify-write published by
    :func:`~repro.serialize.atomic_write`, so a crashed bench run never
    leaves a torn file.
    """

    SCHEMA = 2

    def __init__(self, directory: Path | str = DEFAULT_HISTORY_DIR,
                 host: str | None = None) -> None:
        self.directory = Path(directory)
        self.host = host_slug(host)
        self.path = self.directory / f"BENCH_{self.host}.json"

    def load(self) -> list[dict]:
        """All recorded entries, oldest first (empty if no file yet).

        Raises :class:`ValueError` for a file of another schema, so an
        append never overwrites entries it cannot read.
        """
        if not self.path.exists():
            return []
        with open(self.path) as stream:
            payload = json.load(stream)
        if payload.get("schema") != self.SCHEMA:
            raise ValueError(
                f"{self.path} has schema {payload.get('schema')!r}, "
                f"expected {self.SCHEMA}; move it aside to start a new history"
            )
        return list(payload["entries"])

    def append(self, entry: dict) -> int:
        """Append ``entry``; returns the total entry count after the write."""
        entries = self.load()
        entries.append(entry)
        self.directory.mkdir(parents=True, exist_ok=True)
        with atomic_write(self.path) as stream:
            json.dump({"schema": self.SCHEMA, "entries": entries}, stream,
                      indent=2)
            stream.write("\n")
        return len(entries)


def find_baseline(
    entries: list[dict], entry: dict, base: str = "latest"
) -> dict | None:
    """Newest correct entry of the same workload, seed and run length.

    Any ``base`` but ``"latest"`` must also prefix the entry's ``git``
    revision, so ``--compare a1b2c3`` pins a commit.
    """
    for prior in reversed(entries):
        if (
            prior.get("correct") is True
            and prior.get("workload") == entry["workload"]
            and prior.get("seed") == entry["seed"]
            and prior.get("seconds") == entry["seconds"]
            and (base == "latest" or str(prior.get("git", "")).startswith(base))
        ):
            return prior
    return None


def check_metrics(
    declared: list[dict], baseline: dict, current: dict
) -> list[tuple[str, bool]]:
    """One ``(line, regressed)`` per declared end-to-end metric.

    A metric regresses when it moved in the direction opposite to its
    ``better`` by more than ``bound`` times the baseline value.  A metric
    the baseline lacks is reported and skipped; one the current entry
    lacks regresses.
    """
    out = []
    for spec in declared:
        name = spec["name"]
        base = baseline["metrics"].get(name, {}).get("value")
        cur = current["metrics"].get(name, {}).get("value")
        if base is None or cur is None:
            where = "baseline" if base is None else "this run"
            out.append((f"{name}: missing in {where}", cur is None))
            continue
        worse = cur - base if spec["better"] == "lower" else base - cur
        regressed = worse > spec["bound"] * abs(base)
        change = f"{cur / base - 1:+.1%}" if base else "from 0"
        out.append((
            f"{name}: {base:.6g} -> {cur:.6g} {spec.get('unit', '')} "
            f"({change}; {spec['better']} is better, bound "
            f"{spec['bound']:.0%}) {'REGRESSION' if regressed else 'ok'}",
            regressed,
        ))
    return out
