"""The CLI's surface: flags its commands read, and the serving commands.

Each command takes only the flags it reads, so an option a command would
ignore is an argparse error, and an abbreviation resolves to the one
option left.  ``serve``, ``top`` and ``load`` import their stacks inside
their own bodies; the end-to-end test runs all three, with both metrics
writers, so a missing per-command import fails here rather than in CI's
smoke jobs.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main, make_parser


def test_sweep_workload_abbreviates_workloads(capsys):
    code = main([
        "sweep", "--workload", "libquantum", "--schemes", "tiny",
        "--requests", "500", "--levels", "8", "--no-cache",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Sweep (1 workloads x 1 schemes" in out
    assert "libquantum" in out
    assert "mcf" not in out


@pytest.mark.parametrize("flag", [["--requests", "5"], ["--workload", "mcf"]])
def test_serve_takes_no_workload_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        make_parser().parse_args(["serve", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_serve_top_and_load_exit_zero(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]),
         *filter(None, [env.get("PYTHONPATH")])]
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--levels", "8", "--metrics", "m.json", "--metrics-prom", "m.prom"],
        cwd=tmp_path, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        address = None
        for line in server.stdout:
            address = re.search(r"listening on (\S+):(\d+) ", line)
            if address:
                break
        assert address, "server exited before listening"
        host, port = address.groups()
        assert main(["top", f"{host}:{port}", "--count", "1"]) == 0
        assert main([
            "load", "--host", host, "--port", port, "--clients", "2",
            "--requests", "20", "--rate", "400", "--shutdown-after",
        ]) == 0
        out, _ = server.communicate(timeout=60)
        assert server.returncode == 0, out
        assert "drained" in out
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    counters = json.loads((tmp_path / "m.json").read_text())["counters"]
    assert counters["serve/served"] > 0
    assert counters["serve/admitted"] == sum(
        counters.get(f"serve/{end}", 0)
        for end in ("served", "expired", "abandoned")
    )
    prom = (tmp_path / "m.prom").read_text()
    assert re.search(r"^repro_serve_served \d", prom, re.M), prom
