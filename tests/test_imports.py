"""Each entry point loads only the code it runs.

Every figure is a grid of fresh simulations, and each pays its imports.
A fresh interpreter runs ``from repro import simulate`` and a small
simulation; the serving stack (``asyncio``, ``ssl``, process pools), the
shard fleet, the sweep engine, the fault injector and every ``repro.obs``
module but the event bus must stay unloaded.

The same holds for the other fresh processes: ``repro serve`` (the CLI
plus the server), and a spawned process-mode shard worker.  Subpackages
re-export nothing, so importing one module never loads its siblings.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CHILD = """
from repro import OramConfig, SystemConfig, simulate
simulate(SystemConfig.dynamic(3, oram=OramConfig(levels=8)), "mcf", num_requests=500)
"""


def modules_loaded_by(code: str) -> set[str]:
    """``sys.modules`` after a fresh interpreter runs ``code``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])]
    )
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.fixture(scope="module")
def loaded():
    return modules_loaded_by(CHILD)


def test_no_event_loop_tls_or_process_pool(loaded):
    heavy = {"asyncio", "ssl", "multiprocessing", "concurrent.futures.process"}
    assert sorted(heavy & loaded) == []


def test_event_bus_is_the_only_obs_module(loaded):
    obs = {m for m in loaded if m.startswith("repro.obs.")}
    assert obs == {"repro.obs.events"}


def test_no_serving_fleet_sweep_or_fault_code(loaded):
    packages = {"serve", "shard", "analysis", "faults"}
    stray = sorted(
        m for m in loaded
        if m.startswith("repro.") and m.split(".")[1] in packages
    )
    assert stray == []


def test_subpackages_hold_only_their_docstring():
    root = Path(repro.__file__).resolve().parent
    crowded = []
    for init in sorted(root.rglob("__init__.py")):
        if init.parent == root:
            continue  # the public facade
        tree = ast.parse(init.read_text())
        if len(tree.body) != 1 or ast.get_docstring(tree) is None:
            crowded.append(init.parent.relative_to(root).as_posix())
    assert crowded == []


def test_cli_module_loads_no_command_stack():
    loaded = modules_loaded_by("import repro.cli")
    heavy = {
        "asyncio", "multiprocessing", "concurrent.futures.process",
        "repro.analysis.engine", "repro.obs.progress", "repro.obs.timeline",
        "repro.obs.flightrec", "repro.obs.export", "repro.obs.slo",
    }
    stray = sorted(
        m for m in loaded
        if m in heavy
        or m.startswith(("repro.faults", "repro.serve", "repro.shard"))
    )
    assert stray == []


def test_single_bridge_server_loads_no_sweep_pool_or_client_code():
    loaded = modules_loaded_by("import repro.cli, repro.serve.server")
    unused = {
        "multiprocessing", "concurrent.futures.process",
        "repro.analysis.engine", "repro.serve.load",
        "repro.faults.invariants", "repro.obs.progress", "repro.obs.timeline",
    }
    assert sorted(unused & loaded) == []


def test_shard_worker_loads_no_event_loop_or_supervisor():
    loaded = modules_loaded_by("import repro.shard.worker")
    unused = {"asyncio", "repro.serve.server", "repro.shard.supervisor"}
    assert sorted(unused & loaded) == []
