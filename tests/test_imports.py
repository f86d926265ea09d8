"""A simulation loads only the code it runs.

Every figure is a grid of fresh simulations, and each pays its imports.
A fresh interpreter runs ``from repro import simulate`` and a small
simulation; the serving stack (``asyncio``, ``ssl``, process pools), the
shard fleet, the sweep engine, the fault injector and every ``repro.obs``
module but the event bus must stay unloaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CHILD = """
import json, sys
from repro import OramConfig, SystemConfig, simulate
simulate(SystemConfig.dynamic(3, oram=OramConfig(levels=8)), "mcf", num_requests=500)
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def loaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


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
