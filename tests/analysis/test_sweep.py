"""Tests for the sweep driver (uses small real simulations)."""

import pytest

from repro.analysis.engine import SweepRunner
from repro.oram.config import OramConfig
from repro.system.config import SystemConfig

ORAM = OramConfig(levels=9, utilization=0.25)


@pytest.fixture(scope="module")
def sweep():
    configs = [SystemConfig.tiny(oram=ORAM), SystemConfig.dynamic(3, oram=ORAM)]
    return SweepRunner().run_grid(configs, ["mcf", "sjeng"], num_requests=2500)


class TestRunSweep:
    def test_all_pairs_present(self, sweep):
        assert set(sweep.results) == {
            ("mcf", "Tiny"),
            ("mcf", "dynamic-3"),
            ("sjeng", "Tiny"),
            ("sjeng", "dynamic-3"),
        }
        assert sweep.schemes() == ["Tiny", "dynamic-3"]
        assert sweep.workloads() == ["mcf", "sjeng"]

    def test_normalized_baseline_is_one(self, sweep):
        norm = sweep.normalized("Tiny")
        for wl in ("mcf", "sjeng"):
            assert norm[(wl, "Tiny")].total == pytest.approx(1.0)
            assert norm[(wl, "Tiny")].data + norm[(wl, "Tiny")].interval == (
                pytest.approx(1.0)
            )

    def test_geomean_row(self, sweep):
        g = sweep.geomean_normalized("dynamic-3", "Tiny")
        assert g.workload == "gmean"
        assert 0.3 < g.total <= 1.05
        assert g.speedup == pytest.approx(1.0 / g.total, rel=1e-6)
