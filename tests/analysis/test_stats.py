"""Unit tests for analysis statistics helpers."""

import pytest

from repro.analysis.stats import mean
from repro.system.metrics import geomean


class TestGeometricMean:
    """The cross-workload aggregate the analysis engine reports."""

    def test_known_value(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -2.0])


class TestMeanStdev:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])
