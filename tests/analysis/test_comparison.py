"""Tests for real-vs-synthetic fidelity reports."""

import pytest

from repro.analysis.comparison import fidelity_report, format_fidelity_report


class TestFidelityReport:
    def test_identity_report(self, walk_data):
        report = fidelity_report(walk_data, walk_data, phi=5)
        assert report["size_ratio"] == 1.0
        assert report["points_ratio"] == 1.0
        assert report["metrics"]["density_error"] == pytest.approx(0.0)
        assert report["metrics"]["kendall_tau"] == pytest.approx(1.0)

    def test_format_contains_metrics(self, walk_data):
        report = fidelity_report(walk_data, walk_data, phi=5)
        text = format_fidelity_report(report)
        assert "Fidelity report" in text
        assert "density_error" in text
        assert "kendall_tau" in text

    def test_subset_metrics(self, walk_data):
        report = fidelity_report(
            walk_data, walk_data, metrics=("trip_error",), rng=0
        )
        assert list(report["metrics"]) == ["trip_error"]
        text = format_fidelity_report(report)
        assert "trip_error" in text
        assert "density_error" not in text
