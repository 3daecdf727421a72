"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at a
laptop-friendly scale, measures its wall-clock with pytest-benchmark, prints
the formatted artefact, and writes it to ``benchmarks/results/``.

Scale is controlled by the REPRO_BENCH_SCALE environment variable
(default 0.02; paper-shape results need 0.05 or more).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentSetting

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))


@pytest.fixture(scope="session")
def bench_setting() -> ExperimentSetting:
    """Laptop-scale defaults: smaller w and horizon than Table II, same shape."""
    return ExperimentSetting(
        epsilon=1.0, w=10, phi=10, k=6, scale=BENCH_SCALE, seed=0
    )


@pytest.fixture(scope="session")
def save_artifact():
    """Write a rendered table/figure to benchmarks/results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}")

    return _save

