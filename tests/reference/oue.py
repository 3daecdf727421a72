"""OUE one-counts as the textbook protocol: one perturbed vector per user."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ldp.oue import OptimizedUnaryEncoding


def simulate_ones_loop(
    oracle: OptimizedUnaryEncoding, values: Sequence[int]
) -> np.ndarray:
    """Per-position one-counts from one ``perturb_one`` call per user."""
    ones = np.zeros(oracle.domain_size, dtype=np.int64)
    for value in values:
        ones += oracle.perturb_one(int(value))
    return ones.astype(float)


def collect_loop(oracle: OptimizedUnaryEncoding, values: Sequence[int]) -> np.ndarray:
    """:meth:`~OptimizedUnaryEncoding.collect` over the per-user loop."""
    if len(values) == 0:
        return np.zeros(oracle.domain_size)
    return oracle.debias(simulate_ones_loop(oracle, values), len(values))
