"""Allocation tripwire for the two per-report kernels.

At the budget-division shape every active user passes through
``spend_many`` and every live stream through ``step`` each round, so a
``rows × width`` temporary in either (a ``w × batch`` ring gather, a
``streams × out-degree`` CDF gather) costs more than the arithmetic it
feeds.  Wall-clock cannot pin their absence in tier-1; ``tracemalloc``
can — the peak of one call is a deterministic function of the arrays it
allocates.  Bounds are multiples of one float64 per report (``n × 8``
bytes): the kernels as written peak at 4.5× (ledger) and 6.2×
(synthesis); the gather formulations they replaced peaked at 22× and
15.5×.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.fast_synthesis import VectorizedSynthesizer
from repro.core.mobility_model import GlobalMobilityModel
from repro.geo.grid import unit_grid
from repro.ldp.accountant import ColumnarPrivacyAccountant
from repro.stream.state_space import TransitionStateSpace

N = 16_000


def _peak_bytes(call) -> int:
    """Peak traced allocation above the level ``call`` started at."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_spend_many_allocates_no_window_by_batch_temporary():
    w, table = 20, 40_000
    ledger = ColumnarPrivacyAccountant(1.0, w)
    ledger.spend_many(np.arange(table), 0, 0.01)
    spenders = np.arange(N)
    ledger.spend_many(spenders, 1, 0.01)  # warm: columns and index at size
    peak = _peak_bytes(lambda: ledger.spend_many(spenders, 2, 0.01))
    assert peak < 8 * N * 8, peak / (N * 8)  # a (w, N) gather alone is 20x


def test_step_allocates_no_streams_by_width_temporary():
    space = TransitionStateSpace(unit_grid(6))
    model = GlobalMobilityModel(space)
    model.set_all(np.random.default_rng(1).random(space.size))
    syn = VectorizedSynthesizer(model, lam=20.0, rng=2, initial_capacity=N)
    syn.spawn_uniform(0, N)
    for t in range(1, 4):  # warm: block width and archive chunk allocated
        syn.step(t, target_size=N)
    peak = _peak_bytes(lambda: syn.step(4))
    assert syn.n_live > 0.9 * N
    assert peak < 9 * N * 8, peak / (N * 8)  # a (N, 9) float gather alone is 9x
