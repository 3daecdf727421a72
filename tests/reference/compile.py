"""The per-cell compile loop the vectorized ``_CompiledModel`` replaced."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core.mobility_model import GlobalMobilityModel


def compile_loop(model: GlobalMobilityModel) -> SimpleNamespace:
    """Padded ``dest`` / column-major ``cum_t`` / ``quit_raw``, one cell at a time.

    Each origin's row comes straight from
    :meth:`~repro.core.mobility_model.GlobalMobilityModel.row_distribution`
    (Eq. 6), renormalised conditional on not quitting — uniform when the
    row carries no move mass — and padded with its last destination.  The
    result has the attributes :func:`repro.core.fast_synthesis._draw_slab`
    reads, plus the model ``version`` it was compiled at.
    """
    space = model.space
    n = space.n_cells
    width = max(len(space.out_destinations(c)) for c in range(n))
    dest = np.full((n, width), 0, dtype=np.int64)
    cum_t = np.ones((width, n), dtype=float)
    quit_raw = np.zeros(n, dtype=float)
    for cell in range(n):
        probs, quit = model.row_distribution(cell)
        dests = space.out_destinations(cell)
        total = probs.sum()
        norm = probs / total if total > 0 else np.full(len(dests), 1 / len(dests))
        cum = np.cumsum(norm)
        cum[-1] = 1.0  # guard against rounding
        dest[cell, : len(dests)] = dests
        dest[cell, len(dests):] = dests[-1]
        cum_t[: len(dests), cell] = cum
        quit_raw[cell] = quit
    return SimpleNamespace(
        dest=dest, cum_t=cum_t, quit_raw=quit_raw, version=model.version
    )
