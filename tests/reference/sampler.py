"""Reporter selection as a loop over ``(uid, TransitionState)`` pairs."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.online import _forget_retired_phases


def sample_population_reporters(
    tracker,
    report_phase: dict,
    rng,
    cfg,
    t: int,
    participants,
    newly_entered,
    rate: Optional[float],
    stochastic_round: bool = False,
) -> list:
    """Algorithm 1's per-timestamp reporter selection, one pair at a time.

    The readable twin of
    :func:`repro.core.online.sample_population_reporters_batch`: same
    arguments, but ``participants`` is a list of pairs and the selected
    pairs come back in selection order.  It draws from ``rng`` in the same
    sequence, so for a fixed seed both pick the same users.
    """
    tracker.register(newly_entered)
    if cfg.allocator == "random":
        for uid in newly_entered:
            report_phase[uid] = int(rng.integers(0, cfg.w))
        _forget_retired_phases(tracker, report_phase)
    tracker.recycle(t)
    eligible = [
        (uid, s)
        for uid, s in participants
        if tracker.status(uid).value == "active"
    ]
    if cfg.allocator == "random":
        return [
            (uid, s)
            for uid, s in eligible
            if report_phase.get(uid, 0) == t % cfg.w
        ]
    target = (rate or 0.0) * len(eligible)
    if stochastic_round:
        n_sample = int(target) + int(rng.random() < (target - int(target)))
    else:
        n_sample = int(round(target))
    if n_sample <= 0 or not eligible:
        return []
    idx = rng.choice(
        len(eligible), size=min(n_sample, len(eligible)), replace=False
    )
    return [eligible[int(i)] for i in np.atleast_1d(idx)]
