"""User-side encoding of transition states.

Bridges the stream substrate and the LDP substrate: converts each reporting
user's :class:`~repro.stream.events.TransitionState` into its dense index in
the :class:`~repro.stream.state_space.TransitionStateSpace` (the paper's
|S|-bit one-hot encoding, steps ② of Figure 2) and runs the frequency oracle
round trip (③–④).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ldp.oue import OptimizedUnaryEncoding
from repro.stream.events import TransitionState
from repro.stream.reports import ReportBatch
from repro.stream.state_space import TransitionStateSpace


class UserSideEncoder:
    """Encodes transition states and drives the FO collection round."""

    def __init__(self, space: TransitionStateSpace) -> None:
        self.space = space

    def encode(self, states: Sequence[TransitionState]) -> np.ndarray:
        """Dense state indices for a batch of users' transition states."""
        return np.asarray([self.space.index_of(s) for s in states], dtype=np.int64)

    def encode_batch(
        self, participants: Sequence[tuple[int, TransitionState]]
    ) -> ReportBatch:
        """Columnar :class:`~repro.stream.reports.ReportBatch` from object
        ``(user_id, state)`` pairs, preserving row order."""
        return ReportBatch.from_participants(self.space, participants)

    def one_hot(self, state: TransitionState) -> np.ndarray:
        """The |S|-bit one-hot vector of a single state (paper Figure 2 ②)."""
        vec = np.zeros(len(self.space), dtype=np.uint8)
        vec[self.space.index_of(state)] = 1
        return vec

    def collect_counts(
        self, oracle: OptimizedUnaryEncoding, states: Sequence[TransitionState]
    ) -> np.ndarray:
        """Full private collection: returns estimated counts over ``S``.

        The caller owns the privacy accounting; this method only runs the
        mechanism.
        """
        if len(states) == 0:
            return np.zeros(len(self.space))
        return oracle.collect(self.encode(states))
