"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import (
    make_lane_stream,
    make_random_walks,
    make_two_hotspot_stream,
)
from repro.geo.grid import Grid, unit_grid
from repro.geo.point import BoundingBox
from repro.stream.state_space import TransitionStateSpace

# Test oracles live in tests/reference; the dict-ledger fixture is shared.
from reference.ledger import object_ledger  # noqa: F401


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def grid4() -> Grid:
    """A 4x4 grid over the unit square."""
    return unit_grid(4)


@pytest.fixture
def grid6() -> Grid:
    """A 6x6 grid over the unit square (the paper's default K)."""
    return unit_grid(6)


@pytest.fixture
def wide_grid() -> Grid:
    """A non-square-extent grid to catch x/y mix-ups."""
    return Grid(BoundingBox(-10.0, 0.0, 30.0, 20.0), 5)


@pytest.fixture
def space4(grid4) -> TransitionStateSpace:
    return TransitionStateSpace(grid4)


@pytest.fixture
def space4_noeq(grid4) -> TransitionStateSpace:
    return TransitionStateSpace(grid4, include_entering_quitting=False)


@pytest.fixture
def lane_data():
    """Deterministic left-to-right lane flows (known true model)."""
    return make_lane_stream(k=5, n_streams=150, n_timestamps=25, seed=7)


@pytest.fixture
def walk_data():
    """Random walks with churn."""
    return make_random_walks(k=5, n_streams=120, n_timestamps=30, seed=11)


@pytest.fixture
def hotspot_data():
    """Two-hotspot flows with a mid-stream regime shift."""
    return make_two_hotspot_stream(k=5, n_streams=150, n_timestamps=40, seed=3)


class ChurnStream:
    """Constant-active churn over a state space, with returning uids.

    Every round each present user moves to a legal neighbouring cell, a
    ``1/mean_length`` share of them leaves (the quit is reported at the
    next timestamp, as a dataset replay does) and as many users enter —
    a ``return_share`` of them re-using the uid of someone who quit in an
    earlier round, so gaps shorter and longer than any window both occur.
    ``round(t)`` returns ``(batch, newly_entered, quitted, n_active)`` for
    consecutive ``t`` starting at 0.
    """

    def __init__(self, space, n_active, mean_length, seed, return_share=0.3):
        from repro.stream.reports import KIND_ENTER, KIND_MOVE, KIND_QUIT, ReportBatch

        self._kinds = KIND_MOVE, KIND_ENTER, KIND_QUIT
        self._batch = ReportBatch
        self._rng = np.random.default_rng(seed)
        self._out, self._dest, self._deg = space.padded_out_structure()
        self._enter0 = int(space.enter_indices[0])
        self._quit0 = int(space.quit_indices[0])
        self._n_cells = int(space.n_cells)
        self.n_active, self.mean_length = n_active, mean_length
        self.return_share = return_share
        self._uids = np.empty(0, dtype=np.int64)
        self._cells = np.empty(0, dtype=np.int64)
        self._leaving = np.zeros(0, dtype=bool)
        self._gone: list[int] = []  # quit reported in an earlier round
        self._next_uid = 0
        #: Every ``(uid, re-entry t)`` of a returning user, for assertions.
        self.returns: list[tuple[int, int]] = []

    def _admit(self, count, t):
        uids = []
        for _ in range(count):
            if self._gone and self._rng.random() < self.return_share:
                uid = self._gone.pop(int(self._rng.integers(len(self._gone))))
                self.returns.append((uid, t))
            else:
                uid, self._next_uid = self._next_uid, self._next_uid + 1
            uids.append(uid)
        return np.asarray(uids, dtype=np.int64)

    def round(self, t):
        move, enter, quit_ = self._kinds
        rng = self._rng
        prev, cells, leaving = self._uids, self._cells, self._leaving
        j = (rng.random(prev.size) * self._deg[cells]).astype(np.int64)
        moved = self._dest[cells, j]
        state = np.where(leaving, self._quit0 + cells, self._out[cells, j])
        kinds = np.where(leaving, quit_, move).astype(np.int8)
        new = self._admit(self.n_active - int((~leaving).sum()), t)
        new_cells = rng.integers(0, self._n_cells, size=new.size)
        self._gone += prev[leaving].tolist()
        batch = self._batch(
            np.concatenate([prev, new]),
            np.concatenate([state, self._enter0 + new_cells]).astype(np.int64),
            np.concatenate([kinds, np.full(new.size, enter, dtype=np.int8)]),
        )
        self._uids = np.concatenate([prev[~leaving], new])
        self._cells = np.concatenate([moved[~leaving], new_cells])
        self._leaving = rng.random(self._uids.size) < 1.0 / self.mean_length
        return batch, new, prev[leaving], int(self._uids.size)


@pytest.fixture(scope="session")
def churn_stream():
    """Factory for :class:`ChurnStream` (see its docstring)."""
    return ChurnStream
