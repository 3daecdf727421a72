"""Movement pairs as the transition metric reads them.

``transition_error`` compares per-timestamp histograms of the movement
pairs that ``StreamDataset.transitions_at`` returns.  On the lane stream
every user walks one row eastward, so the pairs, their totals and their
direction are known exactly.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import make_lane_stream
from repro.geo.trajectory import CellTrajectory
from repro.metrics.transition import transition_error
from repro.stream.stream import StreamDataset


@pytest.fixture
def lanes():
    return make_lane_stream(k=5, n_streams=50, n_timestamps=20, seed=0)


def all_transitions(ds, t_from=0, t_to=None):
    t_to = ds.n_timestamps - 1 if t_to is None else t_to
    return [pair for t in range(t_from, t_to + 1) for pair in ds.transitions_at(t)]


class TestTransitionCounts:
    def test_total_count(self, lanes):
        expected = sum(len(t) - 1 for t in lanes.trajectories)
        assert len(all_transitions(lanes)) == expected

    def test_window_restriction(self, lanes):
        early = len(all_transitions(lanes, 0, 5))
        assert 0 < early < len(all_transitions(lanes))

    def test_nothing_lands_at_t0(self, lanes):
        assert lanes.transitions_at(0) == []

    def test_pair_matrix_matches_counts(self, lanes):
        pairs = all_transitions(lanes)
        mat = np.zeros((lanes.grid.n_cells, lanes.grid.n_cells), dtype=np.int64)
        for a, b in pairs:
            mat[a, b] += 1
        assert mat.sum() == len(pairs)
        # A lane of k = 5 cells has exactly four distinct moves.
        assert np.count_nonzero(mat) == 4


class TestFlows:
    def test_every_move_is_one_column_east(self, lanes):
        grid = lanes.grid
        for a, b in all_transitions(lanes):
            (ra, ca), (rb, cb) = grid.cell_to_rowcol(a), grid.cell_to_rowcol(b)
            assert (rb, cb) == (ra, ca + 1)

    def test_flow_between_left_and_right(self, lanes):
        grid = lanes.grid

        def side(cell):
            return "left" if grid.cell_center(cell).x < 0.5 else "right"

        flows = [(side(a), side(b)) for a, b in all_transitions(lanes)]
        assert flows.count(("left", "right")) > 0
        assert flows.count(("right", "left")) == 0  # lanes only flow eastward

    def test_stays_are_pairs_too(self, grid4):
        ds = StreamDataset(
            grid4, [CellTrajectory(0, [5, 5, 6], user_id=0)], n_timestamps=4
        )
        pairs = all_transitions(ds)
        assert pairs == [(5, 5), (5, 6)]
        assert sum(a == b for a, b in pairs) / len(pairs) == pytest.approx(0.5)

    def test_empty_dataset_has_no_pairs(self, grid4):
        ds = StreamDataset(grid4, [], n_timestamps=4)
        assert all_transitions(ds) == []


class TestTransitionError:
    def test_reversed_lane_is_far(self, lanes):
        reversed_lanes = StreamDataset(
            lanes.grid,
            [
                CellTrajectory(t.start_time, list(reversed(t.cells)), user_id=t.user_id)
                for t in lanes.trajectories
            ],
            n_timestamps=lanes.n_timestamps,
        )
        assert transition_error(lanes, lanes) == 0.0
        assert transition_error(lanes, reversed_lanes) == pytest.approx(np.log(2))

    def test_no_moves_anywhere_scores_zero(self, grid4):
        points = StreamDataset(
            grid4,
            [CellTrajectory(t, [t], user_id=t) for t in range(4)],
            n_timestamps=4,
        )
        assert transition_error(points, points) == 0.0
