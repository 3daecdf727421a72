"""Range counts, hotspots, densities and trips on a hand-checked dataset.

The utility metrics of ``repro.metrics`` are built from a few dataset
primitives: the ``(t, cell)`` count matrix, the cells whose centre lies in a
query region, the cells occupied at one timestamp and the (start, end) trip
pairs.  These tests pin those primitives, and the metric helpers that sum
them, against counts worked out by hand on three streams.
"""

from collections import Counter

import numpy as np
import pytest

from repro.geo.point import BoundingBox
from repro.geo.trajectory import CellTrajectory
from repro.metrics.hotspot import _ndcg_at, hotspot_ndcg
from repro.metrics.query import _window_region_count, query_error
from repro.metrics.trip import trip_distribution
from repro.stream.stream import StreamDataset


@pytest.fixture
def three_streams(grid4):
    """Three streams with known geometry on a 4x4 unit grid."""
    return StreamDataset(
        grid4,
        [
            CellTrajectory(0, [0, 1, 2], user_id=0),  # bottom row eastward
            CellTrajectory(1, [5, 5], user_id=1),  # stays in cell 5
            CellTrajectory(0, [15, 15, 15, 15], user_id=2),  # top corner
        ],
        n_timestamps=5,
    )


def range_count(ds, region, t0=0, t1=None):
    """Points inside ``region`` during ``[t0, t1]``, as ``query_error`` counts them."""
    t1 = ds.n_timestamps - 1 if t1 is None else t1
    cells = np.asarray(ds.grid.cells_in_region(region), dtype=np.int64)
    return _window_region_count(ds.cell_counts_matrix(), cells, t0, t1)


class TestRangeCounts:
    def test_full_domain_counts_every_point(self, three_streams):
        assert range_count(three_streams, three_streams.grid.bbox) == 9

    @pytest.mark.parametrize(
        "t0, t1, expected",
        [(0, 0, 2), (1, 1, 3), (2, 2, 3), (3, 3, 1), (4, 4, 0), (1, 3, 7)],
    )
    def test_time_window(self, three_streams, t0, t1, expected):
        full = three_streams.grid.bbox
        assert range_count(three_streams, full, t0, t1) == expected

    def test_subregion(self, three_streams):
        # Lower-left quadrant: cells 0, 1, 4, 5.
        region = BoundingBox(0.0, 0.0, 0.5, 0.5)
        assert sorted(three_streams.grid.cells_in_region(region)) == [0, 1, 4, 5]
        # cell 0 @ t0, cell 1 @ t1, cell 5 @ t1 and t2
        assert range_count(three_streams, region) == 4

    def test_region_without_cell_centres(self, three_streams):
        region = BoundingBox(0.0, 0.0, 0.01, 0.01)
        assert three_streams.grid.cells_in_region(region) == []
        assert range_count(three_streams, region) == 0.0

    def test_occupancy_series(self, three_streams):
        region = BoundingBox(0.51, 0.51, 1.0, 1.0)  # top-right quadrant
        cells = three_streams.grid.cells_in_region(region)
        series = three_streams.cell_counts_matrix()[:, cells].sum(axis=1)
        assert series.tolist() == [1, 1, 1, 1, 0]

    @pytest.mark.parametrize("t, expected", [(0, 2), (1, 3), (2, 3), (3, 1), (4, 0)])
    def test_active_users(self, three_streams, t, expected):
        assert three_streams.n_active_at(t) == expected
        assert three_streams.active_counts()[t] == expected
        assert three_streams.cells_at(t).size == expected

    def test_identical_datasets_have_zero_query_error(self, three_streams):
        assert query_error(three_streams, three_streams, phi=2, rng=0) == 0.0

    def test_missing_stream_shows_in_query_error(self, three_streams, grid4):
        without_corner = StreamDataset(
            grid4, three_streams.trajectories[:2], n_timestamps=5
        )
        err = query_error(
            three_streams, without_corner, phi=5, region_fraction_range=(1.0, 1.0), rng=0
        )
        # Every query covers the whole grid and horizon: 4 of 9 points are lost.
        assert err == pytest.approx(4 / 9)


class TestHotspots:
    def test_corner_is_the_top_cell(self, three_streams):
        totals = three_streams.cell_counts_matrix().sum(axis=0)
        assert int(np.argmax(totals)) == 15
        assert totals[15] == 4
        assert totals[15] / totals.sum() == pytest.approx(4 / 9)
        assert totals[3] == 0

    @pytest.mark.parametrize("nh", [1, 2, 3, 4])
    def test_own_ranking_is_perfect(self, three_streams, nh):
        totals = three_streams.cell_counts_matrix().sum(axis=0)
        assert _ndcg_at(totals, totals, nh) == pytest.approx(1.0)

    def test_losing_the_hotspot_lowers_ndcg(self, three_streams, grid4):
        without_corner = StreamDataset(
            grid4, three_streams.trajectories[:2], n_timestamps=5
        )
        assert hotspot_ndcg(three_streams, three_streams, phi=5, nh=2, rng=0) == 1.0
        assert hotspot_ndcg(three_streams, without_corner, phi=5, nh=2, rng=0) < 1.0

    def test_density_at_busy_timestamp(self, three_streams):
        cells = three_streams.cells_at(1)
        density = np.bincount(cells, minlength=16) / cells.size
        assert density.sum() == pytest.approx(1.0)
        assert density[5] == pytest.approx(1 / 3)

    def test_empty_timestamp_has_no_cells(self, three_streams):
        assert three_streams.cells_at(4).size == 0
        assert three_streams.cell_counts_matrix()[4].sum() == 0


class TestTrips:
    def test_trip_lengths(self, three_streams):
        assert sorted(len(t) for t in three_streams.trajectories) == [2, 3, 4]

    def test_start_end_pairs(self, three_streams):
        assert trip_distribution(three_streams) == Counter(
            {(0, 2): 1, (5, 5): 1, (15, 15): 1}
        )

    @pytest.mark.parametrize(
        "t, expected",
        [
            (0, []),
            (1, [(0, 1), (15, 15)]),
            (2, [(1, 2), (5, 5), (15, 15)]),
            (3, [(15, 15)]),
            (4, []),
        ],
    )
    def test_transitions_at(self, three_streams, t, expected):
        assert sorted(three_streams.transitions_at(t)) == expected
