"""Store-backed lazy StreamDataset trajectories: the batch-pipeline
boundary must not materialise CellTrajectory objects eagerly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.core.trajectory_store import StoreTrajectories, TrajectoryStore
from repro.datasets.io import load_stream_dataset, save_stream_dataset
from repro.exceptions import DatasetError
from repro.stream.stream import StreamDataset


@pytest.fixture
def store():
    s = TrajectoryStore(initial_capacity=4, initial_horizon=4)
    s.append_streams(0, [3, 5])                  # two streams born at t=0
    s.advance(1, np.zeros(2, dtype=bool), np.asarray([4, 6]))
    s.advance(2, np.asarray([False, True]), np.asarray([5]))  # stream 1 ends
    s.append_streams(2, [7])                     # stream 2 born at t=2
    return s


class TestStoreTrajectories:
    def test_sequence_protocol(self, store):
        seq = StoreTrajectories(store, np.arange(store.n_total))
        assert len(seq) == 3
        assert list(seq[0].cells) == [3, 4, 5]
        assert list(seq[1].cells) == [5, 6]
        assert seq[-1].start_time == 2
        assert [t.user_id for t in seq] == [0, 1, 2]
        assert [t.user_id for t in seq[1:]] == [1, 2]
        with pytest.raises(IndexError):
            seq[3]

    def test_views_are_cached(self, store):
        seq = StoreTrajectories(store, np.arange(store.n_total))
        assert seq[0] is seq[0]

    def test_materialisation_is_lazy(self, store):
        seq = StoreTrajectories(store, np.arange(store.n_total))
        assert not seq._cache
        seq.user_ids(), seq.horizon(), len(seq)
        assert not seq._cache          # array-side accessors build nothing
        seq[1]
        assert set(seq._cache) == {1}  # only what was touched

    def test_row_order_defines_sequence_and_user_ids(self, store):
        seq = StoreTrajectories(store, [2, 0])
        assert [t.user_id for t in seq] == [2, 0]
        assert seq.user_ids() == [2, 0]
        assert seq.index_of_user(0) == 1
        with pytest.raises(DatasetError):
            seq.index_of_user(1)

    def test_duplicate_rows_rejected(self, store):
        with pytest.raises(DatasetError, match="duplicate"):
            StoreTrajectories(store, [0, 0])
        with pytest.raises(DatasetError, match="duplicate"):
            StoreTrajectories(store, [2, 1, 0, 1])

    @pytest.mark.parametrize("rows", [[0, 3], [-1, 0], [1, 99]])
    def test_out_of_range_rows_rejected(self, store, rows):
        with pytest.raises(DatasetError, match=r"outside \[0, 3\)"):
            StoreTrajectories(store, rows)

    def test_horizon_matches_object_derivation(self, store):
        seq = StoreTrajectories(store, np.arange(store.n_total))
        expected = max(t.end_time + 2 for t in store.all_views())
        assert seq.horizon() == expected
        assert StoreTrajectories(store, []).horizon() == 0

    def test_terminated_flag_mirrors_liveness(self, store):
        seq = StoreTrajectories(store, np.arange(store.n_total))
        assert [t.terminated for t in seq] == [False, True, False]

    def test_flat_cells_matches_view_concatenation(self, store):
        for rows in ([0, 1, 2], [2, 0], []):
            expected = [c for r in rows for c in store.view(r).cells]
            np.testing.assert_array_equal(
                store.flat_cells(np.asarray(rows, dtype=np.int64)), expected
            )


class TestLazyStreamDataset:
    def test_from_store_matches_eager_dataset(self, store, grid4):
        lazy = StreamDataset.from_store(grid4, store, name="lazy")
        eager = StreamDataset(grid4, store.all_views(), name="eager")
        assert lazy.n_timestamps == eager.n_timestamps
        assert lazy.user_ids == eager.user_ids
        np.testing.assert_array_equal(
            lazy.cell_counts_matrix(), eager.cell_counts_matrix()
        )
        for t in range(lazy.n_timestamps):
            assert lazy.participants_at(t) == eager.participants_at(t)
            assert lazy.n_active_at(t) == eager.n_active_at(t)

    def test_trajectory_lookup(self, store, grid4):
        lazy = StreamDataset.from_store(grid4, store)
        assert list(lazy.trajectory(2).cells) == [7]
        with pytest.raises(DatasetError):
            lazy.trajectory(99)

    def test_row_subset(self, store, grid4):
        lazy = StreamDataset.from_store(grid4, store, rows=[2, 0])
        assert lazy.user_ids == [2, 0]
        assert len(lazy) == 2

    def test_save_load_round_trip(self, store, grid4, tmp_path):
        lazy = StreamDataset.from_store(grid4, store, name="lazy")
        path = tmp_path / "lazy.npz"
        save_stream_dataset(lazy, path)
        loaded = load_stream_dataset(path)
        assert [(t.start_time, list(t.cells)) for t in loaded] == [
            (t.start_time, list(t.cells)) for t in store.all_views()
        ]

    def test_subsample_works(self, store, grid4):
        lazy = StreamDataset.from_store(grid4, store)
        sub = lazy.subsample(0.67, np.random.default_rng(0))
        assert 1 <= len(sub) <= 3

    def test_stats_matches_eager_without_materialising(self, store, grid4):
        lazy = StreamDataset.from_store(grid4, store, name="x")
        eager = StreamDataset(grid4, store.all_views(), name="x")
        assert lazy.stats() == eager.stats()
        assert not lazy.trajectories._cache, "stats() built objects"


class TestBatchPipelineBoundary:
    @pytest.mark.parametrize("engine", ["object", "vectorized"])
    def test_synthetic_dataset_is_store_backed_and_unmaterialised(
        self, walk_data, engine
    ):
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=10, seed=0, engine=engine)
        ).run(walk_data)
        trajs = run.synthetic.trajectories
        assert isinstance(trajs, StoreTrajectories)
        assert not trajs._cache, "pipeline boundary materialised objects"
        # the evaluation plane's count matrix is primed from the store:
        run.synthetic.cell_counts_matrix()
        run.synthetic.active_counts()
        assert not trajs._cache
        # object consumers still work, paying only for what they touch
        assert len(trajs[0].cells) == trajs.store.lengths_of(
            trajs.rows[:1]
        )[0]

    def test_lazy_output_equals_historical_object_output(self, walk_data):
        """The lazy sequence yields exactly the trajectories the eager
        all_trajectories() boundary used to produce (order included)."""
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=10, seed=0)).run(walk_data)
        curator_views = run.synthetic.trajectories.store.views(
            run.synthetic.trajectories.rows
        )
        assert [(t.start_time, list(t.cells)) for t in run.synthetic] == [
            (t.start_time, list(t.cells)) for t in curator_views
        ]
