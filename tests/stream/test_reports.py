"""Tests for the columnar report plane (ReportBatch / ColumnarStreamView)."""

import numpy as np
import pytest

from repro.core.sharded import shard_of
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import DomainError
from repro.geo.trajectory import CellTrajectory
from repro.stream.events import StateKind, TransitionState
from repro.stream.reports import (
    KIND_ENTER,
    KIND_MOVE,
    KIND_QUIT,
    ColumnarStreamView,
    ReportBatch,
    shard_of_array,
)
from repro.stream.state_space import TransitionStateSpace
from repro.stream.stream import StreamDataset


@pytest.fixture(scope="module")
def walks():
    return make_random_walks(k=4, n_streams=80, n_timestamps=20, seed=5)


class TestShardOfArray:
    def test_matches_scalar_hash(self):
        uids = np.arange(0, 5000, 7, dtype=np.int64)
        for k in (1, 2, 3, 8):
            vec = shard_of_array(uids, k)
            ref = np.asarray([shard_of(int(u), k) for u in uids])
            assert np.array_equal(vec, ref), k

    def test_large_ids(self):
        uids = np.asarray([2**40, 2**50 + 3, 123456789012], dtype=np.int64)
        vec = shard_of_array(uids, 4)
        ref = [shard_of(int(u), 4) for u in uids]
        assert vec.tolist() == ref


class TestReportBatch:
    def test_from_participants_round_trip(self, space4):
        participants = [
            (3, TransitionState.enter(2)),
            (7, TransitionState.move(2, 3)),
            (9, TransitionState.quit(5)),
        ]
        batch = ReportBatch.from_participants(space4, participants)
        assert len(batch) == 3
        assert batch.kinds.tolist() == [KIND_ENTER, KIND_MOVE, KIND_QUIT]
        assert batch.user_ids.tolist() == [3, 7, 9]
        for i, (_uid, state) in enumerate(participants):
            assert batch.state_idx[i] == space4.index_of(state)

    def test_noeq_space_marks_eq_rows_unencodable(self, space4_noeq):
        participants = [
            (1, TransitionState.enter(0)),
            (2, TransitionState.move(0, 1)),
            (3, TransitionState.quit(1)),
        ]
        batch = ReportBatch.from_participants(space4_noeq, participants)
        assert batch.state_idx.tolist()[0] == -1
        assert batch.state_idx.tolist()[2] == -1
        moves = batch.moves_only()
        assert moves.user_ids.tolist() == [2]
        assert moves.state_idx[0] == space4_noeq.index_of_move(0, 1)

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ReportBatch(
                np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=np.int8),
            )

    def test_partition_covers_and_preserves_order(self, space4):
        uids = np.arange(100, dtype=np.int64)
        batch = ReportBatch.from_arrays(
            uids, np.zeros(100), np.full(100, KIND_MOVE)
        )
        parts = batch.partition(4)
        seen = np.concatenate([p.user_ids for p in parts])
        assert sorted(seen.tolist()) == uids.tolist()
        for k, part in enumerate(parts):
            assert all(shard_of(int(u), 4) == k for u in part.user_ids)
            # order inside a partition is the original row order
            assert part.user_ids.tolist() == sorted(part.user_ids.tolist())

    def test_partition_k1_is_identity(self, space4):
        batch = ReportBatch.from_arrays([5, 6], [0, 1], [0, 0])
        assert batch.partition(1)[0] is batch

    def test_check_domain_follows_the_space(self, space4, space4_noeq):
        """-1 is the NoEQ marker for enter/quit rows; an EQ space reports
        those rows, and no space takes -1 on a move row."""
        eq_marker = ReportBatch.from_arrays([1, 2], [0, -1], [KIND_MOVE, KIND_ENTER])
        eq_marker.check_domain(space4_noeq)
        with pytest.raises(DomainError, match=r"\[0, "):
            eq_marker.check_domain(space4)
        move_marker = ReportBatch.from_arrays([1], [-1], [KIND_MOVE])
        for space in (space4, space4_noeq):
            with pytest.raises(DomainError):
                move_marker.check_domain(space)
            with pytest.raises(DomainError):
                ReportBatch.from_arrays([1], [space.size], [KIND_MOVE]).check_domain(
                    space
                )
        with pytest.raises(DomainError, match="kind code 3"):
            ReportBatch.from_arrays([1], [0], [3]).check_domain(space4)

    def test_take_preserves_selection_order(self):
        batch = ReportBatch.from_arrays([10, 20, 30], [0, 1, 2], [0, 0, 0])
        sub = batch.take(np.asarray([2, 0]))
        assert sub.user_ids.tolist() == [30, 10]
        assert sub.state_idx.tolist() == [2, 0]


class TestColumnarStreamView:
    def test_matches_participants_at(self, walks):
        space = TransitionStateSpace(walks.grid)
        view = ColumnarStreamView(walks, space)
        for t in range(walks.n_timestamps):
            batch = view.batch_at(t)
            ref = walks.participants_at(t)
            assert batch.user_ids.tolist() == [uid for uid, _s in ref]
            assert batch.state_idx.tolist() == [
                space.index_of(s) for _uid, s in ref
            ]

    def test_matches_lifecycle_views(self, walks):
        space = TransitionStateSpace(walks.grid)
        view = ColumnarStreamView(walks, space)
        for t in range(walks.n_timestamps):
            assert view.newly_entered_at(t).tolist() == walks.newly_entered_at(t)
            assert view.quitted_at(t).tolist() == walks.quitted_at(t)
            assert view.n_active_at(t) == walks.n_active_at(t)

    def test_noeq_view_keeps_unencodable_rows(self, walks):
        space = TransitionStateSpace(walks.grid, include_entering_quitting=False)
        view = ColumnarStreamView(walks, space)
        kinds = np.concatenate(
            [view.batch_at(t).kinds for t in range(walks.n_timestamps)]
        )
        idx = np.concatenate(
            [view.batch_at(t).state_idx for t in range(walks.n_timestamps)]
        )
        assert ((idx == -1) == (kinds != KIND_MOVE)).all()

    @pytest.mark.parametrize("eq", [True, False])
    def test_trajectory_boundaries_are_not_moves(self, walks, eq):
        """Cell 1 -> 15 spans two trajectories: not a move, so no error."""
        data = StreamDataset(walks.grid, [
            CellTrajectory(0, [0, 1], user_id=9), CellTrajectory(1, [15, 14], user_id=4),
            CellTrajectory(2, [5], user_id=6),
        ])
        space = TransitionStateSpace(walks.grid, include_entering_quitting=eq)
        view = ColumnarStreamView(data, space)
        for t in range(data.n_timestamps):
            batch, ref = view.batch_at(t), data.participants_at(t)
            assert batch.user_ids.tolist() == [uid for uid, _s in ref]
            assert batch.state_idx.tolist() == [
                space.index_of(s) if eq or s.kind is StateKind.MOVE else -1
                for _uid, s in ref
            ]
        empty = StreamDataset(walks.grid, [], n_timestamps=2)
        assert len(ColumnarStreamView(empty, space).batch_at(1)) == 0

    def test_a_jump_names_the_first_bad_movement(self, walks):
        data = StreamDataset(walks.grid, [
            CellTrajectory(0, [0, 1, 2]), CellTrajectory(0, [4, 15, 0]),
        ])
        with pytest.raises(DomainError, match="4->15"):
            ColumnarStreamView(data, TransitionStateSpace(walks.grid))

    def test_out_of_range_timestamp(self, walks):
        space = TransitionStateSpace(walks.grid)
        view = ColumnarStreamView(walks, space)
        with pytest.raises(DomainError):
            view.batch_at(walks.n_timestamps)


class TestMoveIndexLookup:
    def test_matches_scalar(self, space4):
        pairs = space4.move_pairs
        origins = np.asarray([o for o, _d in pairs])
        dests = np.asarray([d for _o, d in pairs])
        out = space4.move_index_lookup(origins, dests)
        assert out.tolist() == list(range(space4.n_move))

    def test_illegal_pair_raises(self, space4):
        # cells 0 and 15 are opposite corners of the 4x4 grid: not adjacent
        with pytest.raises(DomainError):
            space4.move_index_lookup(np.asarray([0]), np.asarray([15]))
