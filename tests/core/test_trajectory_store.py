"""Tests for the round-major trajectory store.

The store must round-trip bit-identical ``CellTrajectory`` views against a
plain object reference driven by the same round-shaped operation sequence,
grow transparently, serve array accessors that agree with object-side
computations, and refuse every write outside its round contract with a
typed error, before or after a checkpoint.  Every round is written the way
the engines write it: ``advance``, ``drop`` and ``append_streams`` with
position masks over ``live_rows()``.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import trajectory_store as store_module
from repro.core.synthesis import Synthesizer
from repro.core.trajectory_store import TrajectoryStore
from repro.exceptions import ConfigurationError, DatasetError
from repro.geo.trajectory import CellTrajectory


class _ObjectReference:
    """List-of-objects twin of the store, written row by row."""

    def __init__(self):
        self.trajs: list[CellTrajectory] = []

    def append_streams(self, t, cells):
        rows = []
        for c in np.atleast_1d(cells):
            rows.append(len(self.trajs))
            self.trajs.append(
                CellTrajectory(int(t), [int(c)], user_id=len(self.trajs))
            )
        return rows

    def append_cells(self, rows, cells):
        for r, c in zip(rows, cells):
            self.trajs[r].cells.append(int(c))

    def pop_last(self, rows):
        for r in rows:
            self.trajs[r].cells.pop()

    def kill(self, rows):
        for r in rows:
            self.trajs[r].terminated = True


def _drop(store, ref, rows):
    """Drop ``rows`` on both sides: each gives back its open cell, unless
    that is its only one (a newborn stays in the round as a ghost)."""
    store.drop(np.isin(store.live_rows(), rows))
    ref.pop_last([r for r in rows if len(ref.trajs[r].cells) > 1])
    ref.kill(rows)


def _play_round(store, ref, rnd, t, live, n_cells):
    """One round-shaped step on ``store`` and ``ref``: an advance (a quit
    set, one cell for every other live row), then up to three drops and
    births in any order.  A drop may name old streams and newborns alike.
    Returns the live rows afterwards, in creation order."""
    if live:
        quits = [r for r in live if rnd.random() < 0.2]
        stay = [r for r in live if r not in quits]
        cells = [rnd.randrange(n_cells) for _ in stay]
        store.advance(
            t, np.isin(store.live_rows(), quits), np.asarray(cells, dtype=np.int64)
        )
        ref.kill(quits)
        ref.append_cells(stay, cells)
    for _ in range(rnd.randint(0, 3)):
        live = [r for r, tr in enumerate(ref.trajs) if not tr.terminated]
        if rnd.random() < 0.5:
            _drop(store, ref, [r for r in live if rnd.random() < 0.15])
        else:
            new = [rnd.randrange(n_cells) for _ in range(rnd.randint(0, 5))]
            born = store.append_streams(t, np.asarray(new, dtype=np.int64)).tolist()
            assert ref.append_streams(t, new) == born
    return [r for r, tr in enumerate(ref.trajs) if not tr.terminated]


def _random_walk(seed, n_rounds=40, n_cells=25):
    """Drive store and reference through one random round sequence."""
    rnd = random.Random(seed)
    store = TrajectoryStore(initial_capacity=4, initial_horizon=2)
    ref = _ObjectReference()
    live: list[int] = []
    for t in range(n_rounds):
        live = _play_round(store, ref, rnd, t, live, n_cells)
    return store, ref


def _drop_all(store):
    store.drop(np.ones(store.n_live, dtype=bool))


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_views_bit_identical_to_object_reference(self, seed):
        store, ref = _random_walk(seed)
        assert store.n_total == len(ref.trajs)
        for row, expected in enumerate(ref.trajs):
            view = store.view(row)
            assert view.start_time == expected.start_time
            assert view.cells == expected.cells
            assert view.user_id == expected.user_id
            assert view.terminated == expected.terminated

    def test_views_do_not_alias_the_buffer(self):
        store = TrajectoryStore()
        store.append_streams(0, [3])
        view = store.view(0)
        view.cells.append(99)
        assert store.view(0).cells == [3]

    @pytest.mark.parametrize("seed", range(3))
    def test_array_accessors_match_object_computation(self, seed):
        store, ref = _random_walk(seed)
        horizon = max(tr.end_time for tr in ref.trajs) + 1
        assert store.lengths().tolist() == [len(tr) for tr in ref.trajs]
        for t in range(horizon):
            expected = [tr.cell_at(t) for tr in ref.trajs if tr.active_at(t)]
            assert store.cells_at(t).tolist() == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_matrix_matches_stream_dataset_loop(self, seed):
        from repro.geo.grid import unit_grid
        from repro.stream.stream import StreamDataset

        store, ref = _random_walk(seed)
        grid = unit_grid(5)  # 25 cells, matching _random_walk's domain
        data = StreamDataset(grid, ref.trajs, name="ref")
        np.testing.assert_array_equal(
            store.counts_matrix(data.n_timestamps, grid.n_cells),
            data.cell_counts_matrix(),
        )
        # Clipping: a shorter horizon drops the tail identically.
        short = StreamDataset(
            grid,
            [CellTrajectory(t.start_time, list(t.cells)) for t in ref.trajs],
            n_timestamps=max(1, data.n_timestamps // 2),
            name="short",
        )
        np.testing.assert_array_equal(
            store.counts_matrix(short.n_timestamps, grid.n_cells),
            short.cell_counts_matrix(),
        )


class TestGrowthAndGuards:
    def test_row_and_horizon_doubling(self):
        store = TrajectoryStore(initial_capacity=2, initial_horizon=2)
        store.append_streams(0, np.zeros(9, dtype=np.int64))
        for t in range(1, 11):
            store.advance(t, np.zeros(9, dtype=bool), np.ones(9, dtype=np.int64))
        assert store.n_total == 9
        assert (store.lengths() == 11).all()
        assert store.view(4).cells == [0] + [1] * 10

    def test_a_dropped_newborn_keeps_its_only_cell(self):
        store = TrajectoryStore()
        store.append_streams(0, [1, 2])
        store.drop(np.asarray([False, True]))
        assert store.live_rows().tolist() == [0]
        assert store.view(1).cells == [2] and store.view(1).terminated
        assert store.cells_at(0).tolist() == [1, 2]

    def test_view_bounds(self):
        store = TrajectoryStore()
        with pytest.raises(DatasetError):
            store.view(0)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            TrajectoryStore(initial_capacity=0)

    def test_ghosts_keep_creation_order_in_the_column(self):
        store = TrajectoryStore()
        store.append_streams(0, [1, 2])
        store.advance(1, np.zeros(2, dtype=bool), np.asarray([3, 4]))
        store.append_streams(1, [5, 6, 7])  # rows 2, 3, 4
        store.drop(np.asarray([False, False, False, True, False]))  # row 3 first
        store.drop(np.asarray([True, False, True, False]))  # then rows 0 and 2
        assert store.live_rows().tolist() == [1, 4]
        assert store.cells_at(1).tolist() == [4, 5, 6, 7]  # rows 1, 2, 3, 4
        store.advance(2, np.zeros(2, dtype=bool), np.asarray([8, 9]))
        assert store.cells_at(1).tolist() == [4, 5, 6, 7]
        assert store.cells_at(2).tolist() == [8, 9]
        assert [store.view(r).cells for r in range(5)] == [[1], [2, 4, 8], [5], [6], [7, 9]]

    def test_a_ghost_survives_a_checkpoint_and_leaves_at_the_next_round(self):
        store = TrajectoryStore()
        store.append_streams(0, [1, 2])
        store.advance(1, np.zeros(2, dtype=bool), np.asarray([3, 4]))
        store.append_streams(1, [5])
        store.drop(np.asarray([False, True, True]))  # row 1 gives back 4; row 2: a ghost
        clone = _reloaded(store)
        for s in (store, clone):
            s.advance(2, np.zeros(1, dtype=bool), np.asarray([6]))
        for s in (store, clone):
            assert s.cells_at(1).tolist() == [3, 5]
            assert s.cells_at(2).tolist() == [6]
            assert [s.view(r).cells for r in range(3)] == [[1, 3, 6], [2], [5]]

    def test_an_empty_drop_changes_nothing(self):
        store = TrajectoryStore()
        store.append_streams(0, [1])
        store.drop(np.zeros(1, dtype=bool))
        _drop_all(store)
        _drop_all(store)  # nothing live: nothing to drop
        assert store.n_live == 0
        assert store.view(0).terminated and store.view(0).cells == [1]

    def test_empty_store_accessors(self):
        store = TrajectoryStore()
        assert store.n_live == 0
        assert store.live_rows().size == 0
        assert store.cells_at(0).size == 0
        assert store.counts_matrix(5, 3).shape == (5, 3)
        assert store.all_views() == []


def _reloaded(store, **kwargs):
    """A fresh store (built with ``kwargs``) filled from ``store.state()``."""
    clone = TrajectoryStore(**kwargs)
    clone.load_state(store.state())
    return clone


class TestState:
    def test_state_round_trip(self):
        store, ref = _random_walk(7)
        clone = _reloaded(store)
        assert clone.n_total == store.n_total
        for row in range(store.n_total):
            a, b = store.view(row), clone.view(row)
            assert (a.start_time, a.cells, a.terminated) == (
                b.start_time,
                b.cells,
                b.terminated,
            )

    def test_a_restored_store_plays_a_round_without_reading_history(self):
        store = TrajectoryStore()
        a, b, c, d = store.append_streams(0, [0, 1, 2, 3])
        store.advance(1, np.zeros(4, dtype=bool), np.asarray([1, 2, 3, 4]))
        store.advance(2, np.asarray([False, True, False, False]), np.asarray([2, 3, 4]))
        store.advance(3, np.zeros(3, dtype=bool), np.asarray([3, 4, 5]))
        (e,) = store.append_streams(3, [6])
        store.drop(np.asarray([False, False, False, True]))  # e: a ghost of round 3
        clone = _reloaded(store)
        clone.advance(4, np.asarray([True, False, False]), np.asarray([6, 7]))
        (f,) = clone.append_streams(4, [8])
        clone.drop(np.asarray([False, True, True]))  # d gives back 7; f is a ghost
        (g,) = clone.append_streams(4, [9])
        assert [clone.view(r).cells for r in (a, b, c, d, e, f, g)] == [
            [0, 1, 2, 3], [1, 2], [2, 3, 3, 4, 6], [3, 4, 4, 5], [6], [8], [9]
        ]
        assert clone.cells_at(2).tolist() == [2, 3, 4]
        assert clone.cells_at(3).tolist() == [3, 4, 5, 6]
        assert clone.cells_at(4).tolist() == [6, 8, 9]


class TestEngineIntegration:
    def test_object_engine_store_views_match_live_lists(self, space4, rng):
        from repro.core.mobility_model import GlobalMobilityModel

        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        syn = Synthesizer(model, lam=8.0, rng=0)
        syn.spawn_from_entering(0, 50)
        for t in range(1, 10):
            syn.step(t, target_size=50 - t)
        # The engine's ordered object views and the store's creation-order
        # views describe the same database.
        by_id = {tr.user_id: tr for tr in syn.all_trajectories()}
        assert sorted(by_id) == list(range(syn.store.n_total))
        for row in range(syn.store.n_total):
            view = syn.store.view(row)
            assert view.cells == by_id[row].cells
            assert view.start_time == by_id[row].start_time
        np.testing.assert_array_equal(
            syn.live_last_cells(),
            np.asarray([tr.last_cell for tr in syn.live_streams]),
        )


# ---------------------------------------------------------------------- #
# model-based: live vectors + round log against a list-of-lists oracle
# ---------------------------------------------------------------------- #
_N_CELLS = 7

#: One seed per round; each round's operations are drawn from it and
#: resolved against the oracle's live set, so every round keeps the contract.
_rounds = st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=40)

#: Declared cell count -> the store's cell dtype (None: not declared).
_CELL_DTYPES = {
    None: np.int32, 127: np.int8, 128: np.int16, 32767: np.int16, 32768: np.int32
}


def _assert_cell_storage(store, dtype):
    """The log holds ``dtype``, and each sealed column holds one in-range
    cell per stream active at its timestamp."""
    assert store._cells.dtype == dtype
    assert all(chunk.dtype == dtype for chunk in store._cells._chunks)
    lengths, births = store.lengths(), store.births_of(np.arange(store.n_total))
    for k in range(store._n_rounds):
        t = store._t0 + k
        column = store._cells.read(*store._col_start[k : k + 2])
        assert column.size == np.count_nonzero((births <= t) & (t < births + lengths))
        assert column.size == 0 or column.min() >= 0


@given(
    _rounds, st.integers(1, 4), st.integers(1, 3), st.sampled_from(list(_CELL_DTYPES))
)
@settings(max_examples=120, deadline=None)
def test_store_matches_list_of_lists_oracle(rounds, capacity, horizon, n_cells):
    store = TrajectoryStore(
        initial_capacity=capacity, initial_horizon=horizon, n_cells=n_cells
    )
    ref = _ObjectReference()
    live: list[int] = []
    for t, seed in enumerate(rounds):
        rnd = random.Random(seed)
        if rnd.random() < 0.1:  # resume from a checkpoint mid-sequence
            store = _reloaded(store, initial_capacity=capacity, n_cells=n_cells)
        live = _play_round(store, ref, rnd, t, live, _N_CELLS)

        streams = [tr.cells for tr in ref.trajs]
        births = [tr.start_time for tr in ref.trajs]
        alive = [not tr.terminated for tr in ref.trajs]
        everyone = list(range(len(streams)))
        assert store.n_total == len(streams)
        assert store.n_live == len(live) and store.n_archived == len(streams) - len(live)
        assert store.live_rows().tolist() == live  # creation order
        assert store.lengths().tolist() == [len(s) for s in streams]
        assert store.live_cells().tolist() == [streams[r][-1] for r in live]
        assert store.flat_cells(np.asarray(everyone, dtype=np.int64)).tolist() == [
            c for s in streams for c in s
        ]
        _assert_cell_storage(store, _CELL_DTYPES[n_cells])
    # Read surfaces over the final state, in a scrambled row order too.
    rnd = random.Random(len(rounds))
    order = rnd.sample(everyone, len(everyone)) if streams else []
    rows = np.asarray(order, dtype=np.int64)
    assert store.flat_cells(rows).tolist() == [c for r in order for c in streams[r]]
    assert store.births_of(rows).tolist() == [births[r] for r in order]
    assert store.lengths_of(rows).tolist() == [len(streams[r]) for r in order]
    for r in order:
        view = store.view(r)
        assert (view.start_time, view.cells, view.terminated) == (
            births[r], streams[r], not alive[r]
        )
    horizon_t = len(rounds) + 2
    expected = np.zeros((horizon_t, _N_CELLS), dtype=np.int64)
    for t in range(horizon_t):
        at_t = [
            s[t - b] for b, s in zip(births, streams) if b <= t < b + len(s)
        ]
        assert store.cells_at(t).tolist() == at_t
        np.add.at(expected[t], at_t, 1)
    np.testing.assert_array_equal(store.counts_matrix(horizon_t, _N_CELLS), expected)
    with mock.patch.object(store_module, "_COUNT_BLOCK", 3):  # several blocks
        np.testing.assert_array_equal(
            store.counts_matrix(horizon_t, _N_CELLS), expected
        )
    # Clipped horizon drops the tail identically.
    np.testing.assert_array_equal(
        store.counts_matrix(horizon_t // 2, _N_CELLS), expected[: horizon_t // 2]
    )
    # Accessors hand out int64 whatever the storage dtype.
    everyone = np.asarray(everyone, dtype=np.int64)
    for cells in (
        store.flat_cells(rows), store.cells_at(1), store.flat_cells(everyone),
        store.counts_matrix(horizon_t, _N_CELLS),
    ):
        assert cells.dtype == np.int64
    clone = _reloaded(store, initial_capacity=capacity, n_cells=n_cells)
    assert clone.flat_cells(rows).tolist() == store.flat_cells(rows).tolist()
    assert clone.live_rows().tolist() == live
    for t in range(horizon_t):
        assert clone.cells_at(t).tolist() == store.cells_at(t).tolist()
    _assert_cell_storage(clone, _CELL_DTYPES[n_cells])
    # A restored store keeps appending, in the dtype it was written with.
    t = len(rounds)
    if live:
        clone.advance(t, np.zeros(len(live), dtype=bool), np.full(len(live), 4))
    (fresh,) = clone.append_streams(t, [3])
    clone.advance(t + 1, np.zeros(len(live) + 1, dtype=bool), np.full(len(live) + 1, 4))
    clone.drop(np.isin(clone.live_rows(), fresh))
    assert clone.view(int(fresh)).cells == [3]
    assert clone.live_rows().tolist() == live
    assert clone.cells_at(t + 1).tolist() == [4] * len(live)
    _assert_cell_storage(clone, _CELL_DTYPES[n_cells])


def _frame_cells(state) -> tuple:
    """Cells a store frame holds: sealed columns, live vector, ghosts."""
    return tuple(state[key].size for key in ("cells", "cur", "ghost_cells"))


def _hostile_source():
    """A 36-cell store whose frame has every part a refusal can aim at:
    four sealed rounds with removals, live rows, a skip and a ghost."""
    store = TrajectoryStore(n_cells=36)
    store.append_streams(0, [1, 2, 3])
    store.advance(1, np.zeros(3, dtype=bool), np.asarray([4, 5, 6]))
    store.append_streams(1, [7, 8])
    store.advance(2, np.asarray([True, False, True, False, False]), np.asarray([9, 10, 11]))
    store.advance(3, np.asarray([False, True, False]), np.asarray([12, 13]))
    store.append_streams(3, [14])
    store.advance(4, np.zeros(3, dtype=bool), np.asarray([15, 16, 17]))
    store.drop(np.asarray([True, False, False]))
    store.append_streams(4, [18, 19])
    store.drop(np.asarray([False, False, False, True]))  # row 7: a ghost
    return store


def _edit(key, at, value):
    """A frame edit: ``state[key][at] = value`` on a copy."""
    def edit(state):
        column = np.array(state[key])
        column[at] = value
        state[key] = column
    return edit


#: Each edit breaks one thing the loader checks.
_HOSTILE_FRAMES = {
    "cells-miss-the-log": (
        lambda state: state.update(cells=np.append(state["cells"], 0)), "lengths"
    ),
    "removals-miss-the-log": (
        lambda state: state.update(removed=state["removed"][1:]), "lengths"
    ),
    "skip-moved-into-the-log": (
        lambda state: state.update(
            removed=np.append(state["removed"], state["skip"]).astype(np.int32),
            skip=state["skip"][:0],
        ),
        "lengths",
    ),
    "births-miss-the-rows": (_edit("round_births", 1, 9), "do not fill"),
    "births-shift-a-row": (_edit("round_births", [1, 2], [1, 1]), "lengths"),
    "removed-position-repeats": (_edit("removed", 1, 0), "removed positions"),
    "removed-position-out-of-range": (_edit("removed", 0, 7), "removed positions"),
    "sealed-cell-out-of-range": (_edit("cells", 4, 36), "outside"),
    "live-cell-out-of-range": (_edit("cur", 0, -1), "outside"),
    "ghost-cell-out-of-range": (_edit("ghost_cells", 0, 99), "outside"),
    "ended-row-of-length-zero": (_edit("length", 0, 0), "lengths"),
    "ghost-turned-live": (_edit("length", 7, 0), "inconsistent rows"),
    "ghost-cell-missing": (
        lambda state: state.update(ghost_cells=state["ghost_cells"][:0]),
        "inconsistent rows",
    ),
    "newborn-of-length-two": (_edit("length", 7, 2), "lengths"),
    "skip-leaves-its-column": (_edit("skip", 0, 9), "removed positions"),
    "length-breaks-the-removals": (_edit("length", 1, 3), "lengths"),
    "cell-dtype": (lambda state: state.update(cell_dtype="int16"), "cells are"),
}

#: Each edit makes a round remove streams that do not end there.  Its sizes
#: still fit, so the frame loads (seeing which streams a round removes
#: takes a replay of the log), and the first history read refuses it.
_MISROUTED_FRAMES = {
    "swapped-lengths": _edit("length", [0, 1], [4, 2]),
    "removes-a-live-row": _edit("removed", 2, 2),
}


class TestRoundContract:
    """Writes outside the round contract are refused with a typed error,
    and leave the store as it was."""

    @staticmethod
    def _store(n_cells=10):
        store = TrajectoryStore(n_cells=n_cells)
        rows = store.append_streams(0, [1, 2, 3])
        store.advance(1, np.zeros(3, dtype=bool), np.asarray([4, 5, 6]))
        return store, rows

    @staticmethod
    def _snapshot(store):
        return [(v.start_time, v.cells, v.terminated) for v in store.all_views()]

    @pytest.mark.parametrize(
        "write, match",
        [
            (lambda s, rows: s.append_streams(0, [1]), "sealed"),
            (lambda s, rows: s.append_streams(2, [1]), "only advance"),
            (lambda s, rows: s.append_streams(3, [1]), "skip rounds"),
            (lambda s, rows: s.advance(1, np.zeros(3, dtype=bool), np.zeros(3)), "round 1"),
            (lambda s, rows: s.advance(2, np.zeros(2, dtype=bool), np.zeros(2)), "advance"),
            (lambda s, rows: s.advance(2, np.zeros(3, dtype=bool), np.zeros(2)), "cells for"),
            (lambda s, rows: s.drop(np.ones(2, dtype=bool)), "cannot drop"),
        ],
        ids=[
            "birth-in-sealed-round", "birth-in-the-next-round-while-live",
            "live-streams-skip-a-round", "advance-to-open-round", "mask-size",
            "cell-count", "drop-mask-size",
        ],
    )
    def test_off_contract_writes_are_refused(self, write, match):
        store, rows = self._store()
        before = self._snapshot(store)
        with pytest.raises(DatasetError, match=match):
            write(store, rows)
        assert self._snapshot(store) == before

    def test_advance_needs_a_started_store(self):
        store = TrajectoryStore()
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(DatasetError, match="cannot advance"):
            store.advance(0, empty.astype(bool), empty)
        assert store.n_total == 0 and store.cells_at(0).size == 0

    @pytest.mark.parametrize("cell", [-1, 36, 300])
    def test_out_of_range_cells_are_refused(self, cell):
        store = TrajectoryStore(n_cells=36)  # int8 storage
        with pytest.raises(DatasetError, match=f"cell {cell} outside"):
            store.append_streams(0, [3, cell])
        assert store.n_total == 0
        store.append_streams(0, [3])
        with pytest.raises(DatasetError, match="outside"):
            store.append_streams(0, [cell])
        assert store.n_total == 1 and store.view(0).cells == [3]

    @pytest.mark.parametrize(
        "edit, match", list(_HOSTILE_FRAMES.values()), ids=list(_HOSTILE_FRAMES)
    )
    def test_load_state_refuses_a_hostile_frame(self, edit, match):
        source = _hostile_source()
        state = source.state()
        assert state["removed"].size and state["skip"].size and state["ghost_cells"].size
        assert _reloaded(source, n_cells=36).state().keys() == state.keys()
        edit(state)
        target, _rows = self._store(n_cells=36)
        before = {key: np.array(value) for key, value in target.state().items()}
        snapshot = self._snapshot(target)
        with pytest.raises(DatasetError, match=match):
            target.load_state(state)
        after = target.state()
        assert after.keys() == before.keys()
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value, err_msg=key)
        assert self._snapshot(target) == snapshot

    @pytest.mark.parametrize(
        "edit", list(_MISROUTED_FRAMES.values()), ids=list(_MISROUTED_FRAMES)
    )
    def test_history_reads_refuse_a_log_that_removes_other_streams(self, edit):
        state = _hostile_source().state()
        edit(state)
        store = TrajectoryStore(n_cells=36)
        store.load_state(state)
        reads = (
            lambda: store.view(0), store.all_views,
            lambda: store.flat_cells(np.arange(store.n_total)),
        )
        for read in reads:
            with pytest.raises(DatasetError, match="do not end there"):
                read()
        for t in range(5):  # columns read straight from the log stay in range
            column = store.cells_at(t)
            assert column.size and 0 <= column.min() and column.max() < 36


@pytest.mark.parametrize("n_cells", [127, 128, 32767, 32768])
def test_largest_cell_id_survives_every_dtype_boundary(n_cells):
    """``n_cells - 1`` must read back unwrapped from the live vectors, the
    open round, sealed columns and the log's transpose."""
    top = n_cells - 1
    store = TrajectoryStore(initial_capacity=2, initial_horizon=1, n_cells=n_cells)
    store.append_streams(0, [top, 0, top])  # grows the live vectors
    store.advance(1, np.zeros(3, dtype=bool), np.asarray([0, top, top]))  # grows the round index
    store.advance(2, np.asarray([False, False, True]), np.asarray([top, top]))
    store.append_streams(2, [top])
    store.drop(np.asarray([False, True, True]))  # row 1 gives back top; row 3: a ghost
    _assert_cell_storage(store, _CELL_DTYPES[n_cells])
    assert store.flat_cells(np.arange(4)).tolist() == [top, 0, top, 0, top, top, top, top]
    assert [store.view(r).cells for r in range(4)] == [
        [top, 0, top], [0, top], [top, top], [top]
    ]
    assert store.live_cells().tolist() == [top]
    assert store.cells_at(1).tolist() == [0, top, top]
    assert store.cells_at(2).tolist() == [top, top]  # the open round
    counts = store.counts_matrix(3, n_cells)
    assert counts.dtype == np.int64 and counts[:, top].tolist() == [2, 2, 2]
    store.advance(3, np.zeros(1, dtype=bool), np.asarray([top]))
    assert store.cells_at(2).tolist() == [top, top]  # sealed
    assert store.view(0).cells == [top, 0, top, top]


class TestLiveVectorsAndLog:
    def test_finished_streams_are_immutable(self):
        store = TrajectoryStore()
        store.append_streams(0, [1, 2])
        store.advance(1, np.zeros(2, dtype=bool), np.asarray([3, 4]))
        store.advance(2, np.asarray([True, False]), np.asarray([5]))
        with pytest.raises(DatasetError, match="cannot advance"):
            store.advance(3, np.zeros(2, dtype=bool), np.asarray([6, 7]))
        store.advance(3, np.zeros(1, dtype=bool), np.asarray([6]))
        store.drop(np.ones(1, dtype=bool))
        assert store.view(0).cells == [1, 3] and store.view(0).terminated
        assert store.view(1).cells == [2, 4, 5]

    def test_live_vectors_track_the_live_set(self):
        store = TrajectoryStore(initial_capacity=8, initial_horizon=4)
        for t in range(0, 400, 2):
            store.append_streams(t, np.arange(8) % 5)
            store.advance(t + 1, np.zeros(8, dtype=bool), np.arange(8) % 3)
            store.advance(t + 2, np.ones(8, dtype=bool), np.zeros(0, dtype=np.int64))
        assert store.n_total == 1600 and store.n_live == 0
        assert store.live_cells().size == 0
        assert store._rows.size == 8  # never grew past the live set
        assert store.view(1599).cells == [2, 1]

    def test_log_grows_by_chunks_and_reads_copy_nothing(self):
        store = TrajectoryStore(initial_capacity=4, initial_horizon=4)
        per_round = store_module._MIN_CHUNK // 2 + 1
        for t in range(6):
            store.append_streams(t, np.full(per_round, t))
            _drop_all(store)
        chunks = list(store._cells._chunks)
        assert len(chunks) > 1  # appends opened chunks, copied nothing
        assert store.cells_at(3).tolist() == [3] * per_round
        assert store.flat_cells(np.arange(store.n_total)).size == 6 * per_round
        assert all(a is b for a, b in zip(store._cells._chunks, chunks))
        store.append_streams(9, [6])  # and appends continue after it
        _drop_all(store)
        assert store.view(store.n_total - 1).cells == [6]
        assert store.cells_at(7).size == 0  # the rounds skipped are empty

    def test_state_holds_exactly_the_written_cells(self):
        store = TrajectoryStore()
        store.append_streams(0, [1, 2, 3])
        _drop_all(store)
        assert _frame_cells(store.state()) == (0, 0, 3)  # three ghosts
        clone = _reloaded(store)
        assert clone.cells_at(0).tolist() == [1, 2, 3]
        clone.append_streams(1, [4])
        _drop_all(clone)
        assert clone.flat_cells(np.arange(4)).tolist() == [1, 2, 3, 4]
        assert clone._cells.size == 3  # round 0 sealed; round 1 is open
        assert _frame_cells(clone.state()) == (3, 0, 1)
