"""Tests for the columnar trajectory store.

The store must round-trip bit-identical ``CellTrajectory`` views against a
plain object reference driven by the same operation sequence, grow
transparently in both dimensions, and serve array accessors that agree
with object-side computations — wherever a stream's cells currently live
(the live block, or the archive of finished streams).
"""

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
    """List-of-objects twin driven by the same operations as the store."""

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


def _random_walk(seed, n_rounds=40, n_cells=25):
    """Drive store and reference through one random operation sequence."""
    rng = np.random.default_rng(seed)
    store = TrajectoryStore(initial_capacity=4, initial_horizon=2)
    ref = _ObjectReference()
    live: list[int] = []
    for t in range(n_rounds):
        n_new = int(rng.integers(0, 6))
        cells = rng.integers(0, n_cells, size=n_new)
        rows = store.append_streams(t, cells)
        assert ref.append_streams(t, cells) == rows.tolist()
        live.extend(rows.tolist())
        if live:
            advance = np.asarray(
                [r for r in live if rng.random() < 0.8], dtype=np.int64
            )
            new_cells = rng.integers(0, n_cells, size=advance.size)
            store.append_cells(advance, new_cells)
            ref.append_cells(advance, new_cells)
            lengths = store.lengths_of(np.asarray(live, dtype=np.int64))
            droppable = [
                r for r, ln in zip(live, lengths) if ln > 1 and rng.random() < 0.1
            ]
            store.pop_last(np.asarray(droppable, dtype=np.int64))
            ref.pop_last(droppable)
            dead = [r for r in live if rng.random() < 0.15]
            store.kill(np.asarray(dead, dtype=np.int64))
            ref.kill(dead)
            live = [r for r in live if r not in set(dead)]
    return store, ref


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
            counts = np.bincount(expected, minlength=25)
            np.testing.assert_array_equal(store.counts_by_cell(t, 25), counts)

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
        rows = store.append_streams(0, np.zeros(9, dtype=np.int64))
        for _ in range(10):
            store.append_cells(rows, np.ones(rows.size, dtype=np.int64))
        assert store.n_total == 9
        assert (store.lengths() == 11).all()
        assert store.view(4).cells == [0] + [1] * 10

    def test_pop_last_refuses_single_cell_streams(self):
        store = TrajectoryStore()
        rows = store.append_streams(0, [1, 2])
        with pytest.raises(DatasetError):
            store.pop_last(rows)

    def test_view_bounds(self):
        store = TrajectoryStore()
        with pytest.raises(DatasetError):
            store.view(0)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            TrajectoryStore(initial_capacity=0)

    def test_kill_is_idempotent(self):
        store = TrajectoryStore()
        rows = store.append_streams(0, [1])
        store.kill(rows)
        store.kill(rows)
        assert store.n_live == 0
        assert store.view(0).terminated

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
# model-based: live block + archive against a list-of-lists oracle
# ---------------------------------------------------------------------- #
_N_CELLS = 7

#: One step of a random store history; ``args`` are resolved against the
#: oracle's current live set so every operation is legal.
_steps = st.lists(
    st.tuples(
        st.sampled_from(("spawn", "extend", "extend", "pop", "kill", "kill")),
        st.integers(0, 2**31 - 1),
    ),
    min_size=1,
    max_size=60,
)


def _pick(rnd, live, k_max):
    if not live:
        return []
    return rnd.sample(live, rnd.randint(0, min(k_max, len(live))))


#: Declared cell count -> the store's cell dtype (None: not declared).
_CELL_DTYPES = {
    None: np.int32, 127: np.int8, 128: np.int16, 32767: np.int16, 32768: np.int32
}


def _assert_cell_storage(store, dtype):
    """Block and archive hold ``dtype``; ABSENT pads, and only pads."""
    assert store._block.dtype == dtype
    assert all(chunk.dtype == dtype for chunk in store._chunks)
    live = store.live_rows()
    written = np.arange(store._block.shape[1]) < store.lengths_of(live)[:, None]
    assert (store._block[store._where[live]][written] >= 0).all()
    assert (store._block[store._n_slots:] == store_module.ABSENT).all()


@given(
    _steps, st.integers(1, 4), st.integers(1, 3), st.sampled_from(list(_CELL_DTYPES))
)
@settings(max_examples=120, deadline=None)
def test_store_matches_list_of_lists_oracle(steps, capacity, horizon, n_cells):
    import random

    store = TrajectoryStore(
        initial_capacity=capacity, initial_horizon=horizon, n_cells=n_cells
    )
    births: list[int] = []
    streams: list[list[int]] = []
    alive: list[bool] = []
    for t, (op, seed) in enumerate(steps):
        rnd = random.Random(seed)
        live = [r for r, a in enumerate(alive) if a]
        if op == "spawn":
            cells = [rnd.randrange(_N_CELLS) for _ in range(rnd.randint(0, 5))]
            rows = store.append_streams(t, np.asarray(cells, dtype=np.int64))
            assert rows.tolist() == list(range(len(streams), len(streams) + len(cells)))
            births += [t] * len(cells)
            streams += [[c] for c in cells]
            alive += [True] * len(cells)
        elif op == "extend":
            rows = _pick(rnd, live, 6)
            cells = [rnd.randrange(_N_CELLS) for _ in rows]
            store.append_cells(np.asarray(rows, dtype=np.int64), np.asarray(cells))
            for r, c in zip(rows, cells):
                streams[r].append(c)
        elif op == "pop":
            rows = [r for r in _pick(rnd, live, 4) if len(streams[r]) > 1]
            store.pop_last(np.asarray(rows, dtype=np.int64))
            for r in rows:
                streams[r].pop()
        else:
            rows = _pick(rnd, live, 4)
            # kill is idempotent: re-killing finished rows changes nothing.
            dead = [r for r, a in enumerate(alive) if not a][:2]
            store.kill(np.asarray(rows + dead + rows[:1], dtype=np.int64))
            for r in rows:
                alive[r] = False

        live = [r for r, a in enumerate(alive) if a]
        everyone = list(range(len(streams)))
        assert store.n_total == len(streams)
        assert store.n_live == len(live) and store.n_archived == len(streams) - len(live)
        assert store.live_rows().tolist() == live  # creation order
        assert store.alive_mask().tolist() == alive
        assert store.lengths().tolist() == [len(s) for s in streams]
        assert store.last_cells(np.asarray(everyone, dtype=np.int64)).tolist() == [
            s[-1] for s in streams
        ]
        _assert_cell_storage(store, _CELL_DTYPES[n_cells])
    # Read surfaces over the final state, in a scrambled row order too.
    rnd = random.Random(len(steps))
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
    horizon_t = len(steps) + 2
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
        store.flat_cells(rows), store.cells_at(1), store.last_cells(everyone),
        store.counts_matrix(horizon_t, _N_CELLS),
    ):
        assert cells.dtype == np.int64
    clone = _reloaded(store, initial_capacity=capacity, n_cells=n_cells)
    assert clone.flat_cells(rows).tolist() == store.flat_cells(rows).tolist()
    assert clone.live_rows().tolist() == live
    _assert_cell_storage(clone, _CELL_DTYPES[n_cells])
    # A restored store keeps appending, in the dtype it was written with.
    fresh = clone.append_streams(horizon_t, [3])
    clone.append_cells(fresh, [4])
    clone.kill(fresh)
    assert clone.view(int(fresh[0])).cells == [3, 4]
    assert clone.live_rows().tolist() == live
    _assert_cell_storage(clone, _CELL_DTYPES[n_cells])


@pytest.mark.parametrize("n_cells", [127, 128, 32767, 32768])
def test_largest_cell_id_survives_every_dtype_boundary(n_cells):
    """``n_cells - 1`` must read back unwrapped from block and archive."""
    top = n_cells - 1
    store = TrajectoryStore(initial_capacity=2, initial_horizon=1, n_cells=n_cells)
    rows = store.append_streams(0, [top, 0, top])  # grows the slot axis
    store.append_cells(rows, [0, top, top])  # grows the width axis
    store.append_cells(rows[:2], [top, top])
    store.kill(rows[1:2])  # one stream in the archive, two in the block
    _assert_cell_storage(store, _CELL_DTYPES[n_cells])
    assert store.flat_cells(rows).tolist() == [top, 0, top, 0, top, top, top, top]
    assert [store.view(r).cells for r in rows] == [
        [top, 0, top], [0, top, top], [top, top]
    ]
    assert store.last_cells(rows).tolist() == [top, top, top]
    assert store.cells_at(1).tolist() == [0, top, top]
    assert store.counts_by_cell(2, n_cells)[top] == 2
    counts = store.counts_matrix(3, n_cells)
    assert counts.dtype == np.int64 and counts[:, top].tolist() == [2, 2, 2]
    store.pop_last(rows[:1])
    assert store.last_cells(rows[:1]).tolist() == [0]


class TestLiveBlockAndArchive:
    def test_finished_streams_are_immutable(self):
        store = TrajectoryStore()
        rows = store.append_streams(0, [1, 2])
        store.append_cells(rows, np.asarray([3, 4]))
        store.kill(rows[:1])
        with pytest.raises(DatasetError, match="finished stream"):
            store.append_cells(rows, np.asarray([5, 6]))
        with pytest.raises(DatasetError, match="finished stream"):
            store.pop_last(rows[:1])
        assert store.view(0).cells == [1, 3]

    def test_live_slots_are_recycled_so_the_block_tracks_the_live_set(self):
        store = TrajectoryStore(initial_capacity=8, initial_horizon=4)
        for t in range(200):
            rows = store.append_streams(t, np.arange(8) % 5)
            store.append_cells(rows, np.arange(8) % 3)
            store.kill(rows)
        assert store.n_total == 1600 and store.n_live == 0
        assert store._block.shape == (8, 4)  # never grew past the live set
        assert store.view(1599).cells == [2, 1]

    def test_archive_grows_by_chunks_and_merges_only_on_read(self):
        store = TrajectoryStore(initial_capacity=4, initial_horizon=4)
        per_round = store_module._MIN_CHUNK // 2 + 1
        for t in range(6):
            rows = store.append_streams(t, np.full(per_round, t))
            store.kill(rows)
        assert len(store._chunks) > 1  # appends opened chunks, copied nothing
        first = store._chunks[0]
        assert store.cells_at(3).tolist() == [3] * per_round  # a read merges
        assert len(store._chunks) == 1 and store._chunks[0] is not first
        store.kill(store.append_streams(9, [6]))  # and appends continue after it
        assert store.view(store.n_total - 1).cells == [6]

    def test_state_drops_the_unwritten_tail_of_the_archive(self):
        store = TrajectoryStore()
        store.kill(store.append_streams(0, [1, 2, 3]))
        assert store.state()["archive"].size == 3
        clone = _reloaded(store)
        assert sum(c.size for c in clone._chunks) == 3
        clone.kill(clone.append_streams(1, [4]))
        assert clone.flat_cells(np.arange(4)).tolist() == [1, 2, 3, 4]
