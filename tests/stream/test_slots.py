"""Tests for the shared uid → dense-slot table."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.slots import UserSlotTable


class TestLookupIntern:
    def test_empty_table(self):
        table = UserSlotTable()
        assert table.n_slots == 0
        assert len(table) == 0
        assert table.lookup([1, 2]).tolist() == [-1, -1]
        assert table.slot_of(7) == -1
        assert 7 not in table

    def test_intern_assigns_first_appearance_order(self):
        table = UserSlotTable()
        slots = table.intern(np.asarray([30, 10, 20], dtype=np.int64))
        assert slots.tolist() == [0, 1, 2]  # not sorted-by-uid order
        assert table.uids.tolist() == [30, 10, 20]

    def test_intern_is_idempotent(self):
        table = UserSlotTable()
        first = table.intern([5, 6, 7])
        again = table.intern([7, 5, 6])
        assert first.tolist() == [0, 1, 2]
        assert again.tolist() == [2, 0, 1]
        assert table.n_slots == 3

    def test_duplicates_in_one_batch_share_a_slot(self):
        table = UserSlotTable()
        slots = table.intern([9, 9, 4, 9])
        assert slots.tolist() == [0, 0, 1, 0]
        assert table.n_slots == 2

    def test_incremental_growth_across_batches(self):
        table = UserSlotTable()
        table.intern(np.arange(10))
        slots = table.intern(np.asarray([3, 100, 7, 101]))
        assert slots.tolist() == [3, 10, 7, 11]
        assert table.slot_of(101) == 11

    def test_lookup_never_creates(self):
        table = UserSlotTable()
        table.intern([1])
        assert table.lookup([1, 2]).tolist() == [0, -1]
        assert table.n_slots == 1

    def test_scalar_and_contains(self):
        table = UserSlotTable()
        table.intern([42])
        assert 42 in table
        assert table.slot_of(np.int64(42)) == 0

    def test_float_ids_rejected_not_truncated(self):
        """7.5 must never alias user 7 (the dict stores raised too)."""
        from repro.exceptions import ConfigurationError

        table = UserSlotTable()
        table.intern([7])
        with pytest.raises(ConfigurationError):
            table.lookup([7.5])
        with pytest.raises(ConfigurationError):
            table.slot_of(7.5)
        with pytest.raises(ConfigurationError):
            table.intern(np.asarray([1.0, 2.0]))
        assert table.n_slots == 1

    def test_uint64_overflow_rejected_not_wrapped(self):
        from repro.exceptions import ConfigurationError

        table = UserSlotTable()
        with pytest.raises(ConfigurationError):
            table.intern(np.asarray([2**63 + 5], dtype=np.uint64))
        # In-range uint64 values are fine.
        assert table.intern(np.asarray([5], dtype=np.uint64)).tolist() == [0]

    def test_large_population_round_trip(self):
        rng = np.random.default_rng(0)
        uids = rng.choice(10**9, size=50_000, replace=False)
        table = UserSlotTable()
        slots = table.intern(uids)
        assert slots.tolist() == list(range(50_000))
        perm = rng.permutation(50_000)
        assert np.array_equal(table.lookup(uids[perm]), slots[perm])


class TestDenseMap:
    """Dense uid populations are served by the direct-address map."""

    def test_dense_population_is_served_by_the_map(self):
        table = UserSlotTable()
        table.intern(np.arange(10_000))
        assert table.index == "dense" and table.state()["identity"]
        assert table.lookup([0, 9_999, 10_000, -1]).tolist() == [0, 9_999, -1, -1]

    def test_incremental_dense_growth_keeps_the_map_and_identity(self):
        table = UserSlotTable()
        table.intern(np.arange(5))
        table.intern(np.arange(5, 12))
        assert table.index == "dense" and table.state()["identity"]
        assert table.lookup(np.arange(12)).tolist() == list(range(12))

    def test_a_gap_breaks_identity_but_keeps_the_map(self):
        table = UserSlotTable()
        table.intern(np.arange(4))
        table.intern([100])  # gap: uid 100 lands in slot 4
        assert table.index == "dense" and not table.state()["identity"]
        assert table.slot_of(100) == 4
        table.intern([4])  # resuming the dense run gives slot 5, not 4
        assert not table.state()["identity"]
        assert table.slot_of(4) == 5

    def test_out_of_order_first_batch(self):
        table = UserSlotTable()
        table.intern([3, 1, 2])
        assert table.index == "dense" and not table.state()["identity"]
        assert table.lookup([1, 2, 3, 0, 4]).tolist() == [1, 2, 0, -1, -1]

    def test_negative_ids_and_a_lower_arrival_widen_the_map(self):
        table = UserSlotTable()
        table.intern([-5, 7])
        table.intern([-300])  # below the map's base: rebuilt around it
        table.intern([900])  # past its end: widened in place
        assert table.index == "dense"
        probe = [-301, -300, -5, 0, 7, 900, 901]
        assert table.lookup(probe).tolist() == [-1, 2, 0, -1, 1, 3, -1]

    def test_ids_at_the_int64_ends_never_wrap_into_the_map(self):
        top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
        high = UserSlotTable()
        high.intern([top - 2, top - 1])
        assert high.index == "dense"
        assert high.lookup([bottom, bottom + 1, top - 1, top]).tolist() == [-1, -1, 1, -1]
        low = UserSlotTable()
        low.intern([bottom + 1, bottom])
        assert low.index == "dense"
        assert low.lookup([top, top - 1, bottom, 0]).tolist() == [-1, -1, 1, -1]

    def test_dense_and_sorted_tables_agree(self):
        """Differential: the same uids, stretched past the dense bound."""
        rng = np.random.default_rng(7)
        uids = rng.permutation(1_000)
        dense, sparse = UserSlotTable(), UserSlotTable()
        dense.intern(uids)
        sparse.intern(uids * _STRIDE)
        assert (dense.index, sparse.index) == ("dense", "sorted")
        for _ in range(5):
            probe = rng.integers(-10, 1_200, size=500)
            np.testing.assert_array_equal(
                dense.lookup(probe), sparse.lookup(probe * _STRIDE)
            )

    def test_state_derives_the_identity_flag(self):
        table = UserSlotTable()
        table.intern(np.arange(8))
        assert _reloaded(table).state()["identity"]
        table.intern([99])
        assert not _reloaded(table).state()["identity"]

    def test_load_refuses_a_false_identity_flag_and_repeated_uids(self):
        table = UserSlotTable()
        table.intern([0, 2])
        forged = {**table.state(), "identity": True}
        with pytest.raises(ValueError):
            UserSlotTable().load_state(forged)
        for uids in ([4, 9, 4], [4 * _STRIDE, 9 * _STRIDE, 4 * _STRIDE]):
            repeated = {**table.state(), "uids": np.asarray(uids, dtype=np.int64)}
            with pytest.raises(ValueError):
                UserSlotTable().load_state(repeated)


#: Multiplies uids far enough apart that no table keeps its dense map.
_STRIDE = 10**9


def _reloaded(table):
    """A fresh table filled from ``table.state()``."""
    clone = UserSlotTable()
    clone.load_state(table.state())
    return clone


class TestSharingAndPersistence:
    def test_shared_between_components(self):
        """Two components interning into one table agree on slots."""
        table = UserSlotTable()
        a = table.intern([7, 8])
        b = table.intern([8, 9])
        assert a.tolist() == [0, 1]
        assert b.tolist() == [1, 2]

    def test_state_round_trip_preserves_mapping(self):
        table = UserSlotTable()
        table.intern([5, 3, 8])
        restored = _reloaded(table)
        assert restored.uids.tolist() == [5, 3, 8]
        assert restored.lookup([3, 8, 5]).tolist() == [1, 2, 0]
        # And it keeps interning correctly after restore.
        assert restored.intern([99]).tolist() == [3]

    def test_state_restores_shared_identity(self):
        """The K=1 curator's tracker and ledger share one table: its state
        is listed once and restores into ONE table, the one the fresh
        curator's constructor shared."""
        from repro.core.online import OnlineRetraSyn
        from repro.core.retrasyn import RetraSynConfig
        from repro.geo.grid import unit_grid

        def curator():
            return OnlineRetraSyn(unit_grid(3), RetraSynConfig(w=3, seed=1), lam=2.0)

        first = curator()
        tracker = first._shards[0].tracker
        tracker.register([1, 2])
        first.accountant.spend_many([2, 5], 0, 0.5)
        tracker.mark_reported([2], 0)
        pairs = first.components()
        assert [kind for kind, _ in pairs].count("slots") == 1
        fresh = curator()
        for (_, part), (_, into) in zip(pairs, fresh.components()):
            into.load_state(part.state())
        fresh_tracker = fresh._shards[0].tracker
        assert fresh_tracker._table is fresh.accountant._slots
        assert fresh_tracker._table.uids.tolist() == [1, 2, 5]
        assert fresh_tracker.status(2).value == "inactive"
        assert fresh.accountant.window_spend(2, 0) == 0.5


def _one_index(table) -> str | None:
    """The table's index, after checking it has exactly one while it holds
    rows and none while it is empty."""
    assert table._map is None or table._sorted_uids is None
    assert (table.index is None) == (table.n_slots == 0)
    return table.index


class TestOneIndexAtATime:
    """A table holding rows has one index, the map or the sorted one; an
    empty table has none."""

    def test_an_empty_table_has_no_index(self):
        table = UserSlotTable()
        assert _one_index(table) is None
        table.intern([])
        assert _one_index(table) is None
        assert _one_index(_reloaded(table)) is None

    def test_a_dense_table_never_builds_the_sorted_index(self):
        table = UserSlotTable()
        for lo in range(0, 5_000, 500):
            table.intern(np.arange(lo, lo + 500))
            assert _one_index(table) == "dense"
        assert _one_index(_reloaded(table)) == "dense"

    def test_a_sparse_arrival_hands_over_to_the_sorted_index(self):
        table = UserSlotTable()
        table.intern(np.arange(100))
        table.intern([10**12])  # stretches the span past the dense bound
        assert _one_index(table) == "sorted"
        assert table.lookup([10**12, 5, 100]).tolist() == [100, 5, -1]
        table.intern([100])  # dense again, but the sorted index stays
        assert _one_index(table) == "sorted"
        assert _one_index(_reloaded(table)) == "sorted"

    def test_uids_past_the_tail_are_appended_without_reindexing(self):
        table = UserSlotTable()
        table.intern(np.asarray([10, 5]) * _STRIDE)
        for lo in range(20, 4_000, 100):
            table.intern(np.arange(lo, lo + 100) * _STRIDE)
            index = table._sorted_uids
        # Amortised growth: the buffer was not reallocated per batch.
        table.intern([4_020 * _STRIDE])  # the batches above cover 20..4019
        assert table._sorted_uids is index
        probe = np.asarray([5, 10, 20, 4_019, 4_020, 4_021, 15]) * _STRIDE
        assert table.lookup(probe).tolist() == [1, 0, 2, 4_001, 4_002, -1, -1]

    @pytest.mark.parametrize("stride", [1, _STRIDE])
    def test_out_of_order_arrivals_still_merge_correctly(self, stride):
        rng = np.random.default_rng(3)
        uids = rng.permutation(2_000) * stride
        table = UserSlotTable()
        for part in np.array_split(uids, 17):
            table.intern(part)
        np.testing.assert_array_equal(table.lookup(uids), np.arange(2_000))


class _Owner:
    """A component with one column and an explicit release set."""

    def __init__(self, table):
        self.table = table
        self.column = table.add_column("column", np.int64, -1)
        self.deep = table.add_column("deep", np.float64, 0.0, depth=3)
        self.release: set[int] = set()
        self.retired: list[int] = []
        table.attach(self)

    def _releasable(self, n):
        return np.isin(self.table.uids[:n], sorted(self.release))

    def _retire(self, slots):
        self.retired += self.table.uids[slots].tolist()


class TestCompaction:
    @pytest.fixture(autouse=True)
    def _small_tables_compact(self, monkeypatch):
        from repro.stream import slots

        monkeypatch.setattr(slots, "_MIN_COMPACT_ROWS", 4)

    def test_released_rows_leave_and_the_rest_keep_their_order(self):
        table = UserSlotTable()
        owner = _Owner(table)
        slots = table.intern([50, 10, 40, 20, 30])
        owner.column.data[slots] = [500, 100, 400, 200, 300]
        owner.deep.data[:, slots] = np.arange(15.0).reshape(3, 5)
        owner.release = {10, 20}
        assert table.intern([60]).tolist() == [3]  # scans first, then admits
        assert table.uids.tolist() == [50, 40, 30, 60]
        assert owner.retired == [10, 20]
        assert table.n_retired == 2
        assert owner.column.data[:4].tolist() == [500, 400, 300, -1]
        assert owner.deep.data[:, :4].tolist() == [
            [0.0, 2.0, 4.0, 0.0], [5.0, 7.0, 9.0, 0.0], [10.0, 12.0, 14.0, 0.0],
        ]
        assert table.lookup([10, 20, 30, 40, 50, 60]).tolist() == [-1, -1, 2, 1, 0, 3]

    def test_a_retired_uid_returns_as_a_fresh_slot(self):
        table = UserSlotTable()
        owner = _Owner(table)
        table.intern(np.arange(5))
        owner.release = {1, 2}
        table.intern([9])
        assert not table.state()["identity"]  # slots 1 and 2 now hold 3 and 4
        owner.release = set()
        assert table.intern([2]).tolist() == [4]
        assert table.uids.tolist() == [0, 3, 4, 9, 2]

    def test_every_owner_must_release_a_row(self):
        table = UserSlotTable()
        first, second = _Owner(table), _Owner(table)
        table.intern(np.arange(6))
        first.release = {0, 1, 2}
        second.release = {2, 3}
        table.intern([6])
        assert table.uids.tolist() == [0, 1, 3, 4, 5, 6]
        assert first.retired == second.retired == [2]

    def test_a_table_without_owners_never_retires(self):
        table = UserSlotTable()
        table.intern(np.arange(64))
        table.intern(np.arange(64, 256))
        assert table.n_slots == 256 and table.n_retired == 0

    def test_scans_are_paid_for_by_growth(self):
        """The next scan waits until the table has doubled again."""
        table = UserSlotTable()
        owner = _Owner(table)
        calls = []
        original = owner._releasable
        owner._releasable = lambda n: (calls.append(n), original(n))[1]
        for uid in range(40):
            table.intern([uid])
        assert calls == [4, 8, 16, 32]

    def test_compacted_table_state_restores_columns_and_owners(self):
        table = UserSlotTable()
        owner = _Owner(table)
        table.intern(np.arange(10, 16))
        owner.column.data[: table.n_slots] = np.arange(6)
        owner.release = {11, 14}
        table.intern([3])
        clone = _Owner(UserSlotTable())
        clone.table.load_state(table.state())
        assert clone.table.uids.tolist() == [10, 12, 13, 15, 3]
        assert clone.column.data[:5].tolist() == [0, 2, 3, 5, -1]
        assert clone.deep.data.shape == (3, 5)
        assert clone.table.n_retired == 2
        assert clone.table._owners == [clone]
        assert clone.table._columns[0] is clone.column
        assert clone.table.lookup([3, 11]).tolist() == [4, -1]


class TestCompactionReindexes:
    @pytest.fixture(autouse=True)
    def _small_tables_compact(self, monkeypatch):
        from repro.stream import slots

        monkeypatch.setattr(slots, "_MIN_COMPACT_ROWS", 4)

    def test_the_map_is_rebuilt_over_the_rows_that_stay(self):
        table = UserSlotTable()
        owner = _Owner(table)
        table.intern([7, 3, 9, 1])
        owner.release = {3, 9}
        table.intern([2])
        assert _one_index(table) == "dense"
        assert table.lookup([1, 2, 3, 7, 9]).tolist() == [1, 2, -1, 0, -1]

    def test_a_sparse_table_compacts_its_sorted_index_in_place(self):
        table = UserSlotTable()
        owner = _Owner(table)
        table.intern(np.asarray([7, 3, 9, 1]) * _STRIDE)
        owner.release = {3 * _STRIDE, 9 * _STRIDE}
        table.intern([2 * _STRIDE])
        assert _one_index(table) == "sorted"
        probe = np.asarray([1, 2, 3, 7, 9]) * _STRIDE
        assert table.lookup(probe).tolist() == [1, 2, -1, 0, -1]

    def test_retiring_the_outliers_brings_the_map_back(self):
        table = UserSlotTable()
        owner = _Owner(table)
        table.intern([1, 2, 10**12, 3])
        assert _one_index(table) == "sorted"
        owner.release = {10**12}
        table.intern([4])
        assert _one_index(table) == "dense"
        assert table.lookup([1, 4, 10**12]).tolist() == [0, 3, -1]

    def test_retiring_every_row_leaves_no_index(self):
        table = UserSlotTable()
        owner = _Owner(table)
        table.intern(np.arange(6) * _STRIDE)
        owner.release = set((np.arange(6) * _STRIDE).tolist())
        table.intern([])
        assert table.n_slots == 0 and _one_index(table) is None
        assert table.intern([5]).tolist() == [0]
        assert _one_index(table) == "dense"


#: One step of the differential property: intern, lookup, or release a
#: set of uids (retired by the next intern's compaction scan).  Floats and
#: uint64 ids past the int64 range exercise the refusals.
_UIDS = st.lists(st.integers(-40, 200), max_size=12)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("intern"), _UIDS),
        st.tuples(st.just("lookup"), _UIDS),
        st.tuples(st.just("release"), _UIDS),
        st.tuples(st.sampled_from(["intern", "lookup"]), st.just("float")),
        st.tuples(st.just("intern"), st.just("uint64")),
    ),
    max_size=40,
)


def _replay(ops, stride):
    """Run ``ops`` on a fresh table whose uids are multiplied by ``stride``;
    every result, refusal and the final rows, in unstretched uids."""
    from repro.exceptions import ConfigurationError
    from repro.stream import slots

    out = []
    with mock.patch.object(slots, "_MIN_COMPACT_ROWS", 4):
        table = UserSlotTable()
        owner = _Owner(table)
        for op, arg in ops:
            if arg == "float":
                ids = np.asarray([1.0 * stride])
            elif arg == "uint64":
                ids = np.asarray([2**63 + 1], dtype=np.uint64)
            else:
                ids = np.asarray(arg, dtype=np.int64) * stride
            if op == "release":
                owner.release = set(ids.tolist())
                continue
            try:
                out.append((op, getattr(table, op)(ids).tolist()))
            except ConfigurationError as err:
                out.append((op, str(err)))
            _one_index(table)
    out.append((table.uids // stride).tolist())
    out.append([uid // stride for uid in owner.retired])
    return out, table


class TestDenseAndSortedAgree:
    @settings(max_examples=150, deadline=None)
    @given(_OPS)
    def test_one_sequence_on_dense_and_on_stretched_uids(self, ops):
        """Which index serves a table never changes a slot, a -1 or an error."""
        dense, dense_table = _replay(ops, 1)
        sparse, sparse_table = _replay(ops, _STRIDE)
        assert dense == sparse
        assert dense_table.index in (None, "dense")
        if len(set(sparse_table.uids.tolist())) > 1:
            assert sparse_table.index == "sorted"


class TestExtendLog:
    def test_grows_in_place_keeping_contents_and_a_zero_tail(self):
        from repro.stream.slots import _LOG_STEP, extend_log

        log = np.arange(1, 2_001, dtype=np.int64)
        grown = extend_log(log, 2_000, 2_001)
        assert grown is log  # realloc'd, not copied into a new object
        assert grown.size == 3_024 and grown[:2_000].sum() == 2_001_000
        assert not grown[2_000:].any()
        assert extend_log(grown, 2_000, 2_500) is grown  # room already
        # Large logs grow in fixed steps, not by half their size again.
        big = np.zeros(10 * _LOG_STEP, dtype=np.int64)
        assert extend_log(big, big.size, big.size + 1).size == 11 * _LOG_STEP

    def test_falls_back_to_a_copy_when_it_does_not_own_its_memory(self):
        from repro.stream.slots import extend_log

        backing = np.arange(8, dtype=np.int64)
        view = backing[:4]
        grown = extend_log(view, 4, 6)
        assert grown is not view and grown[:4].tolist() == [0, 1, 2, 3]
        assert backing.tolist() == list(range(8))
