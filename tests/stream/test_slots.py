"""Tests for the shared uid → dense-slot table."""

import numpy as np
import pytest

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


class TestIdentityFastPath:
    """Dense uid populations interned in order skip searchsorted entirely."""

    def test_dense_population_arms_the_fast_path(self):
        table = UserSlotTable()
        table.intern(np.arange(10_000))
        assert table.is_identity
        assert table.lookup([0, 9_999, 10_000]).tolist() == [0, 9_999, -1]

    def test_incremental_dense_growth_keeps_identity(self):
        table = UserSlotTable()
        table.intern(np.arange(5))
        table.intern(np.arange(5, 12))
        assert table.is_identity
        assert table.lookup(np.arange(12)).tolist() == list(range(12))

    def test_gap_disarms_identity_permanently(self):
        table = UserSlotTable()
        table.intern(np.arange(4))
        table.intern([100])  # gap: uid 100 lands in slot 4
        assert not table.is_identity
        assert table.slot_of(100) == 4
        table.intern([4])  # resuming the dense run must NOT re-arm
        assert not table.is_identity
        assert table.slot_of(4) == 5

    def test_out_of_order_first_batch_disarms(self):
        table = UserSlotTable()
        table.intern([3, 1, 2])
        assert not table.is_identity
        assert table.lookup([1, 2, 3]).tolist() == [1, 2, 0]

    def test_negative_ids_disarm(self):
        table = UserSlotTable()
        table.intern([-5])
        assert not table.is_identity
        assert table.slot_of(-5) == 0

    def test_fast_and_slow_paths_agree(self):
        """Differential: identity lookups == sorted-index lookups."""
        rng = np.random.default_rng(7)
        uids = np.arange(1_000)
        fast = UserSlotTable()
        fast.intern(uids)
        slow = UserSlotTable()
        slow.intern(uids)
        slow._identity = False  # force the searchsorted path on one twin
        assert fast.is_identity
        for _ in range(5):
            probe = rng.integers(-10, 1_200, size=500)
            np.testing.assert_array_equal(fast.lookup(probe), slow.lookup(probe))

    def test_state_preserves_the_flag(self):
        table = UserSlotTable()
        table.intern(np.arange(8))
        assert _reloaded(table).is_identity
        table.intern([99])
        assert not _reloaded(table).is_identity


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


class TestSortedIndexIsLazy:
    """The sorted index costs nothing while the identity path is armed."""

    def test_no_index_while_identity_is_armed(self):
        table = UserSlotTable()
        for lo in range(0, 5_000, 500):
            table.intern(np.arange(lo, lo + 500))
        assert table.is_identity
        assert table._sorted_uids is None  # never built, never copied

    def test_index_is_built_on_the_first_lookup_after_disarming(self):
        table = UserSlotTable()
        table.intern(np.arange(100))
        table.intern([1_000])  # a gap: identity disarms, still no index
        assert not table.is_identity and table._sorted_uids is None
        assert table.lookup([1_000, 5, 100]).tolist() == [100, 5, -1]
        assert table._sorted_uids is not None

    def test_uids_past_the_tail_are_appended_without_reindexing(self):
        table = UserSlotTable()
        table.intern([10, 5])  # out of order: indexed from the start
        table.lookup([5])
        for lo in range(20, 4_000, 100):
            table.intern(np.arange(lo, lo + 100))
            index = table._sorted_uids
        # Amortised growth: the buffer was not reallocated per batch.
        table.intern([4_020])  # the batches above cover 20..4019
        assert table._sorted_uids is index
        probe = np.asarray([5, 10, 20, 4_019, 4_020, 4_021, 15])
        assert table.lookup(probe).tolist() == [1, 0, 2, 4_001, 4_002, -1, -1]

    def test_out_of_order_arrivals_still_merge_correctly(self):
        rng = np.random.default_rng(3)
        uids = rng.permutation(2_000)
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
        assert not table.is_identity  # retiring disarms the fast path
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
