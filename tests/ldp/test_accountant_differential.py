"""ISSUE 3 differential suite: columnar ledger ≡ object ledger.

Seeded random spend/recycle schedules are replayed through both accountant
engines, asserting identical spends, refusals, violations and window
totals at every timestamp — including w-boundary and re-registered-uid
edge cases, duplicate ids inside one batch, and partial-prefix recording
on a strict refusal.

Spend values are dyadic rationals (k/64): exact in binary floating point,
so partial sums are identical regardless of summation order and every
comparison below can be **exact** (`==`), not approximate.  Any drift
between the two engines is a real semantic divergence, not float noise.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, PrivacyBudgetError
from repro.ldp.accountant import (
    ACCOUNTANT_MODES,
    ColumnarPrivacyAccountant,
    PrivacyAccountant,
    make_accountant,
)
from repro.stream.slots import UserSlotTable
from repro.stream.user_tracker import UserTracker


def _pair(epsilon, w, strict=True):
    return (
        PrivacyAccountant(epsilon, w, strict=strict),
        ColumnarPrivacyAccountant(epsilon, w, strict=strict),
    )


def _assert_same_state(obj, col, pool, t):
    """Full audit-surface equality at timestamp ``t`` over a uid pool."""
    ws_obj = obj.window_spend_many(pool, t)
    ws_col = col.window_spend_many(pool, t)
    assert ws_obj.tolist() == ws_col.tolist()
    assert obj.remaining_many(pool, t).tolist() == col.remaining_many(pool, t).tolist()
    for uid in pool:
        assert obj.window_spend(uid, t) == col.window_spend(uid, t)
        assert obj.total_spend(uid) == col.total_spend(uid)
    assert obj.n_users == col.n_users
    assert sorted(obj.user_ids()) == sorted(col.user_ids())
    assert obj.max_window_spend() == col.max_window_spend()
    assert obj.violations == col.violations
    assert obj.verify() == col.verify()
    assert obj.summary() == col.summary()


def _random_schedule(seed, n_rounds, pool, w):
    """Per-round (uids, epsilon) batches with dyadic spend values."""
    rng = np.random.default_rng(seed)
    rounds = []
    for _t in range(n_rounds):
        size = int(rng.integers(0, len(pool) + 1))
        uids = rng.choice(pool, size=size, replace=False)
        if rng.random() < 0.3 and size:
            # Occasionally duplicate some ids inside the batch.
            extra = rng.choice(uids, size=int(rng.integers(1, 3)))
            uids = np.concatenate([uids, extra])
        eps_t = int(rng.integers(1, 2 * 64 // w + 2)) / 64.0
        rounds.append((uids.astype(np.int64), eps_t))
    return rounds


class TestRandomSchedules:
    @pytest.mark.parametrize("seed", range(6))
    def test_non_strict_schedules_identical(self, seed):
        """Violations are recorded, never raised: full ledger equality."""
        w, eps = 4, 1.0
        pool = np.arange(1000, 1012, dtype=np.int64)
        obj, col = _pair(eps, w, strict=False)
        for t, (uids, eps_t) in enumerate(_random_schedule(seed, 30, pool, w)):
            obj.spend_many(uids, t, eps_t)
            col.spend_many(uids, t, eps_t)
            _assert_same_state(obj, col, pool, t)
        assert col.violations  # schedules are hot enough to violate

    @pytest.mark.parametrize("seed", range(6))
    def test_strict_schedules_refuse_identically(self, seed):
        """Refusals fire on the same round, same uid, same message — and the
        prefix of the batch recorded before the refusal is identical."""
        w, eps = 5, 0.5
        pool = np.arange(8, dtype=np.int64)
        obj, col = _pair(eps, w, strict=True)
        n_refused = 0
        for t, (uids, eps_t) in enumerate(_random_schedule(seed, 40, pool, w)):
            err_obj = err_col = None
            try:
                obj.spend_many(uids, t, eps_t)
            except PrivacyBudgetError as e:
                err_obj = str(e)
            try:
                col.spend_many(uids, t, eps_t)
            except PrivacyBudgetError as e:
                err_col = str(e)
            assert err_obj == err_col, (t, err_obj, err_col)
            n_refused += err_obj is not None
            _assert_same_state(obj, col, pool, t)
        assert n_refused > 0  # schedules are hot enough to refuse
        assert obj.verify() and col.verify()  # refused spends never happened


class TestRecycleSchedules:
    def test_population_division_with_shared_tracker(self):
        """Algorithm-1 style: register → recycle → sample → report → spend.

        The columnar accountant shares one slot table with the tracker
        (the unsharded curator's layout); the object ledger runs beside
        them as the reference.  Users re-registering after quitting peers
        and w-spaced full-ε spends must account identically.
        """
        w, eps = 3, 1.0
        rng = np.random.default_rng(7)
        table = UserSlotTable()
        tracker = UserTracker(w, slots=table)
        col = ColumnarPrivacyAccountant(eps, w, slots=table)
        obj = PrivacyAccountant(eps, w)
        pool = np.arange(40, dtype=np.int64)
        tracker.register(pool[:25])
        n_known = 25
        for t in range(25):
            if t % 5 == 0 and n_known < len(pool):  # late arrivals
                tracker.register(pool[n_known : n_known + 5])
                n_known += 5
            tracker.recycle(t)
            active = np.asarray(tracker.active_users(), dtype=np.int64)
            chosen = active[rng.random(active.size) < 0.5]
            tracker.mark_reported(chosen, t)
            obj.spend_many(chosen, t, eps)
            col.spend_many(chosen, t, eps)
            _assert_same_state(obj, col, pool, t)
        assert obj.verify() and col.verify()
        assert col.max_window_spend() == eps

    def test_active_mask_consistent_with_status_loop(self):
        """Vectorized active_mask over a shared table ≡ per-uid status."""
        table = UserSlotTable()
        tracker = UserTracker(3, slots=table)
        col = ColumnarPrivacyAccountant(1.0, 3, slots=table)
        tracker.register([1, 2, 3, 4])
        tracker.mark_reported([2, 3], 0)
        tracker.mark_quitted([4])
        col.spend_many(np.asarray([2, 3]), 0, 1.0)
        mask = tracker.active_mask([1, 2, 3, 4])
        assert mask.tolist() == [
            tracker.status(u).value == "active" for u in [1, 2, 3, 4]
        ]

    def test_accountant_interned_uid_is_still_unknown_to_tracker(self):
        """Sharing the table must not leak accountant-only users into the
        tracker's known set."""
        table = UserSlotTable()
        tracker = UserTracker(3, slots=table)
        col = ColumnarPrivacyAccountant(1.0, 3, slots=table)
        col.spend(99, 0, 0.5)
        with pytest.raises(ConfigurationError):
            tracker.status(99)
        with pytest.raises(ConfigurationError):
            tracker.active_mask(np.asarray([99]))
        assert 99 not in tracker.known_users()
        assert tracker.n_known() == 0


class TestEdgeCases:
    def test_w_boundary_exact(self):
        """A full-ε respend is legal exactly at t + w, not at t + w − 1."""
        for t0 in (0, 3):
            obj, col = _pair(1.0, 4)
            for acc in (obj, col):
                acc.spend(5, t0, 1.0)
                with pytest.raises(PrivacyBudgetError):
                    acc.spend(5, t0 + 4 - 1, 1.0)
                acc.spend(5, t0 + 4, 1.0)  # window slid: legal
                assert acc.verify()
                assert acc.max_window_spend() == 1.0
                assert acc.total_spend(5) == 2.0

    def test_reregistered_uid_many_windows(self):
        """A uid recycling through many windows accounts identically."""
        obj, col = _pair(1.0, 5)
        for k in range(10):
            obj.spend(77, 5 * k, 1.0)
            col.spend(77, 5 * k, 1.0)
        _assert_same_state(obj, col, np.asarray([77]), 45)
        assert col.total_spend(77) == 10.0

    def test_duplicate_uid_in_batch_sequential_semantics(self):
        """The k-th duplicate sees the window left by the first k−1."""
        obj, col = _pair(1.0, 3, strict=False)
        batch = np.asarray([9, 9, 9, 8], dtype=np.int64)
        obj.spend_many(batch, 0, 0.625)
        col.spend_many(batch, 0, 0.625)
        _assert_same_state(obj, col, np.asarray([8, 9]), 0)
        # occurrences 2 (1.25) and 3 (1.875) of uid 9 exceed 1.0: two
        # violations, in batch-row order; uid 8 stays clean.
        assert [v[0] for v in col.violations] == [9, 9]

    def test_duplicate_uid_strict_prefix_recorded(self):
        """Strict refusal mid-batch keeps the already-recorded prefix."""
        batch = np.asarray([3, 9, 9, 4], dtype=np.int64)
        obj, col = _pair(1.0, 3, strict=True)
        msgs = []
        for acc in (obj, col):
            with pytest.raises(PrivacyBudgetError) as exc:
                acc.spend_many(batch, 2, 0.75)
            msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]
        # uid 3 and the first occurrence of 9 were recorded; 4 never was.
        _assert_same_state(obj, col, np.asarray([3, 4, 9]), 2)
        assert col.window_spend(3, 2) == 0.75
        assert col.window_spend(9, 2) == 0.75
        assert col.window_spend(4, 2) == 0.0

    def test_zero_and_negative_spends(self):
        obj, col = _pair(1.0, 3)
        for acc in (obj, col):
            acc.spend_many(np.asarray([1, 2]), 0, 0.0)
            assert acc.n_users == 0
            with pytest.raises(ConfigurationError):
                acc.spend_many(np.asarray([1, 2]), 0, -0.25)

    def test_empty_batch_is_free(self):
        obj, col = _pair(1.0, 3)
        for acc in (obj, col):
            acc.spend_many(np.empty(0, dtype=np.int64), 0, 0.5)
            assert acc.n_users == 0

    def test_columnar_requires_monotone_timestamps(self):
        """Documented divergence: the ring ledger keeps only the live
        window, so out-of-order spends are rejected instead of silently
        corrupting recycled cells.  The object reference accepts them."""
        obj, col = _pair(1.0, 3)
        obj.spend(1, 5, 0.25)
        obj.spend(1, 2, 0.25)  # reference: order-free
        col.spend(1, 5, 0.25)
        with pytest.raises(ConfigurationError):
            col.spend(1, 2, 0.25)
        col.spend(2, 5, 0.25)  # same-t spends remain fine

    def test_same_timestamp_accumulates(self):
        obj, col = _pair(1.0, 3)
        for acc in (obj, col):
            acc.spend(4, 1, 0.25)
            acc.spend(4, 1, 0.5)
            assert acc.window_spend(4, 1) == 0.75

    def test_unknown_uid_queries_are_zero(self):
        obj, col = _pair(1.0, 3)
        for acc in (obj, col):
            assert acc.window_spend(12345, 0) == 0.0
            assert acc.total_spend(12345) == 0.0
            assert acc.remaining_many(np.asarray([12345]), 0).tolist() == [1.0]


class TestFactory:
    def test_make_accountant_modes(self):
        """The curator's ledger is columnar; the dict ledger is not a mode."""
        assert ACCOUNTANT_MODES == ("columnar",)
        assert isinstance(
            make_accountant(1.0, 3, mode="columnar"), ColumnarPrivacyAccountant
        )
        for mode in ("object", "ledger-9000"):
            with pytest.raises(ConfigurationError):
                make_accountant(1.0, 3, mode=mode)

    def test_shared_slots_honoured(self):
        table = UserSlotTable()
        acc = make_accountant(1.0, 3, slots=table)
        acc.spend(7, 0, 0.5)
        assert table.slot_of(7) == 0
