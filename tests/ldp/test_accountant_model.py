"""Model-based test: the swept, self-compacting ledger against the dict ledger.

``PrivacyAccountant`` keeps every spend of every user forever, so it is
the model of what the columnar ledger must still answer after it has
swept columns, retired rows to the audit archive and re-admitted
returning uids as fresh rows.  Spends are dyadic, so every sum is exact
and equality is ``==``, not ``approx``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PrivacyBudgetError
from repro.ldp import accountant as accountant_module
from repro.ldp.accountant import ColumnarPrivacyAccountant
from repro.stream import slots as slots_module

from reference.ledger import PrivacyAccountant

#: Dyadic spends: window sums stay exact in binary floating point.
SPENDS = (0.125, 0.25, 0.5)


@st.composite
def churn_schedules(draw):
    """``(w, strict, rounds)``; a round is ``(gap, uids, epsilon)``.

    The population drifts: round ``r`` draws its spenders from uids
    ``r..r+3``, and time advances at least one timestamp per round, so
    whatever else is drawn, users fall idle for more than ``w`` timestamps
    and the doubling table must retire them within 10·w rounds.  On top of
    that: batches may repeat a uid, a round may be followed by a second
    batch at the same timestamp (gap 0), gaps run to beyond the whole
    window, and every fifth round pulls *returning* uids from the far past.
    """
    w = draw(st.integers(2, 5))
    strict = draw(st.booleans())
    rounds = []
    for r in range(10 * w + draw(st.integers(0, 8))):
        gap = draw(st.sampled_from((1, 1, 1, 2, w + 2)))
        uids = draw(st.lists(st.integers(r, r + 3), min_size=1, max_size=6))
        if r % 5 == 4 and r > w + 6:
            uids += draw(st.lists(st.integers(0, r - w - 6), max_size=2))
        rounds.append((gap, uids, draw(st.sampled_from(SPENDS))))
        if draw(st.integers(0, 3)) == 0:  # a second batch at the same t
            again = draw(st.lists(st.integers(r, r + 3), min_size=1, max_size=3))
            rounds.append((0, again, draw(st.sampled_from(SPENDS))))
    return w, strict, rounds


def _spend(ledger, uids, t, eps):
    """The refusal message, or ``None`` when the batch was accepted."""
    try:
        ledger.spend_many(np.asarray(uids, dtype=np.int64), t, eps)
    except PrivacyBudgetError as exc:
        return str(exc)
    return None


@given(churn_schedules())
@settings(max_examples=40, deadline=None)
def test_ledger_matches_dict_model_through_retirement(schedule):
    w, strict, rounds = schedule
    with mock.patch.object(slots_module, "_MIN_COMPACT_ROWS", 4):
        model = PrivacyAccountant(1.0, w, strict=strict)
        ledger = ColumnarPrivacyAccountant(1.0, w, strict=strict)
        t = 0
        everyone: set[int] = set()
        for gap, uids, eps in rounds:
            t += gap
            everyone.update(uids)
            assert _spend(ledger, uids, t, eps) == _spend(model, uids, t, eps)
            assert ledger.violations == model.violations
            probe = np.asarray(sorted(everyone), dtype=np.int64)
            for at in (t, t + 1, t + w - 1):
                np.testing.assert_array_equal(
                    ledger.window_spend_many(probe, at),
                    model.window_spend_many(probe, at),
                )
            assert ledger.max_window_spend() == model.max_window_spend()
            assert ledger.n_users == model.n_users
            assert ledger.n_spend_events == model.n_spend_events
            assert ledger.n_refusals == model.n_refusals
        assert sorted(ledger.user_ids()) == sorted(model.user_ids())
        assert len(set(ledger.user_ids())) == len(ledger.user_ids())
        for uid in sorted(everyone):
            assert ledger.total_spend(uid) == model.total_spend(uid)
        assert ledger.summary() == model.summary()
        # The population drifted for >= 10·w rounds: rows were retired.
        assert ledger.n_retired > 0


def test_returning_uid_is_a_fresh_row_with_its_history_archived():
    with mock.patch.object(slots_module, "_MIN_COMPACT_ROWS", 4):
        ledger = ColumnarPrivacyAccountant(1.0, w=2)
        ledger.spend_many(np.arange(4), 0, 0.5)
        # t=5: every window holding t=0 has closed; all four rows retire.
        ledger.spend_many(np.arange(10, 14), 5, 0.5)
        assert ledger.n_retired == 4 and ledger.n_rows == 4
        assert ledger.window_spend(2, 5) == 0.0
        assert ledger.total_spend(2) == 0.5
        ledger.spend(2, 6, 0.25)  # returns: a fresh row, window empty
        assert ledger.window_spend(2, 6) == 0.25
        assert ledger.total_spend(2) == 0.75
        assert ledger.n_users == 8
        assert sorted(ledger.user_ids()) == [0, 1, 2, 3, 10, 11, 12, 13]


def test_frontier_gap_sweeps_skipped_timestamps():
    """A jump of more than ``w`` clears every column, not just ``t % w``."""
    ledger = ColumnarPrivacyAccountant(1.0, w=3)
    for t in range(3):
        ledger.spend(7, t, 0.25)
    assert ledger.window_spend(7, 2) == 0.75
    ledger.spend(7, 40, 0.5)
    assert ledger.window_spend(7, 40) == 0.5
    assert ledger.window_spend(7, 42) == 0.5
    assert ledger.window_spend(7, 43) == 0.0


def test_queries_ahead_of_the_frontier_do_not_move_it():
    ledger = ColumnarPrivacyAccountant(1.0, w=3)
    ledger.spend(1, 0, 0.5)
    assert ledger.window_spend(1, 2) == 0.5
    assert ledger.window_spend(1, 3) == 0.0
    ledger.spend(1, 1, 0.25)  # t=1 is still spendable after asking about t=3
    assert ledger.window_spend(1, 2) == 0.75


def test_refused_batch_keeps_its_prefix_and_the_running_maximum():
    ledger = ColumnarPrivacyAccountant(1.0, w=4)
    ledger.spend_many([1, 2, 3], 0, 0.75)
    with pytest.raises(PrivacyBudgetError, match="user 2 would spend 1.250000"):
        ledger.spend_many([9, 2, 3], 1, 0.5)
    assert ledger.window_spend(9, 1) == 0.5  # recorded before the refusal
    assert ledger.window_spend(3, 1) == 0.75  # after it: not recorded
    assert ledger.max_window_spend() == 0.75
    assert ledger.verify()


# ---------------------------------------------------------------------- #
# window totals: the dense and the sparse route, to the bit
# ---------------------------------------------------------------------- #
#: Spends whose sums round: only one accumulation order gives these bits.
ROUNDING_SPENDS = (0.1, 0.07, 0.013)

#: ``_DENSE_BATCH_SHARE`` values that force a route, beside the real switch.
_ROUTES = {
    "dense": 10**9, "sparse": 0, "switch": accountant_module._DENSE_BATCH_SHARE
}


def _routed(route, call, *args):
    with mock.patch.object(accountant_module, "_DENSE_BATCH_SHARE", _ROUTES[route]):
        return call(*args)


def _ring_order_totals(ledger, uids, t):
    """Scalar reference: add the in-window ring columns, column 0 first."""
    out = []
    for slot in ledger._slots.lookup(uids).tolist():
        total = 0.0
        for column, held in zip(ledger._ring.data, ledger._col_t.tolist()):
            if slot >= 0 and t - ledger.w < held <= t:
                total += float(column[slot])
        out.append(total)
    return np.asarray(out)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
    st.booleans(),
    st.sampled_from((1, 2, 7, 8, 9, 64)),
)
@settings(max_examples=60, deadline=None)
def test_dense_and_sparse_window_totals_are_bit_identical(seed, w, strict, ratio):
    """Same spends, refusals, violations and totals whichever route sums them.

    Batches run from one spender in 64 to the whole table (the switch sits
    at one in 8), repeat uids, and are queried at the frontier and ahead
    of it, where the columns that left the window are masked out.
    """
    rng = np.random.default_rng(seed)
    n = 64
    ledgers = {
        route: ColumnarPrivacyAccountant(0.5, w, strict=strict) for route in _ROUTES
    }
    for ledger in ledgers.values():
        ledger.spend_many(np.arange(n), 0, 0.001)  # the table: n resident rows
    t = 0
    for _ in range(2 * w + 3):
        t += int(rng.choice((0, 1, 1, 1, 2, w + 1)))
        uids = rng.integers(0, n, size=max(1, n // ratio))  # repeats happen
        eps = float(rng.choice(ROUNDING_SPENDS))
        refusals = {
            route: _routed(route, _spend, ledger, uids, t, eps)
            for route, ledger in ledgers.items()
        }
        assert refusals["dense"] == refusals["sparse"] == refusals["switch"]
        probe = rng.integers(0, n + 2, size=max(1, n // ratio))  # two unknown
        for route, ledger in ledgers.items():
            assert ledger.violations == ledgers["dense"].violations
            assert ledger.max_window_spend() == ledgers["dense"].max_window_spend()
            for at in (t, t + 1, t + w - 1, t + w):
                got = _routed(route, ledger.window_spend_many, probe, at)
                expected = _ring_order_totals(ledger, probe, at)
                assert got.tobytes() == expected.tobytes(), (route, at)
