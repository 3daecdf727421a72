"""The schedule ledger: an O(w) bound, checked against the per-user oracle.

:class:`ScheduleLedger` charges a round's ``ε_t`` once and refuses a
round whose reporters repeat or whose window total would pass ``ε``.  Its
window total is an upper bound on every user's window spend, so whenever
it accepts a round the dict ledger — which keeps every spend of every
user — must accept it too, and its ``max_window_spend`` can never be
below the dict ledger's.  When one uid reports in every round, the two
are equal.  Spends are dyadic, so the sums are exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from test_accountant_model import churn_schedules

from repro.core.retrasyn import RetraSynConfig
from repro.exceptions import ConfigurationError, PrivacyBudgetError
from repro.ldp.accountant import (
    ColumnarPrivacyAccountant,
    ScheduleLedger,
    make_ledger,
    require_distinct,
    uses_schedule_ledger,
)

from reference.ledger import PrivacyAccountant


def _spend(ledger, uids, t, eps):
    ledger.spend_many(np.asarray(uids, dtype=np.int64), t, eps)


# ---------------------------------------------------------------------- #
# unit behaviour
# ---------------------------------------------------------------------- #
class TestRefusals:
    @pytest.mark.parametrize(
        "uids", [[1, 1, 2], [1, 2, 2, 3], [3, 1, 2, 1], [9, 4, 9]],
        ids=["sorted-head", "sorted-tail", "unsorted", "unsorted-ends"],
    )
    def test_a_repeated_uid_is_refused_and_nothing_recorded(self, uids):
        ledger = ScheduleLedger(1.0, w=3)
        _spend(ledger, [1, 2, 3], 0, 0.25)
        before = ledger.state()
        with pytest.raises(PrivacyBudgetError, match="reports more than once at t=1"):
            _spend(ledger, uids, 1, 0.25)
        after = ledger.state()
        assert after.pop("n_refusals") == before.pop("n_refusals") + 1
        np.testing.assert_array_equal(after.pop("ring"), before.pop("ring"))
        np.testing.assert_array_equal(after.pop("col_t"), before.pop("col_t"))
        assert after == before

    def test_distinct_batches_pass_in_any_order(self):
        require_distinct(np.asarray([5, 1, 3, 2], dtype=np.int64), 0)
        require_distinct(np.asarray([1, 2, 3], dtype=np.int64), 0)
        require_distinct(np.asarray([7], dtype=np.int64), 0)

    def test_the_window_refuses_what_would_pass_epsilon(self):
        ledger = ScheduleLedger(1.0, w=3)
        _spend(ledger, [1], 0, 0.5)
        _spend(ledger, [2], 1, 0.25)
        with pytest.raises(PrivacyBudgetError, match="round t=2 would charge 1.250000"):
            _spend(ledger, [3], 2, 0.5)
        assert ledger.n_reports == 2 and ledger.n_refusals == 1
        _spend(ledger, [3], 2, 0.25)  # fits exactly
        assert ledger.max_window_spend() == 1.0
        _spend(ledger, [4], 3, 0.5)  # t=0 has left the window
        assert ledger.max_window_spend() == 1.0
        assert ledger.verify()

    def test_admit_raises_like_spend_many_and_records_nothing(self):
        ledger = ScheduleLedger(1.0, w=2)
        _spend(ledger, [1, 2], 0, 0.75)
        with pytest.raises(PrivacyBudgetError):
            ledger.admit(np.asarray([5]), 1, 0.5)
        ledger.admit(np.asarray([5]), 1, 0.25)
        assert ledger.n_reports == 2 and ledger._frontier == 0

    def test_bad_ids_and_budgets_are_configuration_errors(self):
        ledger = ScheduleLedger(1.0, w=2)
        with pytest.raises(ConfigurationError):
            ledger.spend_many(np.asarray([1.5]), 0, 0.5)
        with pytest.raises(ConfigurationError):
            _spend(ledger, [1], 0, -0.1)
        with pytest.raises(ConfigurationError):
            ScheduleLedger(0.0, w=2)
        with pytest.raises(ConfigurationError):
            ScheduleLedger(1.0, w=0)


class TestTimestamps:
    def test_a_free_spend_is_a_no_op(self):
        ledger = ScheduleLedger(1.0, w=2)
        _spend(ledger, [1, 1], 0, 0.0)  # not even the duplicate is looked at
        _spend(ledger, [], 0, 0.5)
        assert ledger.n_reports == 0 and ledger._frontier is None

    def test_out_of_order_timestamps_are_refused(self):
        ledger = ScheduleLedger(1.0, w=3)
        _spend(ledger, [1], 4, 0.25)
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            _spend(ledger, [1], 3, 0.25)
        _spend(ledger, [2], 4, 0.25)  # the same round twice: both charged
        assert ledger.max_window_spend() == 0.5

    def test_a_gap_longer_than_w_clears_the_window(self):
        ledger = ScheduleLedger(1.0, w=3)
        for t in range(3):
            _spend(ledger, [7], t, 0.25)
        assert ledger.max_window_spend() == 0.75
        _spend(ledger, [7], 40, 1.0)  # every earlier round has left
        _spend(ledger, [8], 42, 0.0)
        with pytest.raises(PrivacyBudgetError):
            _spend(ledger, [8], 42, 0.25)
        _spend(ledger, [8], 43, 0.25)
        assert ledger.max_window_spend() == 1.0


def test_summary_and_state_round_trip():
    ledger = ScheduleLedger(1.0, w=4)
    for t, (uids, eps) in enumerate(
        [([1, 2], 0.125), ([2, 3, 4], 0.25), ([1], 0.125), ([5, 6], 0.25)]
    ):
        _spend(ledger, uids, t, eps)
    assert ledger.summary() == {
        "epsilon": 1.0, "w": 4, "n_reports": 8, "max_window_spend": 0.75,
        "n_violations": 0, "satisfied": True,
    }
    assert ledger.components() == [("ledger", ledger)]
    fresh = ScheduleLedger(1.0, w=4)
    fresh.load_state(ledger.state())
    assert fresh.summary() == ledger.summary()
    assert (fresh.n_rows, fresh.n_retired, fresh.violations) == (0, 0, [])
    for target in (ledger, fresh):  # both continue identically
        with pytest.raises(PrivacyBudgetError):
            _spend(target, [9], 4, 0.5)
        _spend(target, [9], 4, 0.375)
    assert fresh.summary() == ledger.summary()
    assert fresh.summary()["max_window_spend"] == 1.0
    with pytest.raises(ValueError):
        fresh.load_state({**ledger.state(), "ring": np.zeros(3)})


class TestFactory:
    @pytest.mark.parametrize(
        "division, allocator, schedule",
        [
            ("budget", "uniform", True),
            ("budget", "sample", True),
            ("budget", "adaptive", True),
            ("population", "adaptive", False),
        ],
    )
    def test_the_division_picks_the_ledger(self, division, allocator, schedule):
        config = RetraSynConfig(division=division, allocator=allocator)
        ledger = make_ledger(config)
        assert uses_schedule_ledger(config) is schedule
        expected = ScheduleLedger if schedule else ColumnarPrivacyAccountant
        assert type(ledger) is expected


# ---------------------------------------------------------------------- #
# the bound against the per-user oracle
# ---------------------------------------------------------------------- #
def _replay(w, rounds, always=None):
    """Feed both ledgers every round the schedule accepts."""
    schedule = ScheduleLedger(1.0, w)
    oracle = PrivacyAccountant(1.0, w)
    t = 0
    for gap, uids, eps in rounds:
        t += gap
        if always is not None:
            uids = [always] + list(uids)
        try:
            _spend(schedule, uids, t, eps)
        except PrivacyBudgetError:
            continue
        _spend(oracle, uids, t, eps)  # accepted above ⇒ accepted here
        assert oracle.max_window_spend() <= schedule.max_window_spend() + 1e-9
    return schedule, oracle


@given(churn_schedules())
@settings(max_examples=60, deadline=None)
def test_schedule_acceptance_implies_oracle_acceptance(schedule):
    w, _strict, rounds = schedule
    ledger, oracle = _replay(w, rounds)
    assert ledger.n_reports == oracle.n_spend_events
    assert oracle.verify() and ledger.verify()


@given(churn_schedules())
@settings(max_examples=60, deadline=None)
def test_a_uid_in_every_round_attains_the_bound(schedule):
    w, _strict, rounds = schedule
    ledger, oracle = _replay(w, rounds, always=-1)
    assert ledger.n_reports > 0
    assert oracle.max_window_spend() == ledger.max_window_spend()
