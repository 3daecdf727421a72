"""Tests for w-event privacy accounting.

``TestPrivacyAccountant`` is parametrized over both ledger engines: every
semantic assertion must hold for the dict reference *and* the columnar
ring-buffer ledger (deeper cross-engine checks live in
``test_accountant_differential.py``).
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, PrivacyBudgetError
from repro.ldp.accountant import (
    PrivacyAccountant as ObjectPrivacyAccountant,
    SlidingBudgetTracker,
    make_accountant,
)


@pytest.fixture(params=["object", "columnar"])
def PrivacyAccountant(request):  # noqa: N802 - reads like the class it builds
    """Both engines behind the reference constructor signature: the dict
    ledger itself, and the curator's ledger as ``make_accountant`` builds it."""
    if request.param == "object":
        return ObjectPrivacyAccountant

    def build(epsilon, w, strict=True):
        return make_accountant(epsilon, w, mode=request.param, strict=strict)

    return build


class TestPrivacyAccountant:
    def test_single_spend_ok(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=1.0, w=3)
        acc.spend(1, 0, 1.0)
        assert acc.verify()

    def test_overspend_same_timestamp_raises(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=1.0, w=3)
        acc.spend(1, 0, 0.6)
        with pytest.raises(PrivacyBudgetError):
            acc.spend(1, 0, 0.6)

    def test_overspend_within_window_raises(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=1.0, w=3)
        acc.spend(1, 0, 0.6)
        with pytest.raises(PrivacyBudgetError):
            acc.spend(1, 2, 0.6)

    def test_spend_outside_window_ok(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=1.0, w=3)
        acc.spend(1, 0, 1.0)
        acc.spend(1, 3, 1.0)  # window [1..3] contains only the second spend
        assert acc.verify()
        assert acc.max_window_spend() == pytest.approx(1.0)

    def test_different_users_independent(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=1.0, w=5)
        acc.spend(1, 0, 1.0)
        acc.spend(2, 0, 1.0)
        assert acc.verify()

    def test_strict_refusal_leaves_ledger_clean(self, PrivacyAccountant):
        """A refused spend never happened: the ledger must still verify."""
        acc = PrivacyAccountant(epsilon=1.0, w=6)
        for t, a in enumerate([0.125, 0.125, 0.1875, 0.1875, 0.1875]):
            acc.spend(0, t, a)
        with pytest.raises(PrivacyBudgetError):
            acc.spend(0, 5, 0.1953125)  # would tip the window over 1.0
        assert acc.verify()
        assert acc.violations == []

    def test_uniform_budget_division_fills_window_exactly(self, PrivacyAccountant):
        w, eps = 4, 1.0
        acc = PrivacyAccountant(eps, w)
        for t in range(20):
            acc.spend(7, t, eps / w)
        assert acc.verify()
        assert acc.max_window_spend() == pytest.approx(eps)

    def test_non_strict_records_violations(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=1.0, w=3, strict=False)
        acc.spend(1, 0, 0.8)
        acc.spend(1, 1, 0.8)  # violation, recorded not raised
        assert not acc.verify()
        assert len(acc.violations) == 1
        uid, t, total = acc.violations[0]
        assert uid == 1 and t == 1 and total == pytest.approx(1.6)

    def test_zero_spend_is_free(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=1.0, w=3)
        for t in range(100):
            acc.spend(1, t, 0.0)
        assert acc.total_spend(1) == 0.0
        assert acc.n_users == 0  # zero spends are not recorded

    def test_negative_spend_rejected(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=1.0, w=3)
        with pytest.raises(ConfigurationError):
            acc.spend(1, 0, -0.1)

    def test_spend_many(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=1.0, w=2)
        acc.spend_many([1, 2, 3], 0, 0.5)
        assert acc.n_users == 3
        assert acc.window_spend(2, 0) == pytest.approx(0.5)

    def test_summary_fields(self, PrivacyAccountant):
        acc = PrivacyAccountant(epsilon=2.0, w=4)
        acc.spend(1, 0, 1.0)
        s = acc.summary()
        assert s["epsilon"] == 2.0
        assert s["w"] == 4
        assert s["n_users"] == 1
        assert s["satisfied"] is True

    def test_invalid_construction(self, PrivacyAccountant):
        with pytest.raises(ConfigurationError):
            PrivacyAccountant(0.0, 3)
        with pytest.raises(ConfigurationError):
            PrivacyAccountant(1.0, 0)


class TestSpendManyDtypes:
    """ISSUE 3 satellite: numpy int arrays in, no silent coercion.

    ``spend_many`` historically required ``.tolist()`` at every call site;
    passing arrays directly must now work for any integer width and must
    *reject* float/object arrays instead of quietly keying the ledger on
    non-int values.
    """

    @pytest.mark.parametrize(
        "dtype", [np.int16, np.int32, np.int64, np.uint32]
    )
    def test_integer_arrays_accepted(self, PrivacyAccountant, dtype):
        acc = PrivacyAccountant(1.0, 3)
        acc.spend_many(np.asarray([1, 2, 3], dtype=dtype), 0, 0.5)
        assert acc.n_users == 3
        # Queries keyed by plain Python ints must see the spends.
        assert acc.window_spend(2, 0) == 0.5
        assert sorted(acc.user_ids()) == [1, 2, 3]

    def test_object_ledger_keys_are_python_ints(self):
        acc = ObjectPrivacyAccountant(1.0, 3)
        acc.spend_many(np.asarray([5, 6], dtype=np.int64), 0, 0.5)
        acc.spend(np.int64(7), 1, 0.5)
        assert all(type(uid) is int for uid in acc._spends)

    def test_float_array_rejected(self, PrivacyAccountant):
        acc = PrivacyAccountant(1.0, 3)
        with pytest.raises(ConfigurationError):
            acc.spend_many(np.asarray([1.0, 2.0]), 0, 0.5)
        assert acc.n_users == 0

    def test_object_array_rejected(self, PrivacyAccountant):
        acc = PrivacyAccountant(1.0, 3)
        with pytest.raises(ConfigurationError):
            acc.spend_many(np.asarray(["a", "b"], dtype=object), 0, 0.5)

    def test_float_scalar_uid_rejected(self, PrivacyAccountant):
        acc = PrivacyAccountant(1.0, 3)
        with pytest.raises(ConfigurationError):
            acc.spend(1.5, 0, 0.5)

    def test_uint64_overflow_rejected(self, PrivacyAccountant):
        """ids above int64 max must raise, not wrap to negative keys."""
        acc = PrivacyAccountant(1.0, 3)
        with pytest.raises(ConfigurationError):
            acc.spend_many(np.asarray([2**63 + 5], dtype=np.uint64), 0, 0.5)
        assert acc.n_users == 0

    def test_zero_spend_still_validates_uid(self, PrivacyAccountant):
        """Both engines reject a bad uid identically even when ε == 0."""
        acc = PrivacyAccountant(1.0, 3)
        with pytest.raises(ConfigurationError):
            acc.spend(1.5, 0, 0.0)

    def test_generators_still_accepted(self, PrivacyAccountant):
        """Baselines feed generator expressions; they must keep working."""
        acc = PrivacyAccountant(1.0, 3)
        acc.spend_many((u for u in [1, 2, 3]), 0, 0.5)
        assert acc.n_users == 3

    def test_batch_and_scalar_paths_agree(self, PrivacyAccountant):
        a = PrivacyAccountant(1.0, 4)
        b = PrivacyAccountant(1.0, 4)
        a.spend_many(np.asarray([1, 2], dtype=np.int32), 3, 0.25)
        b.spend(1, 3, 0.25)
        b.spend(2, 3, 0.25)
        assert a.summary() == b.summary()


class TestSlidingBudgetTracker:
    def test_initial_remaining_is_full(self):
        tr = SlidingBudgetTracker(1.0, 4)
        assert tr.remaining == pytest.approx(1.0)

    def test_remaining_shrinks_with_commits(self):
        tr = SlidingBudgetTracker(1.0, 4)
        tr.commit(0.3)
        assert tr.remaining == pytest.approx(0.7)
        tr.commit(0.3)
        assert tr.remaining == pytest.approx(0.4)

    def test_window_slides(self):
        tr = SlidingBudgetTracker(1.0, 2)
        tr.commit(1.0)
        assert tr.remaining == pytest.approx(0.0)
        tr.commit(0.0)
        # Oldest (the 1.0) is now outside the next window.
        assert tr.remaining == pytest.approx(1.0)

    def test_over_commit_raises(self):
        tr = SlidingBudgetTracker(1.0, 3)
        tr.commit(0.8)
        with pytest.raises(PrivacyBudgetError):
            tr.commit(0.3)

    def test_negative_commit_rejected(self):
        tr = SlidingBudgetTracker(1.0, 3)
        with pytest.raises(ConfigurationError):
            tr.commit(-0.1)

    def test_uniform_commits_sustainable_forever(self):
        w = 5
        tr = SlidingBudgetTracker(1.0, w)
        for _ in range(50):
            tr.commit(1.0 / w)
        assert tr.remaining == pytest.approx(1.0 / w)

    def test_window_history_order(self):
        tr = SlidingBudgetTracker(1.0, 3)
        tr.commit(0.1)
        tr.commit(0.2)
        assert tr.window_history() == [0.0, 0.1, 0.2]
