"""Tests for the dynamic active-user set and recycling."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.stream import slots as slots_module
from repro.stream.user_tracker import UserStatus, UserTracker


class TestLifecycle:
    def test_register_makes_active(self):
        tr = UserTracker(w=3)
        tr.register([1, 2])
        assert tr.status(1) is UserStatus.ACTIVE
        assert tr.n_active() == 2

    def test_report_makes_inactive(self):
        tr = UserTracker(w=3)
        tr.register([1])
        tr.mark_reported([1], timestamp=0)
        assert tr.status(1) is UserStatus.INACTIVE
        assert tr.active_users() == []

    def test_quit_is_terminal(self):
        tr = UserTracker(w=3)
        tr.register([1])
        tr.mark_quitted([1])
        assert tr.status(1) is UserStatus.QUITTED
        tr.register([1])  # re-registering a quitted user is a no-op
        assert tr.status(1) is UserStatus.QUITTED

    def test_reported_then_quit_not_recycled(self):
        tr = UserTracker(w=3)
        tr.register([1])
        tr.mark_reported([1], 0)
        tr.mark_quitted([1])
        assert tr.recycle(3) == []
        assert tr.status(1) is UserStatus.QUITTED

    def test_mark_reported_on_quitted_noop(self):
        tr = UserTracker(w=3)
        tr.register([1])
        tr.mark_quitted([1])
        tr.mark_reported([1], 2)  # still inside the w timestamps after the quit
        assert tr.status(1) is UserStatus.QUITTED
        assert tr.report_history(1) == []

    def test_unknown_user_raises(self):
        tr = UserTracker(w=3)
        with pytest.raises(ConfigurationError):
            tr.status(42)

    def test_invalid_w(self):
        with pytest.raises(ConfigurationError):
            UserTracker(0)


class TestRecycling:
    def test_recycled_exactly_w_later(self):
        tr = UserTracker(w=3)
        tr.register([1])
        tr.mark_reported([1], 2)
        assert tr.recycle(3) == []
        assert tr.recycle(4) == []
        assert tr.recycle(5) == [1]  # 5 - 3 == 2, the report timestamp
        assert tr.status(1) is UserStatus.ACTIVE

    def test_recycle_early_timestamps_noop(self):
        tr = UserTracker(w=5)
        tr.register([1])
        tr.mark_reported([1], 0)
        assert tr.recycle(2) == []

    def test_only_latest_report_counts(self):
        tr = UserTracker(w=3)
        tr.register([1])
        tr.mark_reported([1], 0)
        tr.recycle(3)
        tr.mark_reported([1], 3)
        # Old report at 0 must not trigger recycling at t=3+... only t=6 does.
        assert tr.recycle(4) == []
        assert tr.recycle(6) == [1]

    def test_report_history_tracked(self):
        tr = UserTracker(w=2)
        tr.register([9])
        tr.mark_reported([9], 1)
        tr.recycle(3)
        tr.mark_reported([9], 3)
        assert tr.report_history(9) == [1, 3]

    def test_report_history_cache_sees_later_reports(self):
        """The lazily built history index must refresh after new rounds."""
        tr = UserTracker(w=2)
        tr.register([9, 10])
        tr.mark_reported([9], 1)
        assert tr.report_history(9) == [1]  # builds the cache
        tr.recycle(3)
        tr.mark_reported([9, 10], 3)  # must invalidate it
        assert tr.report_history(9) == [1, 3]
        assert tr.report_history(10) == [3]

    def test_float_uid_rejected_not_aliased(self):
        """status(7.5) must raise, never return user 7's status."""
        tr = UserTracker(w=3)
        tr.register([7])
        with pytest.raises(ConfigurationError):
            tr.status(7.5)
        with pytest.raises(ConfigurationError):
            tr.register([7.5])
        with pytest.raises(ConfigurationError):
            tr.active_mask([7.5])


class TestWEventInvariant:
    def test_never_two_reports_within_window(self):
        """Simulate the Algorithm 1 discipline; gaps must be >= w."""
        rng = np.random.default_rng(0)
        w = 4
        tr = UserTracker(w=w)
        tr.register(range(30))
        for t in range(60):
            tr.recycle(t)
            active = tr.active_users()
            chosen = [u for u in active if rng.random() < 0.5]
            tr.mark_reported(chosen, t)
        for u in range(30):
            hist = tr.report_history(u)
            gaps = [b - a for a, b in zip(hist, hist[1:])]
            assert all(g >= w for g in gaps), (u, hist)


# ---------------------------------------------------------------------- #
# retirement: quit is terminal for w timestamps, fresh afterwards
# ---------------------------------------------------------------------- #
class _DictTracker:
    """Per-uid model of the tracker's lifecycle rules; it never compacts.

    A user is *forgotten* once QUITTED and unseen for more than ``w``
    timestamps: whatever touches the uid next finds no trace of it.
    """

    def __init__(self, w):
        self.w, self.clock, self.users = w, 0, {}

    def _get(self, uid):
        user = self.users.get(uid)
        if (
            user is not None
            and user["status"] == "quitted"
            and user["idle_since"] < self.clock - self.w
        ):
            del self.users[uid]
            return None
        return user

    def _get_or_create(self, uid):
        user = self._get(uid)
        if user is None:
            user = self.users[uid] = {"status": None, "last": None, "history": []}
        return user

    def register(self, uids):
        for uid in uids:
            user = self._get_or_create(uid)
            if user["status"] == "quitted":
                user["idle_since"] = self.clock
            else:
                user["status"] = "active"

    def mark_quitted(self, uids):
        for uid in uids:
            user = self._get_or_create(uid)
            user["status"], user["idle_since"] = "quitted", self.clock

    def mark_reported(self, uids, t):
        self.clock = max(self.clock, t)
        for uid in uids:
            user = self._get_or_create(uid)
            if user["status"] != "quitted":
                user["status"], user["last"] = "inactive", t
                user["history"].append(t)

    def recycle(self, t):
        self.clock = max(self.clock, t)
        out = []
        for uid, user in self.users.items():
            if user["status"] == "inactive" and user["last"] == t - self.w:
                user["status"] = "active"
                out.append(uid)
        return out

    def status(self, uid):
        user = self._get(uid)
        return None if user is None else user["status"]

    def sight(self, uid):
        """What ``active_mask`` does to one participant."""
        user = self._get(uid)
        if user is not None and user["status"] == "quitted":
            user["idle_since"] = self.clock
        return user is not None and user["status"] == "active"

    def known(self):
        return sorted(u for u in list(self.users) if self._get(u) is not None)


class TestRetirement:
    def test_quit_is_terminal_for_w_timestamps_then_fresh(self):
        tr = UserTracker(w=3)
        tr.register([1])
        tr.mark_reported([1], 0)
        tr.mark_quitted([1])
        for t in (1, 2, 3):
            tr.recycle(t)
            tr.register([1])  # terminal — and each return counts as seen
        assert tr.status(1) is UserStatus.QUITTED
        tr.recycle(7)  # last seen at 3: more than w timestamps ago
        with pytest.raises(ConfigurationError):
            tr.status(1)
        tr.register([1])
        assert tr.status(1) is UserStatus.ACTIVE
        assert tr.report_history(1) == []  # the old life left no trace

    def test_a_quitted_user_who_keeps_showing_up_is_not_forgotten(self):
        tr = UserTracker(w=2)
        tr.register([5])
        tr.mark_quitted([5])
        for t in range(1, 12):
            tr.recycle(t)
            assert tr.active_mask([5]).tolist() == [False]
        assert tr.status(5) is UserStatus.QUITTED

    def test_compaction_reclaims_forgotten_rows_and_their_history(self):
        with mock.patch.object(slots_module, "_MIN_COMPACT_ROWS", 4):
            tr = UserTracker(w=2)
            tr.register(np.arange(6))
            tr.mark_reported(np.arange(6), 0)
            tr.mark_quitted(np.arange(4))
            tr.recycle(5)
            tr.register(np.arange(10, 20))  # the table has doubled ...
            tr.register([20])  # ... so the next admission reclaims rows 0-3
            assert tr.n_retired == 4
            assert tr.n_rows == 13
            assert tr.known_users() == [4, 5] + list(range(10, 21))
            assert tr.report_history(2) == [] and tr.report_history(4) == [0]
            assert tr.status(4) is UserStatus.INACTIVE  # columns moved with it

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_model_whatever_the_compaction_timing(self, seed):
        """Churn with returning uids: the columnar tracker (which compacts
        whenever its table doubles past 4 rows) and the dict model (which
        never does) agree on every status, mask and history."""
        self._churn_against_model(seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_the_model_churn_does_retire_rows(self, seed):
        assert self._churn_against_model(seed).n_retired > 0

    @staticmethod
    def _churn_against_model(seed):
        with mock.patch.object(slots_module, "_MIN_COMPACT_ROWS", 4):
            return TestRetirement._churn(random.Random(seed))

    @staticmethod
    def _churn(rnd):
        w = rnd.randint(1, 4)
        tr, model = UserTracker(w=w), _DictTracker(w)
        t = next_uid = 0
        for _ in range(12 * w):
            t += rnd.choice((1, 1, 1, 2, w + 2))
            entered = list(range(next_uid, next_uid + rnd.randint(0, 3)))
            next_uid += len(entered)
            if next_uid and rnd.random() < 0.5:  # someone comes back
                entered.append(rnd.randrange(next_uid))
            tr.register(entered)
            model.register(entered)
            assert sorted(tr.recycle(t)) == sorted(model.recycle(t))
            participants = [u for u in model.known() if rnd.random() < 0.7]
            mask = tr.active_mask(participants).tolist()
            assert mask == [model.sight(u) for u in participants]
            reporters = [
                u for u, a in zip(participants, mask) if a and rnd.random() < 0.5
            ]
            if rnd.random() < 0.2 and participants:
                reporters.append(participants[0])  # maybe not active
            tr.mark_reported(reporters, t)
            model.mark_reported(reporters, t)
            quitters = [u for u in participants if rnd.random() < 0.3]
            tr.mark_quitted(quitters)
            model.mark_quitted(quitters)
            assert sorted(tr.known_users()) == model.known()
            for uid in range(next_uid):
                expected = model.status(uid)
                if expected is None:
                    with pytest.raises(ConfigurationError):
                        tr.status(uid)
                else:
                    assert tr.status(uid).value == expected
                    assert tr.report_history(uid) == (
                        model.users[uid]["history"]
                    )
        return tr
