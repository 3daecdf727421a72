"""Dynamic active-user set with w-window recycling.

Population-division allocation (Algorithm 1) samples reporters from a
*dynamic* active-user set:

* a user becomes **active** when their stream starts (line 1/7);
* after reporting, the user is marked **inactive** (line 14) so they are not
  asked again inside the current privacy window;
* at timestamp ``t`` users who reported at ``t - w`` and have not quit are
  **recycled** back to active (line 9);
* users whose stream ended are **quitted** and never recycled (line 8).

This bookkeeping is exactly what guarantees w-event ε-LDP under population
division: each user reports at most once with full ε inside any window of
``w`` timestamps.

Internally the tracker is columnar end-to-end: uid → row resolution goes
through a :class:`~repro.stream.slots.UserSlotTable` (one gather per batch
on its dense uid map, or one ``searchsorted`` when the uids are too sparse
for it; no per-uid dict scan), and statuses (an int8 code), last-report
and quit timestamps are columns hung on that table, indexed by its dense
slots.  Every lifecycle transition, the hot ``recycle`` scan and
``active_mask`` are single vectorized masks over the resident rows.  A
round resolves its participants once: :meth:`UserTracker.active_slots`
returns their slots with the active mask, and the chosen reporters are
marked by those slots (:meth:`UserTracker.mark_reported_slots`); the
uid-keyed :meth:`~UserTracker.active_mask` and
:meth:`~UserTracker.mark_reported` wrap them.  The table can be
*shared* — the unsharded curator hands the same instance to its columnar
privacy accountant, so a user occupies one row in both planes; slots
interned by the other component stay in an *unknown* state here until
the tracker itself meets the user.

The resident rows are the users who can still act.  A quit is terminal
for ``w`` timestamps: while a QUITTED user was last seen (quit marked, or
presented again as an arrival or a participant) at most ``w``
timestamps ago, re-registering is a no-op.  After that the user is
*forgotten* — the row is released to the table's compaction and its
report-history entries leave with it — and a uid that returns is
admitted as a **fresh arrival**, whether or not compaction has physically
reclaimed the row yet (the rule reads timestamps only, never compaction
timing; the tracker's clock is the latest ``t`` shown to ``recycle`` /
``mark_reported``).  This is privacy-safe: the user's last report is at
or before the quit, so once ``w`` timestamps have passed every window
containing it has closed, and the returning uid cannot report twice
inside one window.  Report histories (an audit/test surface) are flat
``(uid, t)`` arrays.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stream.slots import UserSlotTable, reserve


class UserStatus(enum.Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"
    QUITTED = "quitted"


#: int8 codes backing the status column.  _UNKNOWN marks slots interned into
#: a shared table by another component (e.g. the accountant) that the
#: tracker itself has never been told about.
_ACTIVE, _INACTIVE, _QUITTED, _UNKNOWN = 0, 1, 2, 3
_CODE_TO_STATUS = {
    _ACTIVE: UserStatus.ACTIVE,
    _INACTIVE: UserStatus.INACTIVE,
    _QUITTED: UserStatus.QUITTED,
}
#: Sentinel for "never reported"; smaller than any valid t - w.
_NEVER = np.iinfo(np.int64).min // 2


class UserTracker:
    """Tracks user statuses and performs the t−w recycling rule.

    Parameters
    ----------
    w:
        Privacy-window length.
    slots:
        Optional shared :class:`~repro.stream.slots.UserSlotTable`.  When
        omitted the tracker owns a private table.
    """

    def __init__(self, w: int, slots: Optional[UserSlotTable] = None) -> None:
        if w < 1:
            raise ConfigurationError(f"window size w must be >= 1, got {w}")
        self.w = int(w)
        self._table = slots if slots is not None else UserSlotTable()
        self._status = self._table.add_column("status", np.int8, _UNKNOWN)
        self._last_report = self._table.add_column("last_report", np.int64, _NEVER)
        # QUITTED rows only: when the user was last seen (see _forgotten).
        self._idle_since = self._table.add_column("idle_since", np.int64, _NEVER)
        self._table.attach(self)
        # Latest timestamp shown to recycle()/mark_reported(); sightings
        # are stamped with it (mark_quitted carries no timestamp itself).
        self._clock = 0
        # Report history, columnar: one (uid, timestamp) entry per report
        # of a resident user, in report order.
        self._hist_uid = np.empty(0, dtype=np.int64)
        self._hist_t = np.empty(0, dtype=np.int64)
        self._hist_n = 0

    def components(self) -> list:
        return [("slots", self._table), ("tracker", self)]

    def state(self) -> dict:
        """The clock and report history; the columns are the table's."""
        n = self._hist_n
        return {"clock": self._clock, "hist_uid": self._hist_uid[:n], "hist_t": self._hist_t[:n]}

    def load_state(self, state: dict) -> None:
        self._clock, self._hist_n = int(state["clock"]), state["hist_uid"].size
        self._hist_uid, self._hist_t = state["hist_uid"].copy(), state["hist_t"].copy()
        if self._hist_t.size != self._hist_n:
            raise ValueError("report history columns differ in length")

    def _slots_of(self, user_ids: Iterable[int]) -> np.ndarray:
        """Dense slots for ``user_ids``, interning unseen ids — vectorized.

        The table validates ids (integer dtype, int64 range), so float or
        object inputs raise instead of silently aliasing truncated ids.
        """
        slots = self._table.intern(
            user_ids if isinstance(user_ids, np.ndarray) else list(user_ids)
        )
        # A forgotten user whose row compaction has not reclaimed yet
        # starts over exactly as a reclaimed one would.
        stale = slots[self._forgotten(slots)]
        if stale.size:
            self._retire(stale)
            self._status.data[stale] = _UNKNOWN
        return slots

    # ------------------------------------------------------------------ #
    # retirement (the slot table's release protocol)
    # ------------------------------------------------------------------ #
    def _forgotten(self, slots) -> np.ndarray:
        """Which of ``slots`` quitted and then went unseen for more than
        ``w`` timestamps."""
        return (self._status.data[slots] == _QUITTED) & (
            self._idle_since.data[slots] < self._clock - self.w
        )

    def _releasable(self, n: int) -> np.ndarray:
        """Rows of forgotten users, or of users the tracker never met."""
        rows = slice(0, n)
        return self._forgotten(rows) | (self._status.data[rows] == _UNKNOWN)

    def _retire(self, slots: np.ndarray) -> None:
        """Drop the report-history entries of the (forgotten) users in
        ``slots`` — all the tracker keeps outside its columns."""
        n = self._hist_n
        keep = ~np.isin(self._hist_uid[:n], self._table.uids[slots])
        self._hist_n = int(keep.sum())
        self._hist_uid[: self._hist_n] = self._hist_uid[:n][keep]
        self._hist_t[: self._hist_n] = self._hist_t[:n][keep]

    # ------------------------------------------------------------------ #
    # lifecycle transitions
    # ------------------------------------------------------------------ #
    def register(self, user_ids: Iterable[int]) -> None:
        """Mark newly arrived users as active (Algorithm 1, lines 1 and 7).

        A QUITTED user stays quitted (and counts as seen) unless already
        forgotten, in which case the uid starts over as a fresh arrival.
        """
        slots = self._slots_of(user_ids)
        if slots.size:
            status = self._status.data
            quitted = status[slots] == _QUITTED
            self._idle_since.data[slots[quitted]] = self._clock
            status[slots[~quitted]] = _ACTIVE

    def mark_quitted(self, user_ids: Iterable[int]) -> None:
        """Mark users who ceased sharing as quitted (line 8)."""
        slots = self._slots_of(user_ids)
        if slots.size:
            status = self._status.data
            status[slots] = _QUITTED
            self._idle_since.data[slots] = self._clock

    def mark_reported(self, user_ids: Iterable[int], timestamp: int) -> None:
        """Mark sampled reporters inactive and remember when (line 14)."""
        self._clock = max(self._clock, int(timestamp))
        self.mark_reported_slots(self._slots_of(user_ids), timestamp)

    def mark_reported_slots(self, slots: np.ndarray, timestamp: int) -> None:
        """:meth:`mark_reported` by slot, as :meth:`active_slots` resolved
        the reporters this round (no intern runs in between)."""
        self._clock = max(self._clock, int(timestamp))
        if not slots.size:
            return
        # An unknown (shared-table) user reporting here behaves like a
        # fresh arrival, as the dict tracker's implicit creation did.
        status = self._status.data
        chosen = slots[status[slots] != _QUITTED]
        status[chosen] = _INACTIVE
        self._last_report.data[chosen] = timestamp
        if chosen.size:
            n, need = self._hist_n, self._hist_n + chosen.size
            self._hist_uid = reserve(self._hist_uid, n, need)
            self._hist_t = reserve(self._hist_t, n, need)
            self._hist_uid[n:need] = self._table.uids[chosen]
            self._hist_t[n:need] = timestamp
            self._hist_n = need

    def recycle(self, t: int) -> list[int]:
        """Reactivate users whose last report was at ``t - w`` (line 9).

        Returns the recycled user ids (useful for tests and audits).
        One vectorized scan over the resident status / last-report columns.
        """
        self._clock = max(self._clock, int(t))
        target = t - self.w
        if target < 0:
            return []
        n = self._table.n_slots
        status = self._status.data[:n]
        mask = (status == _INACTIVE) & (self._last_report.data[:n] == target)
        status[mask] = _ACTIVE
        return self._table.uids[mask].tolist()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _codes(self, slots) -> np.ndarray:
        """Status codes of ``slots``; forgotten users read as unknown."""
        return np.where(
            self._forgotten(slots), _UNKNOWN, self._status.data[slots]
        )

    def status(self, user_id: int) -> UserStatus:
        slot = self._table.slot_of(user_id)
        code = int(self._codes(slot)) if slot >= 0 else _UNKNOWN
        if code == _UNKNOWN:
            raise ConfigurationError(f"unknown user {user_id}")
        return _CODE_TO_STATUS[code]

    def active_mask(self, user_ids) -> np.ndarray:
        """Boolean mask of which of ``user_ids`` are currently active."""
        return self.active_slots(user_ids)[0]

    def active_slots(self, user_ids) -> tuple[np.ndarray, np.ndarray]:
        """``(active, slots)``: which of ``user_ids`` are active, and the
        slot of each.

        Columnar twin of per-user :meth:`status` calls; unknown ids raise
        exactly as ``status`` does (including ids another component
        interned into a shared table without registering them here, and
        forgotten users — those must re-register first).  The slots stay
        valid until the table next interns, so a round marks its
        reporters with them (:meth:`mark_reported_slots`) without
        resolving their ids again.
        """
        ids = np.atleast_1d(np.asarray(user_ids))
        if ids.size == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        slots = self._table.lookup(ids)  # validates integer dtype/range
        known = slots >= 0
        codes = np.full(ids.shape, _UNKNOWN, dtype=np.int8)
        codes[known] = self._codes(slots[known])
        unknown = np.flatnonzero(codes == _UNKNOWN)
        if unknown.size:
            raise ConfigurationError(f"unknown user {int(ids[unknown[0]])}")
        # A quitted user who keeps showing up is not forgotten meanwhile.
        self._idle_since.data[slots[codes == _QUITTED]] = self._clock
        return codes == _ACTIVE, slots

    def _resident(self) -> np.ndarray:
        """Status codes of the resident rows, in slot order."""
        return self._codes(slice(0, self._table.n_slots))

    def active_users(self) -> list[int]:
        """The current active set ``U_A`` (Algorithm 1, line 11)."""
        return self._table.uids[self._resident() == _ACTIVE].tolist()

    def n_active(self) -> int:
        return int((self._resident() == _ACTIVE).sum())

    def n_known(self) -> int:
        """Users the tracker has met and not forgotten (excludes
        shared-table-only slots)."""
        return int((self._resident() != _UNKNOWN).sum())

    def known_users(self) -> list[int]:
        """Ids of every user the tracker has met and not forgotten, in slot order."""
        return self._table.uids[self._resident() != _UNKNOWN].tolist()

    @property
    def n_rows(self) -> int:
        """Resident tracker rows (the slot table's live rows)."""
        return self._table.n_slots

    @property
    def n_retired(self) -> int:
        """Rows the slot table has retired (every owner released them)."""
        return self._table.n_retired

    def is_resident(self, user_ids) -> np.ndarray:
        """Which of ``user_ids`` the tracker has met and not forgotten."""
        slots = self._table.lookup(user_ids)
        known = slots >= 0
        known[known] = self._codes(slots[known]) != _UNKNOWN
        return known

    def report_history(self, user_id: int) -> list[int]:
        """Timestamps at which ``user_id`` reported since it was last admitted."""
        n = self._hist_n
        return self._hist_t[:n][self._hist_uid[:n] == int(user_id)].tolist()
