"""Privacy accounting for w-event LDP.

The paper's Theorem 3 states that RetraSyn satisfies w-event ε-LDP for every
user.  This module makes the guarantee *checkable*: pipelines register every
user's per-timestamp budget spend with an accountant, which raises
:class:`~repro.exceptions.PrivacyBudgetError` the moment any sliding window
of ``w`` consecutive timestamps would exceed ``epsilon`` for any user
(Definition 3), and exposes audit summaries for tests and reports.

Two ledger engines share the ``spend_many`` / ``summary`` surface, and a
third, the test oracle, pins them:

* :class:`ColumnarPrivacyAccountant` — the **per-user** columnar engine:
  the RetraSyn curator's ledger under population division and the
  baselines' ledger (LBD/LBA/LPD/LPA, and LDPTrace with ``w=1``).  Spends
  live in a swept ``(n_slots, w)`` numpy ring hung on a
  :class:`~repro.stream.slots.UserSlotTable`, so ``spend_many``,
  ``window_spend_many`` and the strict-mode violation check are array
  ops over whole report batches with no per-user loop.
  The ledger retains exactly the live window of exactly the users who
  still have one (all the w-event guarantee needs): rows whose window has
  emptied are retired to a 16 B/user audit archive that keeps lifetime
  totals, and the running maximum window spend covers everyone ever
  seen.  It therefore requires spend timestamps to be non-decreasing —
  which the curator's consecutive-timestamp protocol guarantees.
* :class:`ScheduleLedger` — the **schedule** ledger, the RetraSyn
  curator's ledger under budget division.  There every reporter
  at ``t`` spends the same ``ε_t``, once, so a round's charge is one
  number: if a round's reporters are distinct and every ``w`` consecutive
  rounds sum to at most ``ε``, no user can exceed ``ε`` in any window.
  Its state is ``O(w)`` — a ring of per-round ε.

The oracle is the dict ledger ``PrivacyAccountant`` in
``tests/reference/ledger.py``: per-uid full spend histories, rescanned on
every spend.  ``tests/ldp/test_accountant_differential.py`` and the
model-based ``tests/ldp/test_accountant_model.py`` pin the columnar engine
to identical spends, refusals, violations and window totals on randomized
schedules, and ``tests/ldp/test_schedule_ledger.py`` checks the schedule
ledger's bound against it.

The curator builds its ledger with :func:`make_ledger`, which picks one of
the last two by the division; :func:`make_accountant` builds the per-user
columnar engine (``RetraSynConfig.accountant_mode``, whose one value is
``"columnar"``).  Every ledger refuses a non-finite or non-positive ``ε``,
a ``w`` that is not an integer ``>= 1`` and any spend that is not finite
and ``>= 0`` with :class:`~repro.exceptions.ConfigurationError`.

Both division styles are covered:

* budget division — every active user reports each timestamp with a small
  ``ε_t``; the accountant checks ``Σ ε_t over any window ≤ ε``;
* population division — a sampled subset reports with the full ``ε`` and is
  marked *inactive* until recycled at ``t + w``; each user therefore spends
  at most ``ε`` per window, which the accountant verifies directly.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import deque
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, PrivacyBudgetError
from repro.stream.slots import UserSlotTable, extend_log, find_sorted

#: Tolerance for floating-point budget accumulation.
_EPS_TOL = 1e-9

#: The curator's ledger engine (RetraSynConfig.accountant_mode).
ACCOUNTANT_MODES = ("columnar",)

#: Ring-column sentinel: "this column has never held a timestamp".
_NEVER = np.iinfo(np.int64).min // 2

#: A batch of at least one in this many resident rows is *dense* (measured
#: crossover — see ColumnarPrivacyAccountant._ring_totals).
_DENSE_BATCH_SHARE = 8


def _as_uid(user_id) -> int:
    """Exact-integer coercion; floats and other types are rejected."""
    try:
        return operator.index(user_id)
    except TypeError:
        raise ConfigurationError(
            f"user ids must be integers, got {user_id!r}"
        ) from None


def _as_uid_array(user_ids) -> np.ndarray:
    """Normalise a batch of user ids to an int64 array, rejecting non-ints.

    Accepts numpy integer arrays of any width, plain sequences and
    generators.  Float / object arrays raise instead of being silently
    coerced (the regression the differential suite pins).
    """
    if isinstance(user_ids, np.ndarray):
        ids = user_ids
    else:
        ids = np.asarray(list(user_ids))
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ConfigurationError(
            f"user ids must be an integer array, got dtype {ids.dtype}"
        )
    if ids.dtype == np.uint64 and ids.size and ids.max() > np.uint64(
        np.iinfo(np.int64).max
    ):
        # astype would wrap these to negative ids, aliasing distinct users.
        raise ConfigurationError("user ids exceed the int64 range")
    return np.atleast_1d(ids.astype(np.int64, copy=False))


def _checked_contract(epsilon, w) -> tuple[float, int]:
    """A ledger's ``(ε, w)``: a finite ``ε > 0`` and an integer ``w >= 1``.

    ``nan`` fails every comparison, so ``ε`` is checked by a positive
    condition rather than by refusing its complement.
    """
    real = isinstance(epsilon, numbers.Real) and not isinstance(epsilon, bool)
    if not (real and math.isfinite(epsilon) and epsilon > 0):
        raise ConfigurationError(f"epsilon must be finite and positive, got {epsilon!r}")
    if isinstance(w, bool) or not isinstance(w, numbers.Integral) or w < 1:
        raise ConfigurationError(f"window size w must be an integer >= 1, got {w!r}")
    return float(epsilon), int(w)


def _checked_spend(epsilon) -> float:
    """A spend's ``ε``: finite and ``>= 0``, else a ConfigurationError."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ConfigurationError(f"budget spends must be finite and >= 0, got {epsilon}")
    return epsilon


class ColumnarPrivacyAccountant:
    """Swept ring-buffer ledger over a self-compacting slot table.

    Spends at timestamp ``t`` land in layer ``t % w`` of a ``w``-deep
    float column hung on the :class:`~repro.stream.slots.UserSlotTable` —
    one contiguous column of slots per live timestamp.  The ring is
    *swept*: when the spend frontier advances, the columns of every
    timestamp that left the window (skipped timestamps included) are
    zeroed once, so at the frontier a window total is a plain sum of the
    ``w`` columns; a ``w``-vector of column timestamps answers queries
    about later windows without touching the ring.  All batch operations
    — recording, the strict refusal check, violation detection and window
    queries — are numpy array ops over the whole batch.

    The ledger holds exactly the users who can still influence a live
    window.  A row whose window is all zero is *released* to the table's
    compaction (together with any other component sharing the table — see
    :meth:`UserSlotTable.attach <repro.stream.slots.UserSlotTable.attach>`);
    its uid and lifetime total move to a 16 B/user audit archive, so
    ``summary()``, ``n_users``, ``user_ids()``, ``total_spend()``,
    ``verify()`` and ``max_window_spend()`` still cover everyone ever
    seen.  A retired uid that spends again is a fresh row — safe, because
    its window is empty by construction.

    Semantics match the dict reference ledger exactly (including partial
    recording of a batch prefix before a strict refusal, and per-row
    violation entries under ``strict=False``), with two documented
    restrictions that follow from keeping only the live window:

    * spend timestamps must be non-decreasing (the curator's protocol
      already enforces consecutive ``t``); out-of-order spends raise
      :class:`~repro.exceptions.ConfigurationError`.  The frontier is the
      latest timestamp a non-empty spend was *attempted* at, recorded or
      refused;
    * :meth:`window_spend` is exact for windows ending at or after the
      frontier; queries about long-closed windows may undercount because
      their cells have been swept.

    Parameters
    ----------
    epsilon:
        Total budget ε available inside any window of ``w`` timestamps.
    w:
        Sliding-window length (``w >= 1``).
    strict:
        When ``True`` (default) a violating spend raises
        :class:`PrivacyBudgetError` *before* being recorded; when ``False``
        violations are recorded and merely reported by :meth:`verify`.
    slots:
        Optional shared :class:`~repro.stream.slots.UserSlotTable`; the
        unsharded curator passes the same table to its user tracker so a
        user occupies one row in both planes.
    """

    def __init__(
        self,
        epsilon: float,
        w: int,
        strict: bool = True,
        slots: Optional[UserSlotTable] = None,
    ) -> None:
        self.epsilon, self.w = _checked_contract(epsilon, w)
        self.strict = bool(strict)
        self._slots = slots if slots is not None else UserSlotTable()
        self._ring = self._slots.add_column("ring", np.float64, 0.0, depth=self.w)
        self._total = self._slots.add_column("total", np.float64, 0.0)
        self._slots.attach(self)
        # Timestamp each ring column currently holds (swept columns only).
        self._col_t = np.full(self.w, _NEVER, dtype=np.int64)
        self._frontier: Optional[int] = None
        self._max_window = 0.0
        self._violations: list[tuple[int, int, float]] = []
        # Audit archive of retired rows: uid + lifetime total, append-only.
        # Kept uid-sorted and duplicate-free lazily (see _archive).
        self._arch_uid = np.empty(0, dtype=np.int64)
        self._arch_total = np.empty(0)
        self._arch_n = 0
        self._arch_sorted = True
        # Operational counters (scraped by /metrics, never part of the
        # audit summary); counted identically to the dict reference ledger.
        self.n_spend_events = 0
        self.n_refusals = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def spend(self, user_id: int, timestamp: int, epsilon: float) -> None:
        """Record that ``user_id`` consumed ``epsilon`` at ``timestamp``."""
        self.spend_many(np.asarray([_as_uid(user_id)], dtype=np.int64),
                        timestamp, epsilon)

    def spend_many(self, user_ids, timestamp: int, epsilon: float) -> None:
        """Record an identical spend for a batch of users — one array op.

        Duplicate ids inside one batch are handled with sequential
        semantics: the k-th occurrence sees the window total left by the
        first k−1, exactly as the dict reference ledger's loop would.
        """
        epsilon = _checked_spend(epsilon)
        ids = _as_uid_array(user_ids)
        if epsilon == 0 or ids.size == 0:
            return
        timestamp = int(timestamp)
        if self._frontier is not None and timestamp < self._frontier:
            raise ConfigurationError(
                f"columnar ledger requires non-decreasing spend timestamps: "
                f"got t={timestamp} after t={self._frontier}"
            )
        # Sweep first: if interning triggers the table's scan for retirable
        # rows, it sees the windows as they stand at this timestamp.
        self._sweep_to(timestamp)
        slots = self._slots.intern(ids)
        # Window totals as each row's own spend would leave them.  A batch
        # observed to hold every slot once needs no occurrence numbering.
        distinct = self._distinct(slots)
        totals = self._ring_totals(slots, timestamp)
        totals += epsilon if distinct else (self._occurrences(slots) + 1) * epsilon
        over = totals > self.epsilon + _EPS_TOL
        n_record = ids.size
        offender = -1
        if over.any():
            if self.strict:
                # Rows before the first offender really happened (the dict
                # ledger records them one by one before raising); keep them.
                offender = int(np.argmax(over))
                n_record = offender
                self.n_refusals += 1
            else:
                self.n_refusals += int(over.sum())
                for i in np.flatnonzero(over).tolist():
                    self._violations.append(
                        (int(ids[i]), timestamp, float(totals[i]))
                    )
        self.n_spend_events += int(n_record)
        if n_record:
            recorded = slots[:n_record]
            column = self._ring.data[timestamp % self.w]
            if distinct:
                column[recorded] += epsilon
                self._total.data[recorded] += epsilon
            else:
                np.add.at(column, recorded, epsilon)
                np.add.at(self._total.data, recorded, epsilon)
            # The checked totals *are* the recorded rows' new window totals
            # (a slot's last occurrence carries its largest), so the running
            # maximum needs no second pass over the ring.
            self._max_window = max(
                self._max_window, float(totals[:n_record].max())
            )
        if offender >= 0:
            raise PrivacyBudgetError(
                f"user {int(ids[offender])} would spend "
                f"{float(totals[offender]):.6f} > epsilon={self.epsilon} "
                f"in window ending at t={timestamp}"
            )

    def _sweep_to(self, t: int) -> None:
        """Advance the frontier to ``t``, zeroing every column that left.

        Each timestamp in ``(frontier, t]`` that still fits the window
        claims its column: the column is cleared (it held the timestamp
        ``w`` earlier, or a skipped one) and stamped.  One contiguous
        memset per advanced timestamp — at most ``w`` of them however
        large the gap — replaces the per-cell timestamp matrix.
        """
        frontier = self._frontier
        if frontier == t:
            return
        lo = t - self.w + 1 if frontier is None else max(frontier + 1, t - self.w + 1)
        live = self._ring.data[:, : self._slots.n_slots]
        for ts in range(lo, t + 1):
            col = ts % self.w
            live[col] = 0.0
            self._col_t[col] = ts
        self._frontier = t

    def _distinct(self, slots: np.ndarray) -> bool:
        """Whether every slot occurs once in the batch (one scatter)."""
        if slots.size == 1:
            return True
        seen = np.zeros(self._slots.n_slots, dtype=bool)
        seen[slots] = True
        return int(np.count_nonzero(seen)) == slots.size

    # ------------------------------------------------------------------ #
    # retirement (the slot table's release protocol)
    # ------------------------------------------------------------------ #
    def _releasable(self, n: int) -> np.ndarray:
        """Rows with no spend left in the live window."""
        return ~self._ring.data[:, :n].any(axis=0)

    def _retire(self, slots: np.ndarray) -> None:
        """Move the retiring rows' uid + lifetime total to the archive."""
        totals = self._total.data[slots]
        spent = totals > 0.0
        uids, totals = self._slots.uids[slots[spent]], totals[spent]
        if not uids.size:
            return
        n, need = self._arch_n, self._arch_n + uids.size
        # Compaction hands rows over in slot order; when uids also arrive
        # in increasing order (every replay) the archive stays sorted.
        self._arch_sorted = bool(
            self._arch_sorted
            and (n == 0 or uids[0] > self._arch_uid[n - 1])
            and (uids[1:] > uids[:-1]).all()
        )
        self._arch_uid = extend_log(self._arch_uid, n, need)
        self._arch_total = extend_log(self._arch_total, n, need)
        self._arch_uid[n:need] = uids
        self._arch_total[n:need] = totals
        self._arch_n = need

    def _archive(self) -> tuple[np.ndarray, np.ndarray]:
        """``(uids, lifetime totals)`` of retired rows, uid-sorted, merged.

        A uid retired more than once (it returned and left again) holds
        several raw entries; they are folded into one, in place, on the
        first audit query after an out-of-order append.  A stable
        ``argsort`` (each compaction appends one sorted run, which timsort
        merges) orders both columns, one 8 B/row temporary at a time, so
        the fold peaks at 16 B per archived row.  A "first of its uid"
        mask ends it when no uid repeats; otherwise each repeat is added
        to its uid's first entry by ``np.add.at``, which applies them in
        index order.  The stable sort keeps a uid's entries in the order
        they were retired, so a folded total is that sequence summed left
        to right, bit for bit.
        """
        n = self._arch_n
        if not self._arch_sorted:
            uids, totals = self._arch_uid[:n], self._arch_total[:n]
            order = np.argsort(uids, kind="stable")
            uids[:] = uids[order]
            totals[:] = totals[order]
            del order
            first = np.empty(n, dtype=bool)
            first[0] = True
            np.not_equal(uids[1:], uids[:-1], out=first[1:])
            m = int(np.count_nonzero(first))
            if m < n:
                again = np.flatnonzero(~first)
                np.add.at(totals, np.searchsorted(uids, uids[again]), totals[again])
                uids[:m] = uids[first]
                totals[:m] = totals[first]
            self._arch_n, self._arch_sorted = m, True
            n = m
        return self._arch_uid[:n], self._arch_total[:n]

    def _archived(self, uids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of ``uids`` the archive holds, and their lifetime totals."""
        arch_uids, arch_totals = self._archive()
        if not arch_uids.size:
            return np.zeros(uids.shape, dtype=bool), np.zeros(uids.shape)
        found, pos = find_sorted(arch_uids, uids)
        return found, np.where(found, arch_totals[pos], 0.0)

    def _live_spenders(self) -> np.ndarray:
        """uids of resident rows with a recorded spend, in slot order."""
        n = self._slots.n_slots
        return self._slots.uids[self._total.data[:n] > 0.0]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def window_spend(self, user_id: int, timestamp: int) -> float:
        """Budget spent by ``user_id`` within ``[timestamp-w+1, timestamp]``."""
        return float(
            self.window_spend_many(
                np.asarray([_as_uid(user_id)], dtype=np.int64), timestamp
            )[0]
        )

    def window_spend_many(self, user_ids, timestamp: int) -> np.ndarray:
        """Window totals for a whole batch of users, vectorized."""
        ids = _as_uid_array(user_ids)
        out = np.zeros(ids.size)
        slots = self._slots.lookup(ids)
        known = slots >= 0
        if known.any():
            out[known] = self._ring_totals(slots[known], int(timestamp))
        return out

    def total_spend(self, user_id: int) -> float:
        """Lifetime budget spent by one user (for audit output only)."""
        uid = np.asarray([_as_uid(user_id)], dtype=np.int64)
        slot = int(self._slots.lookup(uid)[0])
        live = float(self._total.data[slot]) if slot >= 0 else 0.0
        return live + float(self._archived(uid)[1][0])

    def max_window_spend(self) -> float:
        """The largest any-user any-window spend observed so far.

        Maintained incrementally: every recorded batch folds in the
        window totals its rows were checked at, and any window's maximum
        is attained at a window ending on its last contained spend — so
        the running maximum over "windows ending at spend time" equals the
        dict reference ledger's full-history scan, retired rows included.
        """
        return self._max_window

    def verify(self) -> bool:
        """Whether every user satisfied the w-event bound at all times."""
        return not self._violations and self._max_window <= self.epsilon + _EPS_TOL

    @property
    def violations(self) -> list[tuple[int, int, float]]:
        """Recorded ``(user_id, timestamp, window_total)`` violations."""
        return list(self._violations)

    @property
    def n_users(self) -> int:
        """Distinct users with a recorded spend, resident or retired."""
        live = self._live_spenders()
        returned = int(self._archived(live)[0].sum())
        return self._archive()[0].size + live.size - returned

    def user_ids(self) -> list[int]:
        """Every user with at least one recorded spend (audit surface).

        Retired users first, in uid order, then resident rows in slot
        order — i.e. first time the shared table saw the user, which may
        predate their first spend when the table is shared with a tracker.
        """
        live = self._live_spenders()
        retired = self._archive()[0]
        retired = retired[~np.isin(retired, live)]
        return retired.tolist() + live.tolist()

    def summary(self) -> dict:
        """Audit summary suitable for experiment reports."""
        return {
            "epsilon": self.epsilon,
            "w": self.w,
            "n_users": self.n_users,
            "max_window_spend": self.max_window_spend(),
            "n_violations": len(self._violations),
            "satisfied": self.verify(),
        }

    @property
    def n_rows(self) -> int:
        """Resident ledger rows (the slot table's live rows)."""
        return self._slots.n_slots

    @property
    def n_retired(self) -> int:
        """Rows the slot table has retired (every owner released them)."""
        return self._slots.n_retired

    def components(self) -> list:
        return [("slots", self._slots), ("ledger", self)]

    def state(self) -> dict:
        """Everything but the ring and totals, which are the table's.

        The archive columns are views: the next audit query may fold them
        in place, so encode the state before one runs.
        """
        n = self._arch_n
        return {
            "frontier": self._frontier, "max_window": self._max_window,
            "violations": self._violations, "arch_sorted": self._arch_sorted,
            "n_spend_events": self.n_spend_events, "n_refusals": self.n_refusals,
            "col_t": self._col_t, "arch_uid": self._arch_uid[:n],
            "arch_total": self._arch_total[:n],
        }

    def load_state(self, state: dict) -> None:
        frontier = state["frontier"]
        self._col_t = state["col_t"].copy().reshape(self.w)
        self._frontier = None if frontier is None else int(frontier)
        self._max_window = float(state["max_window"])
        self._violations = [(int(u), int(t), float(v)) for u, t, v in state["violations"]]
        self._arch_uid, self._arch_total = state["arch_uid"].copy(), state["arch_total"].copy()
        self._arch_n, self._arch_sorted = self._arch_uid.size, state["arch_sorted"] is True
        unsorted = self._arch_sorted and (np.diff(self._arch_uid) <= 0).any()
        if unsorted or self._arch_total.size != self._arch_n:
            raise ValueError("audit archive columns disagree")
        self.n_spend_events = int(state["n_spend_events"])
        self.n_refusals = int(state["n_refusals"])

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ring_totals(self, slots: np.ndarray, t: int) -> np.ndarray:
        """Window totals ``[t-w+1, t]`` of ``slots``, summed in ring order.

        Every window total in the ledger comes from here.  The ``w`` ring
        columns are added one after another, column 0 first (away from the
        frontier, skipping those outside the window), by whichever of two
        bit-identical routes the batch's observed density makes cheaper:

        * *dense* (budget division: most resident rows spend) — one
          contiguous column-sum over the resident rows, then a 1-D take;
        * *sparse* (population division, shard workers) — gather the
          batch's ``(w, batch)`` cells, then the same column-sum.

        Measured on the build host (median of 400 calls, w=20, random
        slots; ms dense / sparse):
        20k rows — batch 625: 0.19 / 0.01, 1,666: 0.19 / 0.17,
        2,500: 0.19 / 0.21, 5,000: 0.19 / 0.39, 20k: 0.17 / 0.85;
        10k rows — 312: 0.07 / 0.01, 1,250: 0.07 / 0.08, 10k: 0.06 / 0.29;
        40k rows — 1,250: 0.33 / 0.09, 5,000: 0.28 / 0.32, 40k: 0.39 / 2.2
        (w=10 crosses at the same share).  The routes cross at a batch of
        about one resident row in eight, hence ``_DENSE_BATCH_SHARE``.
        """
        where = True
        if t != self._frontier:
            where = ((self._col_t > t - self.w) & (self._col_t <= t))[:, None]
        n = self._slots.n_slots
        if slots.size * _DENSE_BATCH_SHARE >= n:
            return self._ring.data[:, :n].sum(axis=0, where=where).take(slots)
        return self._ring.data.take(slots, axis=1).sum(axis=0, where=where)

    @staticmethod
    def _occurrences(slots: np.ndarray) -> np.ndarray:
        """For each row, how many earlier rows in the batch share its slot."""
        order = np.argsort(slots, kind="stable")
        s = slots[order]
        n = s.size
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        lengths = np.diff(np.r_[starts, n])
        idx = np.arange(n, dtype=np.int64)
        occ = np.empty(n, dtype=np.int64)
        occ[order] = idx - np.repeat(idx[starts], lengths)
        return occ


def require_distinct(user_ids: np.ndarray, timestamp: int) -> None:
    """Refuse a round in which some user reports more than once.

    A strictly increasing batch — what the ingest assembler emits — is
    distinct after one O(n) compare; any other batch is checked on a
    sorted copy.
    """
    if user_ids.size < 2 or (user_ids[1:] > user_ids[:-1]).all():
        return
    ordered = np.sort(user_ids)
    repeated = np.flatnonzero(ordered[1:] == ordered[:-1])
    if repeated.size:
        raise PrivacyBudgetError(
            f"user {int(ordered[repeated[0]])} reports more than once "
            f"at t={timestamp}"
        )


class ScheduleLedger:
    """Strict w-event ledger of a budget-division *schedule*: O(w) state.

    Under budget division every reporter at ``t`` spends the same ``ε_t``
    once, so the round's charge is one number.  If a round's reporters are
    distinct and the ``ε_t`` of any ``w`` consecutive rounds sum to at
    most ``ε``, then no user — whichever rounds they joined — spends more
    than ``ε`` in any window: their window spend is a sub-sum of the
    schedule's.  The ledger keeps exactly that: one ring of per-round ε
    (``ring[t % w]``), the timestamp each column holds, the frontier, the
    running maximum window total and the counters.

    :meth:`spend_many` has the per-user ledgers' signature and checks.  It
    refuses with :class:`PrivacyBudgetError`, recording nothing, when a
    uid repeats in the batch or when the window total including ``ε_t``
    would exceed ``ε``.  Two batches at one timestamp both charge that
    round, which stays an upper bound for a user in both.

    Window totals add the ring columns in column order, then ``ε_t``, as
    :meth:`ColumnarPrivacyAccountant._ring_totals` does, so
    :meth:`max_window_spend` — an upper bound on every user's window
    spend — equals the per-user ledgers' value to the bit whenever some
    user reported in every round of the maximising window.

    The ledger keeps no per-user state, so it has no ``n_users`` or
    ``window_spend``.  It is always strict, so it records no violations.
    """

    #: No per-user rows, resident or retired.
    n_rows = 0
    n_retired = 0

    def __init__(self, epsilon: float, w: int) -> None:
        self.epsilon, self.w = _checked_contract(epsilon, w)
        # Python lists: w is small, and a scalar loop adds in column order.
        self._ring = [0.0] * self.w
        self._col_t = [int(_NEVER)] * self.w
        self._frontier: Optional[int] = None
        self._max_window = 0.0
        self.n_spend_events = 0
        self.n_refusals = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def spend_many(self, user_ids, timestamp: int, epsilon: float) -> None:
        """Charge round ``timestamp`` ``epsilon`` for a batch of reporters."""
        admitted = self.admit(user_ids, timestamp, epsilon)
        if admitted is None:
            return
        n, t, epsilon, total = admitted
        self._sweep_to(t)
        self._ring[t % self.w] += epsilon
        self.n_spend_events += n
        self._max_window = max(self._max_window, total)

    def admit(self, user_ids, timestamp: int, epsilon: float):
        """Raise exactly when :meth:`spend_many` would, recording nothing.

        Returns ``(n, t, ε, window total)`` of an admissible spend and
        ``None`` for a free one (``ε = 0`` or no reporters).
        """
        epsilon = _checked_spend(epsilon)
        ids = _as_uid_array(user_ids)
        if epsilon == 0 or ids.size == 0:
            return None
        t = int(timestamp)
        if self._frontier is not None and t < self._frontier:
            raise ConfigurationError(
                f"schedule ledger requires non-decreasing spend timestamps: "
                f"got t={t} after t={self._frontier}"
            )
        try:
            require_distinct(ids, t)
        except PrivacyBudgetError:
            self.n_refusals += 1
            raise
        total = self._window_total(t) + epsilon
        if total > self.epsilon + _EPS_TOL:
            self.n_refusals += 1
            raise PrivacyBudgetError(
                f"round t={t} would charge {total:.6f} > epsilon={self.epsilon} "
                f"in the window ending at t={t}"
            )
        return ids.size, t, epsilon, total

    def _window_total(self, t: int) -> float:
        """Σ of the ring columns holding a timestamp in ``[t-w+1, t]``."""
        total, lo = 0.0, t - self.w
        for ts, eps in zip(self._col_t, self._ring):
            if lo < ts <= t:
                total += eps
        return total

    def _sweep_to(self, t: int) -> None:
        """Advance the frontier to ``t``, zeroing every column that left."""
        frontier = self._frontier
        if frontier == t:
            return
        lo = t - self.w + 1 if frontier is None else max(frontier + 1, t - self.w + 1)
        for ts in range(lo, t + 1):
            self._ring[ts % self.w] = 0.0
            self._col_t[ts % self.w] = ts
        self._frontier = t

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def n_reports(self) -> int:
        """Reports charged so far (one per reporter per round)."""
        return self.n_spend_events

    def max_window_spend(self) -> float:
        """The largest schedule window total charged so far — an upper
        bound on every user's window spend."""
        return self._max_window

    def verify(self) -> bool:
        """Whether every window of the schedule stayed within ``ε``."""
        return self._max_window <= self.epsilon + _EPS_TOL

    @property
    def violations(self) -> list:
        """Always empty: a refused round is never recorded."""
        return []

    def summary(self) -> dict:
        """Audit summary; ``n_reports`` stands where per-user ledgers
        report ``n_users``."""
        return {
            "epsilon": self.epsilon,
            "w": self.w,
            "n_reports": self.n_reports,
            "max_window_spend": self.max_window_spend(),
            "n_violations": 0,
            "satisfied": self.verify(),
        }

    def components(self) -> list:
        return [("ledger", self)]

    def state(self) -> dict:
        return {
            "frontier": self._frontier, "max_window": self._max_window,
            "n_spend_events": self.n_spend_events, "n_refusals": self.n_refusals,
            "ring": np.asarray(self._ring, dtype=np.float64),
            "col_t": np.asarray(self._col_t, dtype=np.int64),
        }

    def load_state(self, state: dict) -> None:
        frontier = state["frontier"]
        self._ring = state["ring"].reshape(self.w).tolist()
        self._col_t = state["col_t"].reshape(self.w).tolist()
        self._frontier = None if frontier is None else int(frontier)
        self._max_window = float(state["max_window"])
        self.n_spend_events = int(state["n_spend_events"])
        self.n_refusals = int(state["n_refusals"])


def make_accountant(
    epsilon: float,
    w: int,
    mode: str = "columnar",
    strict: bool = True,
    slots: Optional[UserSlotTable] = None,
):
    """Build the per-user ledger engine named by ``mode``: the curator's
    under population division, and the baselines'."""
    if mode not in ACCOUNTANT_MODES:
        raise ConfigurationError(
            f"accountant_mode must be one of {ACCOUNTANT_MODES}, got {mode!r}"
        )
    return ColumnarPrivacyAccountant(epsilon, w, strict=strict, slots=slots)


def uses_schedule_ledger(config) -> bool:
    """Whether ``config``'s curator keeps a :class:`ScheduleLedger`: under
    budget division, whose allocators all window-check their schedule."""
    return config.division == "budget"


def make_ledger(config, slots: Optional[UserSlotTable] = None):
    """The curator's ledger for ``config``.

    Budget division gets the O(w) :class:`ScheduleLedger`; population
    division gets the per-user ledger of :func:`make_accountant`, hung on
    ``slots`` when given.
    """
    if uses_schedule_ledger(config):
        return ScheduleLedger(config.epsilon, config.w)
    return make_accountant(
        config.epsilon, config.w, mode=config.accountant_mode, slots=slots
    )


class SlidingBudgetTracker:
    """Curator-side view of budget already committed in the current window.

    Used by budget-division allocators to compute the remaining budget
    ``ε_rm = ε − Σ_{i=t-w+1}^{t-1} ε_i`` (Section III-E).  This is separate
    from the per-user ledgers because the allocator needs only the
    curator's own schedule, not per-user histories.
    """

    def __init__(self, epsilon: float, w: int) -> None:
        self.epsilon, self.w = _checked_contract(epsilon, w)
        self._window: deque[float] = deque([0.0] * self.w, maxlen=self.w)

    def state(self) -> dict:
        return {"window": np.asarray(self._window, dtype=np.float64)}

    def load_state(self, state: dict) -> None:
        self._window = deque(state["window"].reshape(self.w).tolist(), maxlen=self.w)

    @property
    def remaining(self) -> float:
        """Budget still available for the next timestamp's report."""
        return max(0.0, self.epsilon - sum(list(self._window)[1:]))

    def commit(self, epsilon_t: float) -> None:
        """Record the budget used at the current timestamp and advance,
        refusing one that would overrun the window's remaining budget."""
        epsilon_t = _checked_spend(epsilon_t)
        if epsilon_t > self.remaining + _EPS_TOL:
            raise PrivacyBudgetError(
                f"committing {epsilon_t:.6f} exceeds remaining window budget "
                f"{self.remaining:.6f}"
            )
        self._window.append(epsilon_t)

    def window_history(self) -> list[float]:
        """Budgets of the last ``w`` timestamps, oldest first."""
        return list(self._window)
