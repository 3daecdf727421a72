"""The dict ledger: the reference the engine's privacy ledgers are pinned to.

:class:`PrivacyAccountant` keeps every spend of every user forever, so it
can answer any historical query and checks each spend by rescanning the
user's history — a loop anyone can read.  The differential and
model-based ledger suites pin
:class:`~repro.ldp.accountant.ColumnarPrivacyAccountant` and
:class:`~repro.ldp.accountant.ScheduleLedger` to it, and
:func:`object_ledger_installed` makes it the ledger of in-process curators
and of the baselines.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable

import numpy as np
import pytest

import repro.baselines.ldp_ids as ldp_ids
import repro.baselines.ldptrace as ldptrace
import repro.core.online as online
from repro.exceptions import PrivacyBudgetError
from repro.ldp.accountant import (
    _EPS_TOL,
    _as_uid,
    _as_uid_array,
    _checked_contract,
    _checked_spend,
)


@dataclass(frozen=True)
class SpendRecord:
    """One user's budget spend at one timestamp."""

    timestamp: int
    epsilon: float


class PrivacyAccountant:
    """Dict-ledger accountant: the reference the engine's ledgers are pinned to.

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
    """

    def __init__(self, epsilon: float, w: int, strict: bool = True) -> None:
        self.epsilon, self.w = _checked_contract(epsilon, w)
        self.strict = bool(strict)
        self._spends: Dict[int, list[SpendRecord]] = defaultdict(list)
        self._violations: list[tuple[int, int, float]] = []
        # Operational counters (scraped by /metrics, never part of the
        # audit summary): spends actually recorded, and spends refused or
        # flagged for breaching the window bound.
        self.n_spend_events = 0
        self.n_refusals = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def spend(self, user_id: int, timestamp: int, epsilon: float) -> None:
        """Record that ``user_id`` consumed ``epsilon`` at ``timestamp``."""
        epsilon = _checked_spend(epsilon)
        # Validate the uid even for free spends, so the two engines reject
        # bad ids identically regardless of epsilon.
        user_id = _as_uid(user_id)
        if epsilon == 0:
            return
        timestamp = int(timestamp)
        window_total = self.window_spend(user_id, timestamp) + epsilon
        if window_total > self.epsilon + _EPS_TOL:
            self.n_refusals += 1
            if self.strict:
                # The spend is refused outright, so no violation is recorded:
                # the ledger still describes only what actually happened.
                raise PrivacyBudgetError(
                    f"user {user_id} would spend {window_total:.6f} > "
                    f"epsilon={self.epsilon} in window ending at t={timestamp}"
                )
            self._violations.append((user_id, timestamp, window_total))
        self._spends[user_id].append(SpendRecord(timestamp, epsilon))
        self.n_spend_events += 1

    def spend_many(self, user_ids: Iterable[int], timestamp: int, epsilon: float) -> None:
        """Record an identical spend for a batch of users.

        Numpy integer arrays are accepted directly; float or object arrays
        raise :class:`~repro.exceptions.ConfigurationError` instead of
        silently creating non-int ledger keys.
        """
        if isinstance(user_ids, np.ndarray):
            user_ids = _as_uid_array(user_ids).tolist()
        for uid in user_ids:
            self.spend(uid, timestamp, epsilon)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def window_spend(self, user_id: int, timestamp: int) -> float:
        """Budget spent by ``user_id`` within ``[timestamp-w+1, timestamp]``."""
        lo = timestamp - self.w + 1
        return sum(
            r.epsilon
            for r in self._spends.get(user_id, ())
            if lo <= r.timestamp <= timestamp
        )

    def window_spend_many(self, user_ids, timestamp: int) -> np.ndarray:
        """Vectorized-signature twin of :meth:`window_spend` (still a loop)."""
        ids = _as_uid_array(user_ids)
        return np.asarray(
            [self.window_spend(int(u), timestamp) for u in ids], dtype=float
        )

    def total_spend(self, user_id: int) -> float:
        """Lifetime budget spent by one user (for audit output only)."""
        return sum(r.epsilon for r in self._spends.get(user_id, ()))

    def max_window_spend(self) -> float:
        """The largest any-user any-window spend observed so far."""
        best = 0.0
        for uid, records in self._spends.items():
            timestamps = sorted({r.timestamp for r in records})
            for t in timestamps:
                best = max(best, self.window_spend(uid, t + self.w - 1))
        return best

    def verify(self) -> bool:
        """Whether every user satisfied the w-event bound at all times."""
        return not self._violations and self.max_window_spend() <= self.epsilon + _EPS_TOL

    @property
    def violations(self) -> list[tuple[int, int, float]]:
        """Recorded ``(user_id, timestamp, window_total)`` violations."""
        return list(self._violations)

    @property
    def n_users(self) -> int:
        return len(self._spends)

    #: The dict ledger keeps every user resident and retires nobody.
    n_rows = n_users
    n_retired = 0

    def user_ids(self) -> list[int]:
        """Every user with at least one recorded spend (audit surface)."""
        return list(self._spends)

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


def _object_accountant(config, slots=None):
    """``make_ledger``'s signature, building the dict ledger for any
    division.

    The dict ledger keys on raw uids, so the shared slot table is left to
    the tracker alone.
    """
    del slots
    return PrivacyAccountant(config.epsilon, config.w)


def _object_baseline_accountant(epsilon, w, **_engine):
    """``make_accountant``'s signature, building the dict ledger."""
    return PrivacyAccountant(epsilon, w)


@contextlib.contextmanager
def object_ledger_installed():
    """Curators and baselines built inside this context keep a
    :class:`PrivacyAccountant`.

    It replaces the engine's ledger factories, so in-process curators
    (``RetraSyn.run``, ``OnlineRetraSyn``, serial shards) and the
    baselines (LBD/LBA/LPD/LPA, LDPTrace) spend into the full-history dict
    ledger — the one that can answer any per-user historical query.
    Distributed shard workers build their own ledgers and are not
    affected.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(online, "make_ledger", _object_accountant)
        for baseline in (ldp_ids, ldptrace):
            mp.setattr(baseline, "make_accountant", _object_baseline_accountant)
        yield PrivacyAccountant


@pytest.fixture
def object_ledger():
    """:func:`object_ledger_installed` for the whole test."""
    with object_ledger_installed() as cls:
        yield cls
