"""The dict ledger as the curator's accountant, for curator-level suites."""

from __future__ import annotations

import contextlib

import pytest

import repro.core.online as online
from repro.ldp.accountant import PrivacyAccountant


def _object_accountant(config, slots=None):
    """``make_ledger``'s signature, building the dict ledger for any
    division.

    The dict ledger keys on raw uids, so the shared slot table is left to
    the tracker alone.
    """
    del slots
    return PrivacyAccountant(config.epsilon, config.w)


@contextlib.contextmanager
def object_ledger_installed():
    """Curators built inside this context keep a :class:`PrivacyAccountant`.

    It replaces the engine's ledger factory, so in-process curators
    (``RetraSyn.run``, ``OnlineRetraSyn``, serial shards) spend into the
    full-history dict ledger — the one that can answer any per-user
    historical query.  Distributed shard workers build their own ledgers
    and are not affected.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(online, "make_ledger", _object_accountant)
        yield PrivacyAccountant


@pytest.fixture
def object_ledger():
    """:func:`object_ledger_installed` for the whole test."""
    with object_ledger_installed() as cls:
        yield cls
