"""The columnar ledger's audit archive: its in-place fold and what it costs.

Retired rows leave their uid and lifetime total in an append-only archive,
one sorted run per compaction; a uid that returned and retired again holds
several entries.  The first audit query after an out-of-order append folds
the archive into one uid-sorted entry per uid.  These tests pin the fold to
the ``np.unique`` + ``bincount`` reference bit for bit, and its memory to
the two 8 B/row temporaries it is allowed.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.ldp.accountant import ColumnarPrivacyAccountant
from repro.stream import slots as slots_module


def _reference(uids: np.ndarray, totals: np.ndarray):
    """The fold as ``np.unique`` + ``bincount`` (lifetime totals summed in
    the order the entries were retired)."""
    folded, inverse = np.unique(uids, return_inverse=True)
    return folded, np.bincount(inverse, weights=totals, minlength=folded.size)


def _assert_bitwise(got, want) -> None:
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _with_archive(uids: np.ndarray, totals: np.ndarray) -> ColumnarPrivacyAccountant:
    """A ledger whose archive holds these raw entries, not yet folded."""
    ledger = ColumnarPrivacyAccountant(1.0, w=3)
    state = ledger.state()
    state.update(arch_uid=uids, arch_total=totals, arch_sorted=False)
    ledger.load_state(state)
    return ledger


@pytest.mark.parametrize("seed", range(12))
def test_fold_of_out_of_order_runs_matches_the_reference(seed):
    rng = np.random.default_rng(seed)
    # Sorted runs (one per compaction) over a uid range small enough that
    # uids return, sometimes several times; runs arrive in any order.
    span = int(rng.integers(20, 2_000))
    runs = [
        np.sort(rng.choice(span, int(rng.integers(1, span // 4 + 2)), replace=False))
        for _ in range(int(rng.integers(2, 30)))
    ]
    uids = np.concatenate([runs[i] for i in rng.permutation(len(runs))])
    totals = rng.random(uids.size) * rng.choice([1e-3, 1.0, 7.0])
    ledger = _with_archive(uids.astype(np.int64), totals)
    want = _reference(uids.astype(np.int64), totals)
    _assert_bitwise(ledger._archive(), want)
    _assert_bitwise(ledger._archive(), want)  # a folded archive stays put


def test_fold_without_repeats_is_a_permutation():
    uids = np.array([9, 11, 2, 4, 6, 0], dtype=np.int64)
    totals = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    got_uids, got_totals = _with_archive(uids, totals)._archive()
    assert got_uids.tolist() == [0, 2, 4, 6, 9, 11]
    assert got_totals.tolist() == [0.6, 0.3, 0.4, 0.5, 0.1, 0.2]


def test_fold_after_real_retirements_matches_the_reference():
    """Churn with returning uids: the archive the compaction left, folded
    by the first audit query, equals the reference over its raw entries,
    and the audit surface agrees with it."""
    rng = np.random.default_rng(5)
    with mock.patch.object(slots_module, "_MIN_COMPACT_ROWS", 4):
        ledger = ColumnarPrivacyAccountant(1.0, w=2)
        for t in range(0, 300, 3):
            uids = rng.choice(60, int(rng.integers(1, 9)), replace=False)
            ledger.spend_many(uids, t, float(rng.choice([0.1, 0.3, 0.7])))
        state = ledger.state()
        assert state["arch_sorted"] is False
        raw_uids, raw_totals = state["arch_uid"].copy(), state["arch_total"].copy()
        assert raw_uids.size > np.unique(raw_uids).size  # uids returned
        want = _reference(raw_uids, raw_totals)
        n_users = ledger.n_users  # the first audit query folds
        _assert_bitwise(ledger._archive(), want)
        live = ledger._live_spenders()
        assert n_users == np.union1d(want[0], live).size
        assert sorted(ledger.user_ids()) == np.union1d(want[0], live).tolist()
        archived = dict(zip(want[0].tolist(), want[1].tolist()))
        for uid in want[0][~np.isin(want[0], live)].tolist():
            assert ledger.total_spend(uid) == archived[uid]


def test_first_audit_query_folds_in_at_most_17_bytes_per_archived_row():
    """Retire 200k rows, then an out-of-order run with returning uids: the
    first ``summary()`` folds the archive in place.  ``np.unique`` with
    its inverse plus ``bincount`` peaked at about 47 B per archived row."""
    n = 200_000
    first = np.arange(n, dtype=np.int64) * 2 + 2
    back = np.r_[np.arange(1, 2_048, 2), np.arange(2, 400, 2)]  # new, returning
    later = np.arange(2_049, 6_144, 2)
    ledger = ColumnarPrivacyAccountant(1.0, w=2)
    ledger.spend_many(first, 0, 0.5)
    # t=3: the table scans (it holds >= 1,024 rows) and retires all n, in
    # uid order; the next scan runs once the table has doubled again.
    ledger.spend_many(back, 3, 0.25)
    ledger.spend_many(later, 4, 0.25)
    # t=9: every row of t=3 and t=4 retires, out of uid order.
    ledger.spend_many(np.array([0]), 9, 0.25)
    state = ledger.state()
    assert state["arch_sorted"] is False
    n_archived = state["arch_uid"].size
    assert n_archived == n + back.size + later.size
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        summary = ledger.summary()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert summary["n_users"] == np.unique(np.r_[first, back, later, 0]).size
    assert peak <= 17 * n_archived, peak / n_archived
