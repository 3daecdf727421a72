"""State lifetime end to end: the curator holds what the active set needs.

Sessions are driven with constant-active churn in which uids *return*
(some inside a privacy window of their quit, some long after).  Four
things are pinned: the w-event guarantee survives retirement and
re-admission (an independent dict ledger audits every spend), state stays
bounded over 40·w rounds under both divisions, a checkpoint cut between
two compactions resumes bit for bit, and the session reports its planes.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import create_session, load_session
from repro.api.specs import SessionSpec
from repro.geo.grid import unit_grid
from repro.stream import slots as slots_module
from repro.stream.state_space import TransitionStateSpace

from reference.ledger import PrivacyAccountant

GRID = unit_grid(4)
EPSILON = 1.0


def _session(division, w, seed, n_shards=1, executor="serial", **service):
    spec = SessionSpec(
        epsilon=EPSILON, w=w, division=division, engine="vectorized",
        n_shards=n_shards, shard_executor=executor, seed=seed, **service,
    )
    return create_session(spec, GRID, lam=4.0)


def _drive(session, stream, rounds):
    """Feed ``rounds``; returns every snapshot, as bytes, in order."""
    snapshots = []
    for t in rounds:
        batch, entered, quitted, n_active = stream.round(t)
        session.submit_batch(
            t, batch, newly_entered=entered, quitted=quitted, n_real_active=n_active
        )
        session.advance()
        snapshots.append(session.snapshot().astype(np.int64).tobytes())
    return snapshots


# ---------------------------------------------------------------------- #
# privacy: no uid exceeds ε in any window, even when uids return
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("division", ["population", "budget"])
@pytest.mark.parametrize("n_shards", [1, 2])
@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=6, deadline=None)
def test_no_uid_exceeds_epsilon_in_any_window_when_uids_return(
    churn_stream, division, n_shards, seed
):
    w = 3
    with mock.patch.object(slots_module, "_MIN_COMPACT_ROWS", 16):
        session = _session(division, w, seed % 1000, n_shards=n_shards)
        curator = session.curator
        # The audit: a dict ledger that keeps every spend of every user
        # forever, fed by a spy on the production ledger.
        audit = PrivacyAccountant(EPSILON, w, strict=False)
        spend_many = curator.accountant.spend_many

        def spy(user_ids, t, epsilon):
            audit.spend_many(np.asarray(user_ids), t, epsilon)
            spend_many(user_ids, t, epsilon)

        curator.accountant.spend_many = spy
        stream = churn_stream(
            curator.space, n_active=40, mean_length=3.0, seed=seed,
            return_share=0.6,
        )
        _drive(session, stream, range(14 * w))
        state = session.stats()["state"]
        session.close()
    assert stream.returns, "the churn must bring uids back"
    assert audit.violations == []
    assert audit.max_window_spend() <= EPSILON + 1e-9
    privacy = session.stats()["privacy"]
    assert privacy["satisfied"]
    if division == "population":
        assert state["retired"]["ledger"] > 0
        assert privacy["n_users"] == audit.n_users
        assert privacy["max_window_spend"] == pytest.approx(audit.max_window_spend())
    else:  # the schedule ledger bounds every user's spend from above
        assert privacy["n_reports"] == audit.n_spend_events
        assert privacy["max_window_spend"] >= audit.max_window_spend() - 1e-9
    returned = {uid for uid, _t in stream.returns}
    assert returned & set(audit.user_ids()), "returning uids reported again"


# ---------------------------------------------------------------------- #
# bounded state: 40·w rounds of constant-active churn
# ---------------------------------------------------------------------- #
def _table_bytes(table) -> int:
    """Bytes the resident rows occupy: uid column, hung columns, and the
    index (the dense map whole, since it spans uids rather than rows)."""
    per_row = 8 + (16 if table._sorted_uids is not None else 0) + sum(
        column.data.itemsize * int(np.prod(column.data.shape[:-1]))
        for column in table._columns
    )
    dense_map = table._map.nbytes if table._map is not None else 0
    return table.n_slots * per_row + dense_map


def _live_state_bytes(curator) -> int:
    """numpy bytes in use by ledger, tracker, slot tables and the store's
    live vectors (row id, current cell, length)."""
    trackers = [shard.tracker for shard in curator._shards or []]
    ledger_table = getattr(curator.accountant, "_slots", None)  # none: schedule
    tables = {id(ledger_table): ledger_table} if ledger_table is not None else {}
    total = 0
    for tracker in filter(None, trackers):
        tables[id(tracker._table)] = tracker._table
        total += tracker._hist_n * 16
    total += sum(_table_bytes(table) for table in tables.values())
    store = curator.synthesizer.store
    live = (store._rows, store._cur, store._len)
    return total + sum(vector.nbytes for vector in live)


@pytest.mark.parametrize("division", ["population", "budget"])
@pytest.mark.parametrize("n_shards", [1, 2])
def test_state_stays_bounded_over_forty_windows(churn_stream, division, n_shards):
    w = 5
    horizon = 40 * w
    session = _session(division, w, seed=5, n_shards=n_shards)
    curator = session.curator
    stream = churn_stream(
        curator.space, n_active=1_500, mean_length=4.0, seed=5, return_share=0.1
    )
    in_use, cpu_ms = [], []
    for t in range(horizon):
        batch, entered, quitted, n_active = stream.round(t)
        # Thread CPU time: a round's own work (array copies included), not
        # the moments this shared host ran somebody else.
        tic = time.thread_time()
        session.submit_batch(
            t, batch, newly_entered=entered, quitted=quitted, n_real_active=n_active
        )
        session.advance()
        session.snapshot()
        cpu_ms.append((time.thread_time() - tic) * 1e3)
        in_use.append(_live_state_bytes(curator))
    state = session.stats()["state"]
    session.close()

    # Memory: the peak over the last quarter against the peak over the
    # second quarter (peaks, because a table breathes between compactions).
    early = max(in_use[horizon // 4 : horizon // 2])
    late = max(in_use[3 * horizon // 4 :])
    assert late <= 1.2 * early, (early, late)
    # ... while everyone-ever-seen kept growing, and rows were retired
    # (budget division's schedule ledger holds no per-user rows at all).
    seen = state["rows"]["ledger"] + state["retired"]["ledger"]
    if division == "population":
        assert seen > 5 * state["rows"]["ledger"]
    else:
        assert seen == 0
    assert state["rows"]["store_archived"] > 10 * state["rows"]["store_live"]
    # Latency: no growth stall — no round costs 10x the median round.
    steady = cpu_ms[w:]
    assert max(steady) < 10 * float(np.median(steady)), (
        max(steady), float(np.median(steady))
    )


# ---------------------------------------------------------------------- #
# checkpoints: cut between two compactions, resume bit for bit
# ---------------------------------------------------------------------- #
#: The default cut falls between two slot-table compactions.
_BETWEEN_COMPACTIONS = 20


def _resume_at_cut(churn_stream, tmp_path, n_shards, executor, cut=_BETWEEN_COMPACTIONS):
    """Run whole vs. checkpoint-at-cut-and-resume; assert them bit-identical.

    A cut before the default one falls before any slot table compacted, a
    later one after both planes did (asserted).  Returns the resumed
    session's trajectory store.
    """
    w, horizon = 3, 44

    def fresh():
        session = _session("population", w, seed=9, n_shards=n_shards, executor=executor)
        stream = churn_stream(
            TransitionStateSpace(GRID), n_active=900, mean_length=3.0, seed=9,
            return_share=0.5,
        )
        return session, stream

    whole, stream = fresh()
    reference = _drive(whole, stream, range(horizon))
    reference_result = whole.result()
    reference_stats = whole.stats()
    whole.close()

    first, stream = fresh()
    head = _drive(first, stream, range(cut))
    retired_at_cut = first.stats()["state"]["retired"]
    path = tmp_path / "cut.ckpt"
    first.checkpoint(str(path))
    first.close()
    resumed = load_session(str(path))
    tail = _drive(resumed, stream, range(cut, horizon))
    stats = resumed.stats()
    result = resumed.result()
    resumed.close()

    retired = stats["state"]["retired"]
    for plane in ("ledger", "tracker"):
        if cut == _BETWEEN_COMPACTIONS:  # the cut really sits between compactions
            assert 0 < retired_at_cut[plane] < retired[plane], plane
        else:
            assert (retired_at_cut[plane] > 0) == (cut > _BETWEEN_COMPACTIONS), plane
    if cut == _BETWEEN_COMPACTIONS:  # and uids came back after it
        assert any(t >= cut for _uid, t in stream.returns)
    assert head + tail == reference
    assert stats["privacy"] == reference_stats["privacy"]
    assert stats["state"] == reference_stats["state"]
    store, ref_store = result.synthetic.trajectories.store, (
        reference_result.synthetic.trajectories.store
    )
    rows = np.arange(store.n_total)
    assert store.n_total == ref_store.n_total
    np.testing.assert_array_equal(store.flat_cells(rows), ref_store.flat_cells(rows))
    np.testing.assert_array_equal(store.births_of(rows), ref_store.births_of(rows))
    return store


_RESUME_SHAPES = pytest.mark.parametrize(
    "n_shards, executor", [(1, "serial"), (2, "distributed")]
)


@_RESUME_SHAPES
def test_resume_between_two_compactions_is_bitwise(
    churn_stream, tmp_path, n_shards, executor
):
    store = _resume_at_cut(churn_stream, tmp_path, n_shards, executor)
    assert store._cells.dtype == np.int8  # 16 cells: one byte per point


@pytest.mark.parametrize(
    "cut", [2, _BETWEEN_COMPACTIONS, 41], ids=["early", "between", "late"]
)
@pytest.mark.parametrize(
    "n_shards, executor", [(1, "serial"), (3, "serial"), (2, "distributed")]
)
def test_resume_at_any_cut_is_bitwise(churn_stream, tmp_path, n_shards, executor, cut):
    """Early (before any row retires), between two compactions, and late:
    each resume equals the uninterrupted run, whatever the executor."""
    _resume_at_cut(churn_stream, tmp_path, n_shards, executor, cut=cut)


# ---------------------------------------------------------------------- #
# observability
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n_shards, executor", [(1, "serial"), (2, "serial"), (2, "distributed")]
)
def test_session_reports_its_state_planes(churn_stream, n_shards, executor):
    session = _session("population", 3, seed=2, n_shards=n_shards, executor=executor)
    stream = churn_stream(
        session.curator.space, n_active=700, mean_length=3.0, seed=2
    )
    _drive(session, stream, range(24))
    state = session.stats()["state"]
    assert set(state["rows"]) == {"ledger", "tracker", "store_live", "store_archived"}
    assert set(state["retired"]) == {"ledger", "tracker", "store_live"}
    assert state["rows"]["store_live"] == 700
    assert state["rows"]["store_archived"] == state["retired"]["store_live"] > 0
    for plane in ("ledger", "tracker"):
        assert state["rows"][plane] > 0 and state["retired"][plane] > 0, plane
    text = session.metrics.render()
    for plane, n in state["rows"].items():
        assert f'retrasyn_state_rows{{plane="{plane}"}} {n}' in text
    for plane, n in state["retired"].items():
        assert f'retrasyn_retired_total{{plane="{plane}"}} {n}' in text
    session.close()
    # Still answerable once the workers are gone.
    assert session.stats()["state"] == state
