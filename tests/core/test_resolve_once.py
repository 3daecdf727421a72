"""The K=1 population round resolves its batch's uids once.

Population division maps every participant's uid to a slot of the shared
:class:`~repro.stream.slots.UserSlotTable` when it checks who is active;
the chosen reporters are then marked inactive by those slots, so the
tracker never looks their ids up or interns them again.  A spy on the
table records every ``lookup`` / ``intern`` a round makes and who made it.
"""

import sys

import numpy as np
import pytest

from repro.core.online import OnlineRetraSyn
from repro.core.retrasyn import RetraSynConfig
from repro.datasets.synthetic import make_random_walks
from repro.stream.reports import ColumnarStreamView


def _spy(table, calls: list) -> None:
    """Record ``(method, caller module, ids)`` for each outside call."""
    for name in ("lookup", "intern"):
        method = getattr(table, name)

        def wrapper(user_ids, _method=method, _name=name):
            caller = sys._getframe(1).f_globals["__name__"]
            if caller != "repro.stream.slots":  # intern's own lookup
                calls.append((_name, caller, np.array(user_ids, copy=True)))
            return _method(user_ids)

        setattr(table, name, wrapper)


@pytest.mark.parametrize("allocator", ["adaptive", "random"])
def test_each_round_resolves_the_batch_once(allocator):
    stream = make_random_walks(k=4, n_streams=130, n_timestamps=22, seed=1)
    config = RetraSynConfig(epsilon=1.0, w=5, seed=42, allocator=allocator)
    curator = OnlineRetraSyn(stream.grid, config, lam=5.0)
    calls: list = []
    _spy(curator._slots, calls)
    view = ColumnarStreamView(stream, curator.space)
    for t in range(stream.n_timestamps):
        batch = view.batch_at(t)
        entered, quitted = view.newly_entered_at(t), view.quitted_at(t)
        calls.clear()
        step = curator.process_timestep(
            t, batch, newly_entered=entered, quitted=quitted,
            n_real_active=view.n_active_at(t),
        )
        tracker = [(n, ids) for n, who, ids in calls if who == "repro.stream.user_tracker"]
        ledger = [(n, ids) for n, who, ids in calls if who == "repro.ldp.accountant"]
        assert len(tracker) + len(ledger) == len(calls), calls
        # register(arrivals) with an int64 array, one lookup of the
        # batch, mark_quitted(quits) -- and no call with the reporters.
        assert [n for n, _ in tracker] == ["intern", "lookup", "intern"]
        assert tracker[0][1].dtype == np.int64
        np.testing.assert_array_equal(tracker[0][1], entered)
        np.testing.assert_array_equal(tracker[1][1], batch.user_ids)
        np.testing.assert_array_equal(tracker[2][1], quitted)
        # The ledger's spend interns the reporters (it takes uids).
        if step.n_reporters:
            assert [(n, ids.size) for n, ids in ledger] == [("intern", step.n_reporters)]
        else:
            assert ledger == []
    assert sum(curator.reporters_per_timestamp) > 0
