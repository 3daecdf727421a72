"""Tests for the ingestion front-end: the assembler and the serve replay."""

import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api.session import create_session, load_session
from repro.api.specs import SessionSpec
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError
from repro.serve import replay
from repro.stream.events import TransitionState
from repro.stream.ingest import TimestampAssembler
from repro.stream.reports import KIND_MOVE, ColumnarStreamView, ReportBatch
from repro.stream.state_space import TransitionStateSpace


@pytest.fixture(scope="module")
def walks():
    return make_random_walks(k=4, n_streams=60, n_timestamps=16, seed=2)


@pytest.fixture
def space(walks):
    return TransitionStateSpace(walks.grid)


def _batch(space, *pairs):
    """A ReportBatch of ``(uid, TransitionState)`` pairs, in this order."""
    return ReportBatch.from_participants(space, pairs)


def _moves(uids, idx):
    return ReportBatch.from_arrays(uids, idx, [KIND_MOVE] * len(uids))


def _streams(run):
    return [(t.start_time, list(t.cells)) for t in run.synthetic.trajectories]


class TestTimestampAssembler:
    def test_in_order_closing(self, space):
        asm = TimestampAssembler(space)
        asm.add_batch(0, _batch(space, (2, TransitionState.enter(1))))
        asm.add_batch(0, _batch(space, (1, TransitionState.enter(0))))
        assert asm.pop_ready() == []  # t=0 may still receive reports
        asm.add_batch(1, _batch(space, (1, TransitionState.move(0, 1))))
        closed = asm.pop_ready()
        assert [c.t for c in closed] == [0]
        assert closed[0].batch.user_ids.tolist() == [1, 2]
        assert closed[0].newly_entered.tolist() == [1, 2]
        assert closed[0].n_active == 2

    def test_out_of_order_within_lateness(self, space):
        asm = TimestampAssembler(space, max_lateness=2)
        asm.add_batch(2, _batch(space, (1, TransitionState.move(1, 2))))
        asm.add_batch(0, _batch(space, (1, TransitionState.enter(0))))
        asm.add_batch(1, _batch(space, (1, TransitionState.move(0, 1))))
        assert asm.pop_ready() == []  # watermark = 2 - 2 - 1 < 0
        asm.add_batch(4, _batch(space, (2, TransitionState.enter(2))))
        closed = asm.pop_ready()
        assert [c.t for c in closed] == [0, 1]
        assert asm.n_late_dropped == 0

    def test_late_batch_dropped_and_counted(self, space):
        asm = TimestampAssembler(space)
        asm.add_batch(0, _batch(space, (1, TransitionState.enter(0))))
        asm.add_batch(1, _batch(space, (1, TransitionState.move(0, 1))))
        asm.pop_ready()  # closes t=0
        late = _batch(space, (9, TransitionState.enter(3)))
        assert asm.add_batch(0, late) == 0  # too late
        assert asm.n_late_dropped == 1

    def test_late_batch_drop_counting(self, space):
        """Every row of every late batch is counted."""
        asm = TimestampAssembler(space, max_lateness=0)
        asm.add_batch(0, _moves([1], [5]))
        asm.add_batch(3, _moves([2], [5]))
        asm.pop_ready()  # closes t<=2
        assert asm.add_batch(0, _moves([9], [5])) == 0
        assert asm.add_batch(1, _moves([4, 5], [1, 2])) == 0
        assert asm.n_late_dropped == 3

    def test_gap_timestamps_close_empty(self, space):
        asm = TimestampAssembler(space)
        asm.add_batch(0, _batch(space, (1, TransitionState.enter(0))))
        asm.add_batch(5, _batch(space, (2, TransitionState.enter(1))))
        closed = asm.pop_ready()
        assert [c.t for c in closed] == [0, 1, 2, 3, 4]
        assert all(len(c.batch) == 0 for c in closed[1:])

    def test_empty_batches_still_advance_the_clock(self, space):
        asm = TimestampAssembler(space)
        for t in range(3):
            assert asm.add_batch(t, ReportBatch.empty()) == 0
        closed = asm.pop_ready()
        assert [c.t for c in closed] == [0, 1]
        assert all(len(c.batch) == 0 for c in closed)

    def test_duplicate_uid_rows_keep_arrival_order(self, space):
        """Same uid, same t: the stable uid sort keeps arrival order."""
        asm = TimestampAssembler(space)
        asm.add_batch(0, _moves([7], [11]))
        asm.add_batch(0, _moves([3, 7], [22, 33]))
        asm.add_batch(0, _moves([7], [44]))
        asm.add_batch(1, _moves([7], [55]))  # opens t=1
        (closed,) = asm.pop_ready()
        assert closed.batch.user_ids.tolist() == [3, 7, 7, 7]
        assert closed.batch.state_idx.tolist() == [22, 11, 33, 44]

    def test_canonical_order_is_arrival_independent(self, space):
        def close_one(order, split):
            asm = TimestampAssembler(space)
            pairs = [(uid, TransitionState.enter(uid % 4)) for uid in order]
            asm.add_batch(0, _batch(space, *pairs[:split]))
            asm.add_batch(0, _batch(space, *pairs[split:]))
            return asm.flush()[0].batch

        a = close_one([5, 1, 9, 3], split=1)
        b = close_one([3, 9, 1, 5], split=3)
        assert a.user_ids.tolist() == b.user_ids.tolist() == [1, 3, 5, 9]
        assert a.state_idx.tolist() == b.state_idx.tolist()

    def test_backlog_tracks_buffered_rows(self, space):
        asm = TimestampAssembler(space, max_lateness=1)
        asm.add_batch(0, _moves([1, 2], [3, 4]))
        asm.add_batch(1, _moves([1], [5]))
        assert (asm.backlog, asm.backlog_high_water) == (3, 3)
        asm.add_batch(2, _moves([1], [6]))  # closes t=0
        asm.pop_ready()
        assert (asm.backlog, asm.backlog_high_water) == (2, 4)

    def test_flush_closes_everything(self, space):
        asm = TimestampAssembler(space, max_lateness=3)
        asm.add_batch(0, _batch(space, (1, TransitionState.enter(0))))
        asm.add_batch(1, _batch(space, (1, TransitionState.move(0, 1))))
        assert asm.pop_ready() == []
        assert [c.t for c in asm.flush()] == [0, 1]

    def test_negative_lateness_rejected(self, space):
        with pytest.raises(ConfigurationError):
            TimestampAssembler(space, max_lateness=-1)


def _session(walks, **service):
    spec = SessionSpec(epsilon=1.0, w=5, seed=0, transport="ingest", **service)
    return create_session(spec, walks.grid, lam=5.0)


class TestReplay:
    def test_full_replay_processes_everything(self, walks):
        session = _session(walks)
        view = ColumnarStreamView(walks, session.curator.space)
        stats = replay(session, view)
        assert stats.n_timestamps == walks.n_timestamps
        assert stats.n_late_dropped == 0
        assert stats.n_reports_processed == stats.n_submitted
        assert session.curator.accountant.verify()

    def test_curator_error_propagates(self, walks, monkeypatch):
        session = _session(walks)
        view = ColumnarStreamView(walks, session.curator.space)
        batch_at = view.batch_at

        def with_stranger(t):
            # Unknown user 999 moves without ever entering: the tracker
            # must reject it and the error must surface through replay.
            b = batch_at(t)
            return ReportBatch.from_arrays(
                np.append(b.user_ids, 999), np.append(b.state_idx, 0),
                np.append(b.kinds, KIND_MOVE),
            )

        monkeypatch.setattr(view, "batch_at", with_stranger)
        with pytest.raises(ConfigurationError):
            replay(session, view)
        session.curator.close()

    def test_final_checkpoint_written_without_interval(self, walks, tmp_path):
        """checkpoint_path alone means 'checkpoint at end of stream'."""
        path = tmp_path / "c.ckpt"
        session = _session(walks, checkpoint_path=str(path), checkpoint_every=0)
        view = ColumnarStreamView(walks, session.curator.space)
        stats = replay(session, view)
        assert path.exists()
        assert stats.checkpoints_written == 1

    def test_periodic_checkpoints(self, walks, tmp_path):
        path = tmp_path / "c.ckpt"
        session = _session(walks, checkpoint_path=str(path), checkpoint_every=4)
        view = ColumnarStreamView(walks, session.curator.space)
        stats = replay(session, view)
        # 16 timestamps / every 4 => 4 periodic + the final one
        assert stats.checkpoints_written == 5

    def test_worker_thread_replays_without_signal_handlers(self, walks):
        session = _session(walks)
        view = ColumnarStreamView(walks, session.curator.space)
        before = signal.getsignal(signal.SIGTERM)
        out = []
        worker = threading.Thread(target=lambda: out.append(replay(session, view)))
        worker.start()
        worker.join()
        assert out[0].n_timestamps == walks.n_timestamps
        assert signal.getsignal(signal.SIGTERM) is before


class TestReplayDrain:
    """SIGTERM mid-replay: the feed stops after the in-flight round, the
    final checkpoint lands on a timestamp boundary, and a resumed replay
    equals the uninterrupted run."""

    K = 6  # the signal is raised after this many rounds

    @pytest.mark.parametrize("lateness", [0, 1])
    def test_sigterm_drains_to_a_resumable_boundary(
        self, walks, tmp_path, lateness
    ):
        path = tmp_path / "drain.ckpt"
        spec = SessionSpec(
            epsilon=1.0, w=5, seed=0, transport="ingest",
            max_lateness=lateness, checkpoint_path=str(path),
        )
        whole = create_session(
            replace(spec, checkpoint_path=None), walks.grid, lam=5.0
        )
        replay(
            whole, ColumnarStreamView(walks, whole.curator.space),
            shuffle_rng=np.random.default_rng(3),
        )

        session = create_session(spec, walks.grid, lam=5.0)
        view = ColumnarStreamView(walks, session.curator.space)
        curator = session.curator
        process_timestep = curator.process_timestep
        at_signal = []

        def process_then_signal(*args, **kwargs):
            result = process_timestep(*args, **kwargs)
            if len(curator.reporters_per_timestamp) == self.K:
                at_signal.append(self.K)
                signal.raise_signal(signal.SIGTERM)
            return result

        curator.process_timestep = process_then_signal
        stats = replay(session, view, shuffle_rng=np.random.default_rng(3))
        assert at_signal == [self.K]
        assert self.K <= stats.n_timestamps <= self.K + 1
        assert stats.checkpoints_written == 1

        resumed = load_session(path)
        assert resumed.assembler.next_t == stats.n_timestamps
        replay(resumed, view, shuffle_rng=np.random.default_rng(4))
        n = walks.n_timestamps
        assert _streams(resumed.result(n)) == _streams(whole.result(n))
