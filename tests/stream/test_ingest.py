"""Tests for the async ingestion front-end (assembler + service)."""

import signal
import time

import pytest

from repro.api.session import create_session
from repro.api.specs import SessionSpec
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError
from repro.stream.events import TransitionState
from repro.stream.ingest import (
    TimestampAssembler,
    UserReport,
    dataset_reports,
    ingest_events,
)
from repro.stream.reports import (
    KIND_ENTER,
    KIND_MOVE,
    ColumnarStreamView,
    ReportBatch,
)
from repro.stream.state_space import TransitionStateSpace


@pytest.fixture(scope="module")
def walks():
    return make_random_walks(k=4, n_streams=60, n_timestamps=16, seed=2)


@pytest.fixture
def space(walks):
    return TransitionStateSpace(walks.grid)


class TestTimestampAssembler:
    def test_in_order_closing(self, space):
        asm = TimestampAssembler(space)
        asm.add(UserReport(1, 0, TransitionState.enter(0)))
        asm.add(UserReport(2, 0, TransitionState.enter(1)))
        assert asm.pop_ready() == []  # t=0 may still receive reports
        asm.add(UserReport(1, 1, TransitionState.move(0, 1)))
        closed = asm.pop_ready()
        assert [c.t for c in closed] == [0]
        assert closed[0].batch.user_ids.tolist() == [1, 2]
        assert closed[0].newly_entered.tolist() == [1, 2]
        assert closed[0].n_active == 2

    def test_out_of_order_within_lateness(self, space):
        asm = TimestampAssembler(space, max_lateness=2)
        asm.add(UserReport(1, 2, TransitionState.move(1, 2)))
        asm.add(UserReport(1, 0, TransitionState.enter(0)))  # 2 behind max
        asm.add(UserReport(1, 1, TransitionState.move(0, 1)))
        assert asm.pop_ready() == []  # watermark = 2 - 2 - 1 < 0
        asm.add(UserReport(2, 4, TransitionState.enter(2)))
        closed = asm.pop_ready()
        assert [c.t for c in closed] == [0, 1]
        assert asm.n_late_dropped == 0

    def test_late_report_dropped_and_counted(self, space):
        asm = TimestampAssembler(space)
        asm.add(UserReport(1, 0, TransitionState.enter(0)))
        asm.add(UserReport(1, 1, TransitionState.move(0, 1)))
        asm.pop_ready()  # closes t=0
        asm.add(UserReport(9, 0, TransitionState.enter(3)))  # too late
        assert asm.n_late_dropped == 1

    def test_late_batch_drop_counting(self, space):
        """Late single reports and late batch rows share one counter."""
        asm = TimestampAssembler(space, max_lateness=0)
        asm.add(UserReport.encoded(1, 0, 5, KIND_MOVE))
        asm.add(UserReport.encoded(2, 3, 5, KIND_MOVE))
        asm.pop_ready()  # closes t<=2
        asm.add(UserReport.encoded(9, 0, 5, KIND_MOVE))  # late
        late_batch = ReportBatch.from_arrays([4, 5], [1, 2], [0, 0])
        assert asm.add_batch(1, late_batch) == 0  # the whole batch is late
        assert asm.n_late_dropped == 3

    def test_gap_timestamps_close_empty(self, space):
        asm = TimestampAssembler(space)
        asm.add(UserReport(1, 0, TransitionState.enter(0)))
        asm.add(UserReport(2, 5, TransitionState.enter(1)))
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
        asm.add(UserReport.encoded(7, 0, 11, KIND_MOVE))
        asm.add(UserReport.encoded(3, 0, 22, KIND_MOVE))
        asm.add_batch(0, ReportBatch.from_arrays([7], [33], [KIND_MOVE]))
        asm.add(UserReport.encoded(7, 0, 44, KIND_MOVE))
        asm.add(UserReport.encoded(7, 1, 55, KIND_MOVE))  # opens t=1
        (closed,) = asm.pop_ready()
        assert closed.batch.user_ids.tolist() == [3, 7, 7, 7]
        assert closed.batch.state_idx.tolist() == [22, 11, 33, 44]

    def test_canonical_order_is_arrival_independent(self, space):
        def close_one(order):
            asm = TimestampAssembler(space)
            for uid in order:
                asm.add(UserReport(uid, 0, TransitionState.enter(uid % 4)))
            return asm.flush()[0].batch

        a = close_one([5, 1, 9, 3])
        b = close_one([3, 9, 1, 5])
        assert a.user_ids.tolist() == b.user_ids.tolist() == [1, 3, 5, 9]
        assert a.state_idx.tolist() == b.state_idx.tolist()

    def test_flush_closes_everything(self, space):
        asm = TimestampAssembler(space, max_lateness=3)
        asm.add(UserReport(1, 0, TransitionState.enter(0)))
        asm.add(UserReport(1, 1, TransitionState.move(0, 1)))
        assert asm.pop_ready() == []
        assert [c.t for c in asm.flush()] == [0, 1]

    def test_encoded_reports(self, space):
        asm = TimestampAssembler(space)
        asm.add(UserReport.encoded(4, 0, space.index_of_enter(1), KIND_ENTER))
        closed = asm.flush()
        assert closed[0].batch.state_idx.tolist() == [space.index_of_enter(1)]

    def test_invalid_report_rejected(self, space):
        asm = TimestampAssembler(space)
        with pytest.raises(ConfigurationError):
            asm.add(UserReport(1, 0))  # neither state nor encoded form

    def test_negative_lateness_rejected(self, space):
        with pytest.raises(ConfigurationError):
            TimestampAssembler(space, max_lateness=-1)


class TestIngestionService:
    def _session(self, walks, **service):
        spec = SessionSpec(
            epsilon=1.0, w=5, seed=0, transport="ingest", **service
        )
        return create_session(spec, walks.grid, lam=5.0)

    def test_full_replay_processes_everything(self, walks):
        session = self._session(walks)
        view = ColumnarStreamView(walks, session.curator.space)
        stats = ingest_events(session, dataset_reports(view))
        assert stats.n_timestamps == walks.n_timestamps
        assert stats.n_late_dropped == 0
        assert stats.n_reports_processed == stats.n_submitted
        assert session.curator.accountant.verify()

    def test_backpressure_with_tiny_queue(self, walks):
        session = self._session(walks, queue_size=8)
        view = ColumnarStreamView(walks, session.curator.space)
        stats = ingest_events(session, dataset_reports(view))
        assert stats.backpressure_waits > 0
        assert stats.n_timestamps == walks.n_timestamps

    def test_curator_error_propagates_not_deadlocks(self, walks):
        session = self._session(walks, queue_size=4)
        view = ColumnarStreamView(walks, session.curator.space)
        # Unknown user 999 moves without ever entering: the tracker must
        # reject it and the error must surface through ingest_events.
        bad = [UserReport(999, 0, TransitionState.move(0, 1))] + list(
            dataset_reports(view)
        )
        with pytest.raises(ConfigurationError):
            ingest_events(session, bad)

    def test_invalid_queue_size(self, walks):
        with pytest.raises(ConfigurationError):
            self._session(walks, queue_size=0)

    def test_final_checkpoint_written_without_interval(self, walks, tmp_path):
        """checkpoint_path alone means 'checkpoint at end of stream'."""
        path = tmp_path / "c.ckpt"
        session = self._session(
            walks, checkpoint_path=str(path), checkpoint_every=0
        )
        view = ColumnarStreamView(walks, session.curator.space)
        stats = ingest_events(session, dataset_reports(view))
        assert path.exists()
        assert stats.checkpoints_written == 1

    def test_periodic_checkpoints(self, walks, tmp_path):
        path = tmp_path / "c.ckpt"
        session = self._session(
            walks, checkpoint_path=str(path), checkpoint_every=4
        )
        view = ColumnarStreamView(walks, session.curator.space)
        stats = ingest_events(session, dataset_reports(view))
        # 16 timestamps / every 4 => 4 periodic + the final one
        assert stats.checkpoints_written == 5


class TestDrainDeadline:
    """SIGTERM mid-replay: the drain is bounded by ``drain_deadline``."""

    ROUND_DELAY = 0.02  # seconds each (slowed) advance takes

    def _drain(self, walks, tmp_path, deadline):
        path = tmp_path / "drain.ckpt"
        spec = SessionSpec(
            epsilon=1.0, w=5, seed=0, transport="ingest", queue_size=64,
            checkpoint_path=str(path), drain_deadline=deadline,
        )
        session = create_session(spec, walks.grid, lam=5.0)
        advance = session.advance

        def slow_advance():
            time.sleep(self.ROUND_DELAY)
            return advance()

        session.advance = slow_advance
        view = ColumnarStreamView(walks, session.curator.space)

        def reports():
            # The signal lands while the producer fills the queue, so the
            # drain starts with a backlog of queued reports to advance.
            signal.raise_signal(signal.SIGTERM)
            yield from dataset_reports(view)

        stats = ingest_events(session, reports())
        session.curator.close()
        return stats, path

    def test_deadline_stops_a_slow_drain(self, walks, tmp_path):
        bounded, path = self._drain(walks, tmp_path, deadline=0.05)
        assert bounded.checkpoints_written == 0
        assert not path.exists()  # stopped before the final checkpoint
        unbounded, path = self._drain(walks, tmp_path, deadline=0)
        assert unbounded.checkpoints_written == 1  # 0 = no bound
        assert path.exists()
        assert bounded.n_timestamps < unbounded.n_timestamps
