"""The CuratorSession protocol, the create_session factory, and
session/batch-pipeline equivalence."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api.session import (
    CuratorSession,
    DirectSession,
    IngestSession,
    create_session,
    load_session,
)
from repro.api.specs import SessionSpec
from repro.core.online import OnlineRetraSyn
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.exceptions import ConfigurationError, DatasetError, ReproError
from repro.geo.trajectory import average_length
from repro.stream.reports import (
    KIND_ENTER,
    KIND_MOVE,
    ColumnarStreamView,
    ReportBatch,
)


def _lam(data):
    return max(1.0, average_length(data.trajectories))


def _drive(session, data, close=True):
    """Replay ``data`` through a session, timestamp by timestamp."""
    view = ColumnarStreamView(data, session.curator.space)
    for t in range(data.n_timestamps):
        session.submit_batch(
            t,
            view.batch_at(t),
            newly_entered=view.newly_entered_at(t),
            quitted=view.quitted_at(t),
            n_real_active=view.n_active_at(t),
        )
        session.advance()
    if close:
        session.close()
    return session.result(data.n_timestamps)


def _streams(dataset):
    return [(t.start_time, list(t.cells)) for t in dataset]


class TestFactory:
    def test_three_engine_families_one_protocol(self, walk_data):
        spec = SessionSpec(epsilon=1.0, w=10, seed=0)
        cases = [
            (spec, DirectSession, 1),
            (replace(spec, n_shards=3), DirectSession, 3),
            (replace(spec, transport="ingest"), IngestSession, 1),
            (replace(spec, transport="ingest", n_shards=2), IngestSession, 2),
        ]
        for s, session_cls, n_shards in cases:
            session = create_session(s, walk_data.grid, lam=_lam(walk_data))
            try:
                assert isinstance(session, CuratorSession)
                assert isinstance(session, session_cls)
                assert isinstance(session.curator, OnlineRetraSyn)
                assert len(session.curator._shards) == n_shards
                assert session.spec == s
            finally:
                session.close()

    def test_lam_is_required(self, walk_data):
        with pytest.raises(ConfigurationError, match="lambda"):
            create_session(SessionSpec(), walk_data.grid)

    def test_lam_from_engine_spec(self, walk_data):
        spec = SessionSpec(lam=7.0)
        session = create_session(spec, walk_data.grid)
        assert session.curator.lam == 7.0

    def test_flat_config_is_the_spec(self, walk_data):
        """``RetraSynConfig`` is ``SessionSpec``: the factory takes it as is."""
        config = RetraSynConfig(epsilon=1.0, w=10, seed=0)
        session = create_session(config, walk_data.grid, lam=5.0)
        try:
            assert session.spec is config
            assert session.curator.config is config
        finally:
            session.close()


class TestEquivalence:
    """Sessions must be bit-identical to the batch pipeline for a fixed
    seed — they are the same engines behind a different surface."""

    @pytest.mark.parametrize("transport", ["direct", "ingest"])
    def test_session_matches_batch_pipeline(self, walk_data, transport):
        config = RetraSynConfig(epsilon=1.0, w=10, seed=123)
        batch_run = RetraSyn(config).run(walk_data)
        spec = replace(config, transport=transport)
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        run = _drive(session, walk_data)
        assert _streams(run.synthetic) == _streams(batch_run.synthetic)

    def test_sharded_session_matches_sharded_batch(self, walk_data):
        config = RetraSynConfig(epsilon=1.0, w=10, seed=9, n_shards=3)
        batch_run = RetraSyn(config).run(walk_data)
        session = create_session(config, walk_data.grid, lam=_lam(walk_data))
        run = _drive(session, walk_data)
        assert _streams(run.synthetic) == _streams(batch_run.synthetic)

    @pytest.mark.parametrize("transport", ["direct", "ingest"])
    def test_distributed_session_matches_serial_batch(
        self, walk_data, transport
    ):
        """A K=2 distributed session runs the same rounds as the K=2
        serial batch pipeline."""
        config = RetraSynConfig(epsilon=1.0, w=10, seed=21, n_shards=2)
        batch_run = RetraSyn(config).run(walk_data)
        spec = replace(config, transport=transport, shard_executor="distributed")
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        run = _drive(session, walk_data)
        assert _streams(run.synthetic) == _streams(batch_run.synthetic)
        assert run.reporters_per_timestamp == batch_run.reporters_per_timestamp
        assert run.accountant.summary() == batch_run.accountant.summary()

    def test_ingest_session_reorders_late_reports(self, walk_data):
        """Out-of-order submission within the lateness bound is invisible,
        also when a timestamp's reports come in several batches."""
        config = RetraSynConfig(epsilon=1.0, w=10, seed=5)
        reference = RetraSyn(config).run(walk_data)

        spec = replace(config, transport="ingest", max_lateness=1)
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        view = ColumnarStreamView(walk_data, session.curator.space)
        rng = np.random.default_rng(0)
        for t0 in range(0, walk_data.n_timestamps, 2):
            parts = []
            for t in range(t0, min(t0 + 2, walk_data.n_timestamps)):
                b = view.batch_at(t)
                rows = rng.permutation(len(b))
                half = len(rows) // 2
                parts += [(t, b.take(rows[:half])), (t, b.take(rows[half:]))]
            for i in rng.permutation(len(parts)):
                session.submit_batch(*parts[int(i)])
            session.advance()
        session.close()
        run = session.result(walk_data.n_timestamps)
        assert _streams(run.synthetic) == _streams(reference.synthetic)


class TestSessionSurface:
    def test_snapshot_and_stats(self, walk_data):
        spec = SessionSpec(epsilon=1.0, w=10, seed=0)
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        _drive(session, walk_data, close=False)
        snap = session.snapshot()
        assert isinstance(snap, np.ndarray)
        assert snap.size == session.curator.synthesizer.n_live
        stats = session.stats()
        assert stats["n_timestamps"] == walk_data.n_timestamps
        assert stats["last_t"] == walk_data.n_timestamps - 1
        assert stats["privacy"]["satisfied"] is True
        session.close()

    def test_ingest_stats_section(self, walk_data):
        spec = SessionSpec(epsilon=1.0, w=10, seed=0, transport="ingest")
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        _drive(session, walk_data, close=False)
        stats = session.stats()
        assert stats["ingest"]["n_submitted"] > 0
        session.close()
        assert session.stats()["n_timestamps"] == walk_data.n_timestamps

    def test_result_defaults_to_processed_horizon(self, walk_data):
        spec = SessionSpec(epsilon=1.0, w=10, seed=0)
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        view = ColumnarStreamView(walk_data, session.curator.space)
        for t in range(4):
            session.submit_batch(
                t, view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
        session.advance()
        run = session.result()
        assert run.synthetic.n_timestamps == 4
        assert "RetraSyn_p" in run.synthetic.name

    def test_direct_close_drains_staged_batches(self, walk_data):
        """close() is end-of-stream for every transport: staged-but-not-
        advanced batches must be processed, like the ingest flush."""
        spec = SessionSpec(epsilon=1.0, w=10, seed=0)
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        view = ColumnarStreamView(walk_data, session.curator.space)
        for t in range(walk_data.n_timestamps):
            session.submit_batch(
                t, view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
        session.close()  # no explicit advance()
        assert session.stats()["n_timestamps"] == walk_data.n_timestamps

    def test_close_is_idempotent(self, walk_data):
        spec = SessionSpec(epsilon=1.0, w=10, seed=0)
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        session.close()
        session.close()

    def test_close_releases_workers_when_the_final_checkpoint_fails(
        self, walk_data, tmp_path
    ):
        """A final checkpoint that raises still shuts the shard workers
        down, and the error reaches the caller."""
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=0, n_shards=2,
            shard_executor="distributed",
            checkpoint_path=str(tmp_path / "missing" / "c.ckpt"),
        )
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        pool = session.curator._pool
        assert pool.alive
        with pytest.raises(FileNotFoundError):
            session.close()
        assert not pool.alive

    def test_checkpoint_without_path_raises(self, walk_data):
        session = create_session(
            SessionSpec(seed=0), walk_data.grid, lam=5.0
        )
        with pytest.raises(ConfigurationError, match="checkpoint"):
            session.checkpoint()


class TestSubmitRefusesOutOfDomainRows:
    """A batch no round can process is refused at submit, before anything
    is staged, so the stream continues as if it had never been sent."""

    @pytest.mark.parametrize("transport", ["direct", "ingest"])
    @pytest.mark.parametrize(
        "row_kind, column, value",
        [(KIND_MOVE, "state_idx", 10**9), (KIND_MOVE, "state_idx", -3),
         (KIND_MOVE, "state_idx", -1), (KIND_MOVE, "kinds", 9),
         (KIND_MOVE, "kinds", -1),
         # An EQ space reports enter rows, so the -1 a NoEQ space gives
         # them is out of its domain.
         (KIND_ENTER, "state_idx", -1)],
    )
    def test_refused_batch_leaves_the_stream_untouched(
        self, walk_data, transport, row_kind, column, value
    ):
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=5, transport=transport
        )
        reference = _drive(
            create_session(spec, walk_data.grid, lam=_lam(walk_data)),
            walk_data,
        )
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        view = ColumnarStreamView(walk_data, session.curator.space)
        for t in range(walk_data.n_timestamps):
            if t == 2:
                good = view.batch_at(t)
                cols = {
                    "user_ids": good.user_ids.copy(),
                    "state_idx": good.state_idx.copy(),
                    "kinds": good.kinds.copy(),
                }
                row = int(np.flatnonzero(good.kinds == row_kind)[0])
                cols[column][row] = value
                before = session.stats()
                with pytest.raises(ReproError):
                    session.submit_batch(
                        t, ReportBatch.from_arrays(**cols),
                        newly_entered=view.newly_entered_at(t),
                        quitted=view.quitted_at(t),
                        n_real_active=view.n_active_at(t),
                    )
                session.advance()
                assert session.stats() == before
            session.submit_batch(
                t, view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
            session.advance()
        session.close()
        run = session.result(walk_data.n_timestamps)
        assert _streams(run.synthetic) == _streams(reference.synthetic)
        assert run.synthetic.user_ids == reference.synthetic.user_ids


class TestSessionCheckpointing:
    @pytest.mark.parametrize(
        "transport, n_shards, executor",
        [
            ("direct", 1, "serial"),
            ("ingest", 1, "serial"),
            ("direct", 2, "distributed"),
            ("ingest", 2, "distributed"),
        ],
    )
    def test_resume_is_bitwise(
        self, walk_data, tmp_path, transport, n_shards, executor
    ):
        path = str(tmp_path / "session.ckpt")
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=7, transport=transport, checkpoint_path=path,
            n_shards=n_shards, shard_executor=executor,
        )
        uninterrupted = create_session(
            spec, walk_data.grid, lam=_lam(walk_data)
        )
        reference = _drive(uninterrupted, walk_data)

        first = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        view = ColumnarStreamView(walk_data, first.curator.space)
        cut = walk_data.n_timestamps // 2
        for t in range(cut):
            first.submit_batch(
                t, view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
            first.advance()
        first.checkpoint()
        first.curator.close()

        resumed = load_session(path)
        assert resumed.spec == spec
        view2 = ColumnarStreamView(walk_data, resumed.curator.space)
        # Replay from the curator's frontier: with the ingest transport the
        # assembler holds back still-open timestamps at checkpoint time (at
        # lateness 0, the newest one submitted), and producers resend from
        # stats()["ingest"]["next_t"] = _last_t + 1.
        start = resumed.curator._last_t + 1
        if transport == "ingest":
            assert resumed.stats()["ingest"]["next_t"] == start < cut
        for t in range(start, walk_data.n_timestamps):
            resumed.submit_batch(
                t, view2.batch_at(t),
                newly_entered=view2.newly_entered_at(t),
                quitted=view2.quitted_at(t),
                n_real_active=view2.n_active_at(t),
            )
            resumed.advance()
        resumed.close()
        run = resumed.result(walk_data.n_timestamps)
        assert _streams(run.synthetic) == _streams(reference.synthetic)
        assert run.accountant.summary() == reference.accountant.summary()

    def test_resume_takes_only_service_fields_from_the_caller(
        self, walk_data, tmp_path
    ):
        """Every stored field but the service group survives the resume;
        the caller's service fields replace the stored ones, and naming any
        other field is refused before the checkpoint is read."""
        path = str(tmp_path / "service.ckpt")
        spec = SessionSpec(
            epsilon=0.5, w=6, seed=3, division="budget", allocator="uniform",
            engine="vectorized", checkpoint_path=path,
        )
        first = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        _drive(first, walk_data)  # close() writes the final checkpoint

        resumed = load_session(
            path, transport="ingest", max_lateness=2, checkpoint_every=4
        )
        try:
            assert isinstance(resumed, IngestSession)
            assert resumed.spec == replace(
                spec, transport="ingest", max_lateness=2, checkpoint_every=4
            )
            assert resumed.assembler.max_lateness == 2
        finally:
            resumed.close()
        for stored in (dict(epsilon=2.0), dict(n_shards=2), dict(seed=1),
                       dict(warp_factor=9)):
            with pytest.raises(ConfigurationError, match="service fields"):
                load_session(path, **stored)
        with pytest.raises(ConfigurationError, match="checkpoint_keep"):
            load_session(path, checkpoint_keep=0)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("round_batch", 3, "round_batch must be 1"),
            ("epsilon", float("nan"), "epsilon must be finite"),
        ],
    )
    def test_bad_header_spec_is_refused(
        self, walk_data, tmp_path, field, value, error
    ):
        """A header whose spec carries a value the spec's own validation
        refuses: a typed error, no curator, no worker left over."""
        path = str(tmp_path / "pipelined.ckpt")
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=7, transport="ingest", checkpoint_path=path,
            n_shards=2, shard_executor="distributed",
        )
        first = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        view = ColumnarStreamView(walk_data, first.curator.space)
        for t in range(3):
            first.submit_batch(
                t, view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
            first.advance()
        first.spec = replace(first.spec)  # a copy: the curator keeps its own
        object.__setattr__(first.spec, field, value)
        first.checkpoint()
        first.curator.close()
        with pytest.raises(DatasetError, match=error):
            load_session(path)

    def test_periodic_checkpoints_written(self, walk_data, tmp_path):
        path = str(tmp_path / "cadence.ckpt")
        spec = SessionSpec(
            epsilon=1.0, w=10, seed=0, transport="ingest",
            checkpoint_path=path, checkpoint_every=5,
        )
        session = create_session(spec, walk_data.grid, lam=_lam(walk_data))
        _drive(session, walk_data)
        # periodic ones plus the final close() checkpoint
        expected = walk_data.n_timestamps // 5 + 1
        assert session.ingest_stats.checkpoints_written == expected
