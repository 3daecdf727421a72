"""ISSUE 7 acceptance: the distributed shard plane ≡ the in-process engine.

``shard_executor="distributed"`` promotes every collection shard to its
own worker process behind a socketpair carrying length-prefixed RSF2
frames, with the privacy ledger living *inside* the worker.  None of
that may be observable in the output: for a fixed seed the distributed
engine must synthesize the identical stream to the serial executor at
every shard count, its merged accountant view must agree
with the single-process ledger, checkpoints must round-trip through the
coordinator, and worker-side failures must surface as the same typed
exceptions the in-process path raises.
"""

import hashlib
import os
import socket
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import schema
from repro.api.session import create_session, load_session
from repro.api.specs import SessionSpec
from repro.core.online import OnlineRetraSyn
from repro.core.distributed import recv_frame, send_frame
from repro.core.persistence import load_checkpoint, save_checkpoint
from repro.core.retrasyn import RetraSynConfig
from repro.core.sharded import CollectionShard, shard_of
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError, DomainError, PrivacyBudgetError
from repro.ldp.accountant import ScheduleLedger
from repro.stream.reports import ColumnarStreamView, as_report_batch


@pytest.fixture(scope="module")
def stream():
    return make_random_walks(k=4, n_streams=130, n_timestamps=22, seed=1)


def _make(stream, n_shards, executor, **overrides):
    cfg = RetraSynConfig(
        epsilon=1.0, w=5, seed=42, n_shards=n_shards,
        shard_executor=executor, **overrides,
    )
    curator = OnlineRetraSyn(stream.grid, cfg, lam=5.0)
    if n_shards == 1 and executor == "serial":
        # K=1 serial collects on the engine rng.  The in-process twin of a
        # one-worker engine runs the worker's shard instead: seeded from
        # the engine rng where the engine draws worker seeds, rounding
        # stochastically.
        seed = int(curator.rng.integers(0, 2**63 - 1, size=1)[0])
        curator._shards = [CollectionShard(stream.grid, cfg, seed)]
    return curator


def _drive(stream, curator):
    try:
        for t in range(stream.n_timestamps):
            curator.process_timestep(
                t,
                participants=stream.participants_at(t),
                newly_entered=stream.newly_entered_at(t),
                quitted=stream.quitted_at(t),
                n_real_active=stream.n_active_at(t),
            )
        syn = curator.synthetic_dataset(stream.n_timestamps)
        return [(tr.start_time, list(tr.cells)) for tr in syn.trajectories]
    finally:
        curator.close()


SHARD_COUNTS = [pytest.param(1, id="K1"), pytest.param(4, id="K4")]


class TestDistributedMatchesInProcess:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_identical_to_serial(self, stream, n_shards):
        serial = _drive(stream, _make(stream, n_shards, "serial"))
        distributed = _drive(stream, _make(stream, n_shards, "distributed"))
        assert distributed == serial

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(
                {"division": "population", "allocator": alloc},
                id=f"population-{alloc}",
            )
            for alloc in ("uniform", "sample", "random", "adaptive")
        ]
        + [
            pytest.param(
                {"division": "budget", "allocator": alloc},
                id=f"budget-{alloc}",
            )
            for alloc in ("uniform", "sample", "adaptive")
        ],
    )
    def test_config_variants_identical(self, stream, overrides):
        """Every division × allocator pair, K=2 serial ≡ distributed."""
        serial = _drive(stream, _make(stream, 2, "serial", **overrides))
        distributed = _drive(
            stream, _make(stream, 2, "distributed", **overrides)
        )
        assert distributed == serial

    def test_round_costs_one_frame_each_way_per_shard(self, stream):
        """A round is one shard-round out and one shard-merge back per
        shard: ``submit`` stages on the coordinator and sends nothing."""
        n_rounds = 7
        curator = _make(stream, 2, "distributed")
        try:
            for t in range(n_rounds):
                curator.process_timestep(
                    t,
                    participants=stream.participants_at(t),
                    newly_entered=stream.newly_entered_at(t),
                    quitted=stream.quitted_at(t),
                    n_real_active=stream.n_active_at(t),
                )
            assert curator._pool.frames_sent == 2 * n_rounds
            assert curator._pool.frames_received == 2 * n_rounds
        finally:
            curator.close()

    def test_roundtrip_histogram_observes_one_exchange_per_round(self, stream):
        n_rounds = 5
        session = create_session(
            SessionSpec(epsilon=1.0, w=5, seed=42, n_shards=2,
                        shard_executor="distributed"),
            stream.grid, lam=5.0,
        )
        try:
            view = ColumnarStreamView(stream, session.curator.space)
            for t in range(n_rounds):
                session.submit_batch(
                    t, view.batch_at(t), newly_entered=view.newly_entered_at(t),
                    quitted=view.quitted_at(t), n_real_active=view.n_active_at(t),
                )
                session.advance()
            lines = session.metrics.render().splitlines()
            assert f"retrasyn_rounds_total {n_rounds}" in lines
            assert f"retrasyn_shard_roundtrip_seconds_count {n_rounds}" in lines
        finally:
            session.close()


class TestPlacement:
    """Workers get a CPU each only when there are exactly K >= 2 CPUs.

    The coordinator's CPU set is faked (the first CPUs of the real one,
    or a made-up extra id that is never pinned to), so every case starts
    at most two workers whatever the host's size.
    """

    pytestmark = pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_getaffinity and at least 2 allowed CPUs",
    )

    @staticmethod
    def _affinities(stream, monkeypatch, n_shards, n_cpus):
        real = os.sched_getaffinity
        parent = real(0)
        ids = sorted(parent)
        cpus = set((ids + [ids[-1] + 1])[:n_cpus])
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(cpus) if pid == 0 else real(pid)
        )
        curator = _make(stream, n_shards, "distributed")
        try:
            workers = [real(p.pid) for p in curator._pool._procs]
        finally:
            curator.close()
        assert real(0) == parent
        assert len(workers) == n_shards
        return parent, workers

    def test_two_workers_on_two_cpus_get_one_each(self, stream, monkeypatch):
        parent, workers = self._affinities(stream, monkeypatch, 2, 2)
        assert workers == [{cpu} for cpu in sorted(parent)[:2]]

    @pytest.mark.parametrize(
        "n_shards, n_cpus",
        [(1, 1), (2, 3), (2, 1)],
        ids=["K1-of-1", "K2-of-3", "K2-of-1"],
    )
    def test_unpinned_unless_k_equals_cpus(self, stream, monkeypatch, n_shards, n_cpus):
        parent, workers = self._affinities(stream, monkeypatch, n_shards, n_cpus)
        assert all(cpus == parent for cpus in workers)


class TestFraming:
    def test_received_columns_are_read_only(self):
        ours, theirs = socket.socketpair()
        try:
            send_frame(ours, schema.message("shard-merge", user_ids=np.arange(5)))
            msg = recv_frame(theirs)
        finally:
            ours.close()
            theirs.close()
        assert msg["user_ids"].tolist() == list(range(5))
        assert msg["user_ids"].flags.writeable is False

    def test_state_frames_round_trip_unchanged(self, stream):
        curator = _make(stream, 2, "distributed")
        try:
            for t in range(4):
                curator.process_timestep(
                    t,
                    participants=stream.participants_at(t),
                    newly_entered=stream.newly_entered_at(t),
                    quitted=stream.quitted_at(t),
                    n_real_active=stream.n_active_at(t),
                )
            states = [[bytes(f) for f in worker] for worker in curator._pool.get_states()]
            curator._pool.set_states(states)
            again = curator._pool.get_states()
            assert [[bytes(f) for f in worker] for worker in again] == states
        finally:
            curator.close()


class TestDistributedAccountantView:
    def test_summary_matches_serial_ledger(self, stream):
        serial = _make(stream, 4, "serial")
        distributed = _make(stream, 4, "distributed")
        assert _drive(stream, serial) == _drive(stream, distributed)
        # _drive closed both engines; the view must keep answering from
        # the final summaries the coordinator cached at close().
        assert distributed.accountant.summary() == serial.accountant.summary()
        assert distributed.accountant.verify()
        assert (
            distributed.accountant.max_window_spend()
            == serial.accountant.max_window_spend()
        )
        assert distributed.accountant.n_users == serial.accountant.n_users
        assert list(distributed.accountant.violations) == list(
            serial.accountant.violations
        )

    def test_view_live_and_restored(self, stream, tmp_path):
        curator = _make(stream, 2, "distributed")
        try:
            for t in range(6):
                curator.process_timestep(
                    t,
                    participants=stream.participants_at(t),
                    newly_entered=stream.newly_entered_at(t),
                    quitted=stream.quitted_at(t),
                    n_real_active=stream.n_active_at(t),
                )
            live = curator.accountant.summary()
            assert live["n_users"] > 0
            # The shard ledgers' state frames pass through the coordinator
            # into fresh workers; the new engine's view reads those.
            save_checkpoint(curator, tmp_path / "view.ckpt")
            restored = load_checkpoint(tmp_path / "view.ckpt")
            try:
                assert restored.accountant.summary() == live
                assert restored.accountant.epsilon == curator.accountant.epsilon
                assert restored.accountant.w == curator.accountant.w
            finally:
                restored.close()
        finally:
            curator.close()

    def test_untracked_engine_has_no_accountant(self, stream):
        curator = _make(stream, 2, "distributed", track_privacy=False)
        try:
            assert curator.accountant is None
        finally:
            curator.close()


class TestDistributedCheckpoint:
    def test_roundtrip_through_coordinator(self, stream, tmp_path):
        half = stream.n_timestamps // 2

        def _step(curator, t):
            curator.process_timestep(
                t,
                participants=stream.participants_at(t),
                newly_entered=stream.newly_entered_at(t),
                quitted=stream.quitted_at(t),
                n_real_active=stream.n_active_at(t),
            )

        reference = _drive(stream, _make(stream, 2, "distributed"))

        first = _make(stream, 2, "distributed")
        for t in range(half):
            _step(first, t)
        path = tmp_path / "distributed.ckpt"
        save_checkpoint(first, path)
        first.close()

        resumed = load_checkpoint(path)
        try:
            assert resumed._pool is not None
            assert resumed._last_t == half - 1
            for t in range(half, stream.n_timestamps):
                _step(resumed, t)
            syn = resumed.synthetic_dataset(stream.n_timestamps)
            result = [
                (tr.start_time, list(tr.cells)) for tr in syn.trajectories
            ]
            summary = resumed.accountant.summary()
        finally:
            resumed.close()

        assert result == reference
        assert summary["satisfied"]

    @pytest.mark.parametrize("cut", [1, 8, 21])
    def test_resume_after_any_round(self, stream, tmp_path, cut):
        """A checkpoint after round ``cut - 1`` continues the same stream,
        from the first round to the last."""
        reference_engine = _make(stream, 2, "distributed")
        reference = _drive(stream, reference_engine)

        first = _make(stream, 2, "distributed")
        try:
            for t in range(cut):
                first.process_timestep(
                    t,
                    participants=stream.participants_at(t),
                    newly_entered=stream.newly_entered_at(t),
                    quitted=stream.quitted_at(t),
                    n_real_active=stream.n_active_at(t),
                )
            path = tmp_path / f"cut{cut}.ckpt"
            save_checkpoint(first, path)
        finally:
            first.close()

        resumed = load_checkpoint(path)
        assert resumed._last_t == cut - 1
        try:
            for t in range(cut, stream.n_timestamps):
                resumed.process_timestep(
                    t,
                    participants=stream.participants_at(t),
                    newly_entered=stream.newly_entered_at(t),
                    quitted=stream.quitted_at(t),
                    n_real_active=stream.n_active_at(t),
                )
            syn = resumed.synthetic_dataset(stream.n_timestamps)
            result = [(tr.start_time, list(tr.cells)) for tr in syn.trajectories]
        finally:
            resumed.close()

        assert result == reference
        assert resumed.accountant.summary() == reference_engine.accountant.summary()


class TestWorkerErrorPropagation:
    def test_privacy_refusal_surfaces_typed(self, stream):
        """A worker-side ledger refusal crosses the socket as the same
        PrivacyBudgetError the in-process path raises.

        The ``sample`` population allocator makes every eligible
        participant a reporter at t=0; with w=1 a duplicated user id in
        one batch double-spends its window.  Population division keeps
        per-user worker ledgers, which refuse at spend time (schedule
        ledgers refuse at the coordinator, see
        ``TestBudgetDivisionLedger``).
        """
        parts = stream.participants_at(0)
        doubled = list(parts) + [parts[0]]
        messages = []
        for executor in ("serial", "distributed"):
            cfg = RetraSynConfig(
                epsilon=1.0, w=1, seed=0, n_shards=2,
                shard_executor=executor,
                division="population", allocator="sample",
            )
            curator = OnlineRetraSyn(stream.grid, cfg, lam=5.0)
            try:
                with pytest.raises(
                    PrivacyBudgetError, match=r"would spend 2\.000000 > epsilon=1\.0"
                ) as refused:
                    curator.process_timestep(
                        0,
                        participants=doubled,
                        newly_entered=stream.newly_entered_at(0),
                        quitted=stream.quitted_at(0),
                        n_real_active=stream.n_active_at(0),
                    )
                messages.append(str(refused.value))
            finally:
                curator.close()
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("ragged_shards", [(0, 1), (0,)], ids=["both", "first"])
    def test_protocol_error_surfaces_typed(self, stream, ragged_shards):
        """A shard-round whose columns disagree in length is a worker-side
        DomainError and must arrive as one (workers stay alive), with every
        shard's reply read so the next exchange is answered in step."""
        curator = _make(stream, 2, "distributed")
        try:
            ragged = SimpleNamespace(
                user_ids=np.arange(3), state_idx=np.arange(2),
                kinds=np.zeros(3, dtype=np.int8),
            )
            empty = np.empty(0, dtype=np.int64)
            fine = SimpleNamespace(
                user_ids=empty, state_idx=empty, kinds=np.zeros(0, dtype=np.int8)
            )
            parts = [ragged if k in ragged_shards else fine for k in range(2)]
            curator._pool.submit(0, parts, [empty] * 2, [empty] * 2)
            with pytest.raises(DomainError, match="disagree on length"):
                curator._pool.advance(0, None, 0.5)
            # The workers replied with the error rather than dying, and no
            # reply is left unread: the next verb gets its own answers.
            assert curator._pool.alive
            assert len(curator._pool.stats()) == 2
            assert len(curator._pool.get_states()) == 2
        finally:
            curator.close()

    def test_refused_round_leaves_the_ledger_view_answering(self):
        """A uid reported twice on shard 0 is refused there; shard 1's merge
        of the same round is read too, so the ledger view still answers."""
        data = make_random_walks(k=4, n_streams=130, n_timestamps=22, seed=1)
        parts = list(data.participants_at(0))
        twice = next(p for p in parts if shard_of(p[0], 2) == 0)
        cfg = RetraSynConfig(
            epsilon=1.0, w=1, seed=0, n_shards=2, shard_executor="distributed",
            division="population", allocator="sample",
        )
        curator = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        try:
            with pytest.raises(PrivacyBudgetError):
                _round(curator, data, 0, participants=parts + [twice])
            # Shard 1 admitted and spent its reporters of the round.
            assert curator.accountant.summary()["n_users"] > 0
        finally:
            curator.close()

    @pytest.mark.parametrize("executor", ["serial", "distributed"])
    def test_gap_refused_after_earlier_rounds(self, stream, executor):
        """Skipping a timestamp is refused before any shard sees the round."""
        curator = _make(stream, 2, executor)
        try:
            for t in range(3):
                curator.process_timestep(
                    t,
                    participants=stream.participants_at(t),
                    newly_entered=stream.newly_entered_at(t),
                    quitted=stream.quitted_at(t),
                    n_real_active=stream.n_active_at(t),
                )
            sent = curator._pool.frames_sent if curator._pool else None
            with pytest.raises(ConfigurationError, match="consecutive"):
                curator.process_timestep(
                    4,
                    participants=stream.participants_at(4),
                    newly_entered=stream.newly_entered_at(4),
                    quitted=stream.quitted_at(4),
                    n_real_active=stream.n_active_at(4),
                )
            if curator._pool is not None:
                assert curator._pool.frames_sent == sent
        finally:
            curator.close()

    def test_advance_must_match_the_staged_round(self, stream):
        """``submit`` stages one round on the coordinator; advancing any
        other t is refused there, before ``shard-round`` is sent."""
        curator = _make(stream, 2, "distributed")
        try:
            batch = as_report_batch(curator.space, stream.participants_at(0))
            parts, entered, quits = curator._partition(
                batch, stream.newly_entered_at(0), stream.quitted_at(0)
            )
            curator._pool.submit(0, parts, entered, quits, False)
            with pytest.raises(ConfigurationError, match="t=1 without"):
                curator._pool.advance(1, None, 0.5)
            # Refused on the coordinator, before any frame left it.
            assert curator._pool.frames_sent == 0
        finally:
            curator.close()


# ---------------------------------------------------------------------- #
# budget division: the schedule ledger, in process and in the workers
# ---------------------------------------------------------------------- #
_BUDGET_SHAPES = [
    pytest.param(1, "serial", id="K1-serial"),
    pytest.param(2, "serial", id="K2-serial"),
    pytest.param(2, "distributed", id="K2-distributed"),
]


def _budget_curator(data, n_shards, executor):
    cfg = RetraSynConfig(
        epsilon=1.0, w=3, seed=7, division="budget", allocator="uniform",
        engine="vectorized", n_shards=n_shards, shard_executor=executor,
    )
    return OnlineRetraSyn(data.grid, cfg, lam=5.0)


def _round(curator, data, t, participants=None):
    curator.process_timestep(
        t,
        participants=data.participants_at(t) if participants is None else participants,
        newly_entered=data.newly_entered_at(t),
        quitted=data.quitted_at(t),
        n_real_active=data.n_active_at(t),
    )


def _state(curator) -> list:
    """Every checkpointed state, as frames, but the ledger's refusal count
    (an operational counter); distributed workers' frames as sent."""
    frames = []
    for kind, component in curator.components():
        state = dict(component.state())
        if kind == "ledger":
            state.pop("n_refusals")
        frames.append(schema.dump_frame(schema.message("state", component=kind, **state)))
    if curator._pool is not None:
        frames += [bytes(f) for worker in curator._pool.get_states() for f in worker]
    return frames


def _store_digest(curator) -> str:
    store = curator.synthesizer.store
    rows = np.arange(store.n_total)
    digest = hashlib.sha256(store.flat_cells(rows).tobytes())
    digest.update(store.births_of(rows).tobytes())
    return digest.hexdigest()


class TestBudgetDivisionLedger:
    """Budget division keeps an O(w) schedule ledger: a round is admitted
    before it changes anything, and checkpoints carry the schedule."""

    @pytest.fixture(scope="class")
    def walks(self):
        return make_random_walks(k=4, n_streams=60, n_timestamps=12, seed=9)

    @pytest.mark.parametrize("copies", [1, 3], ids=["twice", "four-times"])
    @pytest.mark.parametrize("n_shards, executor", _BUDGET_SHAPES)
    def test_a_duplicated_report_is_refused_before_the_round_starts(
        self, walks, n_shards, executor, copies
    ):
        reference = _budget_curator(walks, n_shards, executor)
        curator = _budget_curator(walks, n_shards, executor)
        try:
            for t in range(walks.n_timestamps):
                _round(reference, walks, t)
            for t in range(4):
                _round(curator, walks, t)
            before, digest = _state(curator), _store_digest(curator)
            honest = walks.participants_at(4)
            with pytest.raises(PrivacyBudgetError, match="more than once at t=4"):
                _round(curator, walks, 4, list(honest) + [honest[0]] * copies)
            # Nothing moved: rng, allocator window, clock, store, ledger.
            assert curator._last_t == 3
            assert _store_digest(curator) == digest
            assert _state(curator) == before
            # The honest t=4 is accepted, and the run continues as if the
            # duplicate had never been submitted.
            for t in range(4, walks.n_timestamps):
                _round(curator, walks, t)
            assert _store_digest(curator) == _store_digest(reference)
            assert curator.accountant.summary() == reference.accountant.summary()
        finally:
            reference.close()
            curator.close()

    @pytest.mark.parametrize("n_shards, executor", _BUDGET_SHAPES)
    def test_every_shape_keeps_schedule_ledgers(self, walks, n_shards, executor):
        curator = _budget_curator(walks, n_shards, executor)
        try:
            for t in range(walks.n_timestamps):
                _round(curator, walks, t)
            if curator._pool is None:
                assert isinstance(curator.accountant, ScheduleLedger)
                assert curator._slots is None  # no per-user rows anywhere
            summary = curator.accountant.summary()
            assert "n_users" not in summary and summary["n_reports"] > 0
            assert summary["satisfied"]
            assert curator.state_summary()["rows"]["ledger"] == 0
        finally:
            curator.close()

    def test_workers_merge_to_the_in_process_schedule(self, walks):
        serial = _budget_curator(walks, 2, "serial")
        distributed = _budget_curator(walks, 2, "distributed")
        try:
            for t in range(walks.n_timestamps):
                _round(serial, walks, t)
                _round(distributed, walks, t)
            assert _store_digest(serial) == _store_digest(distributed)
            merged, one = distributed.accountant.summary(), serial.accountant.summary()
            assert merged["n_reports"] == one["n_reports"]
            # A worker's schedule holds the rounds its partition reported
            # in: a sub-schedule of the engine's, so never above it.
            assert merged["max_window_spend"] <= one["max_window_spend"]
            assert merged["satisfied"] and merged["n_reports"] > 0
        finally:
            serial.close()
            distributed.close()

    @pytest.mark.parametrize("cut", [1, 6, 11], ids=["early", "mid", "late"])
    @pytest.mark.parametrize(
        "n_shards, executor",
        [pytest.param(1, "serial", id="K1-serial"),
         pytest.param(2, "distributed", id="K2-distributed")],
    )
    def test_resume_at_any_cut_equals_the_uninterrupted_run(
        self, walks, tmp_path, n_shards, executor, cut
    ):
        spec = SessionSpec(
            epsilon=1.0, w=3, seed=7, division="budget", engine="vectorized",
            n_shards=n_shards, shard_executor=executor,
        )

        def drive(session, rounds):
            view = ColumnarStreamView(walks, session.curator.space)
            snapshots = []
            for t in rounds:
                session.submit_batch(
                    t, view.batch_at(t), newly_entered=view.newly_entered_at(t),
                    quitted=view.quitted_at(t), n_real_active=view.n_active_at(t),
                )
                session.advance()
                snapshots.append(session.snapshot().astype(np.int64).tobytes())
            return snapshots

        def finish(session):
            out = (session.stats(), _store_digest(session.curator))
            session.close()
            return out

        whole = create_session(spec, walks.grid, lam=5.0)
        reference = drive(whole, range(walks.n_timestamps))
        ref_stats, ref_digest = finish(whole)

        first = create_session(spec, walks.grid, lam=5.0)
        head = drive(first, range(cut))
        path = tmp_path / "budget.ckpt"
        first.checkpoint(str(path))
        first.close()
        resumed = load_session(str(path))
        tail = drive(resumed, range(cut, walks.n_timestamps))
        stats, digest = finish(resumed)

        assert head + tail == reference
        assert digest == ref_digest
        assert stats["privacy"] == ref_stats["privacy"]
        assert stats["state"] == ref_stats["state"]
        assert "n_reports" in stats["privacy"] and stats["privacy"]["satisfied"]
