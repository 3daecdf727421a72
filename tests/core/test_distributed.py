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

import pickle

import pytest

from repro.core.online import OnlineRetraSyn
from repro.core.persistence import load_checkpoint, save_checkpoint
from repro.core.retrasyn import RetraSynConfig
from repro.core.sharded import CollectionShard
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError, PrivacyBudgetError
from repro.stream.reports import as_report_batch


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
            for alloc in ("uniform", "sample", "adaptive", "adaptive-user")
        ],
    )
    def test_config_variants_identical(self, stream, overrides):
        """Every division × allocator pair, K=2 serial ≡ distributed."""
        serial = _drive(stream, _make(stream, 2, "serial", **overrides))
        distributed = _drive(
            stream, _make(stream, 2, "distributed", **overrides)
        )
        assert distributed == serial

    def test_round_costs_two_frames_per_shard(self, stream):
        """A round is one shard-submit and one shard-advance per shard."""
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
            assert curator._pool.frames_sent == 2 * 2 * n_rounds
            assert curator._pool.frames_received == 2 * 2 * n_rounds
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

    def test_view_live_and_pickled(self, stream):
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
            # Pickling freezes the stats and drops the engine reference.
            thawed = pickle.loads(pickle.dumps(curator.accountant))
            assert thawed.summary() == live
            assert thawed.epsilon == curator.accountant.epsilon
            assert thawed.w == curator.accountant.w
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

        Budget division makes every participant a reporter; with w=1 a
        duplicated user id in one batch double-spends its window.
        """
        cfg = RetraSynConfig(
            epsilon=1.0, w=1, seed=0, n_shards=2,
            shard_executor="distributed",
            division="budget", allocator="uniform",
        )
        curator = OnlineRetraSyn(stream.grid, cfg, lam=5.0)
        try:
            parts = stream.participants_at(0)
            doubled = list(parts) + [parts[0]]
            with pytest.raises(PrivacyBudgetError):
                curator.process_timestep(
                    0,
                    participants=doubled,
                    newly_entered=stream.newly_entered_at(0),
                    quitted=stream.quitted_at(0),
                    n_real_active=stream.n_active_at(0),
                )
        finally:
            curator.close()

    def test_protocol_error_surfaces_typed(self, stream):
        """Advancing a timestamp that was never staged is a worker-side
        ConfigurationError and must arrive as one (workers stay alive)."""
        curator = _make(stream, 2, "distributed")
        try:
            with pytest.raises(ConfigurationError, match="shard-advance"):
                curator._pool.advance(99, None, 0.5)
            # The workers replied with the error rather than dying; the
            # coordinator can still shut the pool down in an orderly way
            # (like the in-process path, an engine is closed after a
            # protocol/refusal error, not reused).
            assert curator._pool.alive
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
        """A worker stages one round; advancing any other t is refused."""
        curator = _make(stream, 2, "distributed")
        try:
            batch = as_report_batch(curator.space, stream.participants_at(0))
            parts, entered, quits = curator._partition(
                batch, stream.newly_entered_at(0), stream.quitted_at(0)
            )
            curator._pool.submit(0, parts, entered, quits, False)
            with pytest.raises(ConfigurationError, match="t=1 without"):
                curator._pool.advance(1, None, 0.5)
        finally:
            curator.close()
