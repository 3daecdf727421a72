"""Tests for the incremental OnlineRetraSyn curator."""

import pytest

from repro.core.online import OnlineRetraSyn, TimestepResult
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.exceptions import ConfigurationError


def drive(curator, dataset, upto=None):
    """Feed a StreamDataset through the online interface."""
    horizon = dataset.n_timestamps if upto is None else upto
    results = []
    for t in range(horizon):
        results.append(
            curator.process_timestep(
                t,
                participants=dataset.participants_at(t),
                newly_entered=dataset.newly_entered_at(t),
                quitted=dataset.quitted_at(t),
                n_real_active=dataset.n_active_at(t),
            )
        )
    return results


class TestConstruction:
    def test_invalid_lambda(self, walk_data):
        with pytest.raises(ConfigurationError):
            OnlineRetraSyn(walk_data.grid, RetraSynConfig(seed=0), lam=0.0)

    def test_timesteps_must_be_consecutive(self, walk_data):
        curator = OnlineRetraSyn(walk_data.grid, RetraSynConfig(w=4, seed=0), lam=8.0)
        curator.process_timestep(0, [], n_real_active=0)
        with pytest.raises(ConfigurationError):
            curator.process_timestep(5, [], n_real_active=0)


class TestIncrementalProcessing:
    def test_timestep_results(self, walk_data):
        curator = OnlineRetraSyn(walk_data.grid, RetraSynConfig(w=4, seed=0), lam=8.0)
        results = drive(curator, walk_data)
        assert len(results) == walk_data.n_timestamps
        assert all(isinstance(r, TimestepResult) for r in results)
        assert any(r.n_reporters > 0 for r in results)

    def test_live_snapshot_matches_real_active(self, walk_data):
        curator = OnlineRetraSyn(walk_data.grid, RetraSynConfig(w=4, seed=0), lam=8.0)
        for t in range(walk_data.n_timestamps):
            curator.process_timestep(
                t,
                participants=walk_data.participants_at(t),
                newly_entered=walk_data.newly_entered_at(t),
                quitted=walk_data.quitted_at(t),
                n_real_active=walk_data.n_active_at(t),
            )
            snapshot = curator.live_snapshot()
            assert snapshot.size == walk_data.n_active_at(t)
            if snapshot.size:
                assert snapshot.min() >= 0
                assert snapshot.max() < walk_data.grid.n_cells

    def test_mid_stream_dataset_materialisation(self, walk_data):
        """The synthetic DB can be published at any intermediate timestamp."""
        curator = OnlineRetraSyn(walk_data.grid, RetraSynConfig(w=4, seed=0), lam=8.0)
        drive(curator, walk_data, upto=10)
        partial = curator.synthetic_dataset(n_timestamps=10)
        assert partial.n_timestamps == 10
        assert partial.n_active_at(9) == walk_data.n_active_at(9)

    def test_privacy_accounting_online(self, walk_data):
        curator = OnlineRetraSyn(walk_data.grid, RetraSynConfig(w=4, seed=0), lam=8.0)
        drive(curator, walk_data)
        assert curator.accountant.verify()


class TestBatchEquivalence:
    """RetraSyn.run is a thin driver over the online curator: same outputs."""

    @pytest.mark.parametrize("division", ["budget", "population"])
    def test_same_synthetic_as_batch(self, walk_data, division):
        cfg = RetraSynConfig(epsilon=1.0, w=4, division=division, seed=7)
        batch = RetraSyn(cfg).run(walk_data)

        from repro.geo.trajectory import average_length

        lam = max(1.0, average_length(walk_data.trajectories))
        curator = OnlineRetraSyn(
            walk_data.grid, RetraSynConfig(epsilon=1.0, w=4, division=division, seed=7),
            lam=lam,
        )
        drive(curator, walk_data)
        online = curator.synthetic_dataset(walk_data.n_timestamps)
        assert [t.cells for t in batch.synthetic.trajectories] == [
            t.cells for t in online.trajectories
        ]

    def test_same_reporter_counts(self, walk_data):
        cfg = RetraSynConfig(epsilon=1.0, w=4, seed=3)
        batch = RetraSyn(cfg).run(walk_data)
        from repro.geo.trajectory import average_length

        curator = OnlineRetraSyn(
            walk_data.grid, RetraSynConfig(epsilon=1.0, w=4, seed=3),
            lam=max(1.0, average_length(walk_data.trajectories)),
        )
        drive(curator, walk_data)
        assert batch.reporters_per_timestamp == curator.reporters_per_timestamp

    @pytest.mark.parametrize(
        "n_shards, executor",
        [
            pytest.param(1, "serial", id="K1-serial"),
            pytest.param(2, "serial", id="K2-serial"),
            pytest.param(2, "distributed", id="K2-distributed"),
        ],
    )
    def test_run_is_one_process_timestep_per_round(
        self, walk_data, n_shards, executor
    ):
        """Every executor's batch run is the per-timestamp round, t by t."""
        from repro.geo.trajectory import average_length

        cfg = RetraSynConfig(
            epsilon=1.0, w=4, seed=11, n_shards=n_shards,
            shard_executor=executor,
        )
        batch = RetraSyn(cfg).run(walk_data)

        curator = OnlineRetraSyn(
            walk_data.grid, cfg,
            lam=max(1.0, average_length(walk_data.trajectories)),
        )
        try:
            drive(curator, walk_data)
        finally:
            curator.close()
        online = curator.result(walk_data.n_timestamps)
        assert [(t.start_time, list(t.cells)) for t in batch.synthetic] == [
            (t.start_time, list(t.cells)) for t in online.synthetic
        ]
        assert batch.reporters_per_timestamp == online.reporters_per_timestamp
        assert (
            batch.significant_per_timestamp == online.significant_per_timestamp
        )
        assert batch.accountant.summary() == online.accountant.summary()
