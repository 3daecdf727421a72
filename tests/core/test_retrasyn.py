"""Tests for the end-to-end RetraSyn pipeline (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.exceptions import ConfigurationError


class TestConfig:
    def test_defaults_match_table2(self):
        cfg = RetraSynConfig()
        assert cfg.epsilon == 1.0
        assert cfg.w == 20
        assert cfg.alpha == 8.0
        assert cfg.kappa == 5
        assert cfg.p_max == 0.6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"division": "bogus"},
            {"allocator": "bogus"},
            {"update_strategy": "bogus"},
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"w": 0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetraSynConfig(**kwargs)

    def test_labels(self):
        assert RetraSynConfig(division="population").label == "RetraSyn_p"
        assert RetraSynConfig(division="budget").label == "RetraSyn_b"
        assert RetraSynConfig(update_strategy="all").label == "AllUpdate_p"
        assert RetraSynConfig(model_entering_quitting=False).label == "NoEQ_p"


class TestPopulationDivision:
    def test_privacy_guarantee_verified(self, walk_data):
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=0)).run(walk_data)
        assert run.accountant is not None
        assert run.accountant.verify()
        assert run.accountant.summary()["max_window_spend"] <= 1.0 + 1e-9

    def test_each_user_reports_at_most_once_per_window(self, walk_data):
        # Object-mode ledger: the per-user spend history this test walks
        # only exists in the dict reference (columnar keeps the window).
        w = 4
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=w, seed=1, accountant_mode="object")
        ).run(walk_data)
        acc = run.accountant
        for uid in range(len(walk_data)):
            spends = sorted(
                r.timestamp for r in acc._spends.get(uid, [])
            )
            gaps = [b - a for a, b in zip(spends, spends[1:])]
            assert all(g >= w for g in gaps)

    def test_synthetic_size_tracks_real(self, walk_data):
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=0)).run(walk_data)
        real = walk_data.active_counts()
        syn = run.synthetic.active_counts()
        assert np.array_equal(real, syn)

    def test_synthetic_respects_adjacency(self, walk_data):
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=0)).run(walk_data)
        grid = walk_data.grid
        for traj in run.synthetic.trajectories:
            for a, b in traj.transitions():
                assert grid.are_adjacent(a, b)

    def test_reporters_counted(self, walk_data):
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=0)).run(walk_data)
        assert len(run.reporters_per_timestamp) == walk_data.n_timestamps
        assert sum(run.reporters_per_timestamp) > 0

    def test_deterministic_given_seed(self, walk_data):
        r1 = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=42)).run(walk_data)
        r2 = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=42)).run(walk_data)
        c1 = [t.cells for t in r1.synthetic.trajectories]
        c2 = [t.cells for t in r2.synthetic.trajectories]
        assert c1 == c2

    def test_different_seeds_differ(self, walk_data):
        r1 = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=1)).run(walk_data)
        r2 = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=2)).run(walk_data)
        c1 = [t.cells for t in r1.synthetic.trajectories]
        c2 = [t.cells for t in r2.synthetic.trajectories]
        assert c1 != c2


class TestBudgetDivision:
    def test_privacy_guarantee_verified(self, walk_data):
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=5, division="budget", seed=0)
        ).run(walk_data)
        assert run.accountant.verify()

    def test_all_allocators_satisfy_privacy(self, walk_data):
        for allocator in ("adaptive", "uniform", "sample"):
            for division in ("budget", "population"):
                run = RetraSyn(
                    RetraSynConfig(
                        epsilon=1.0, w=4, division=division,
                        allocator=allocator, seed=0,
                    )
                ).run(walk_data)
                assert run.accountant.verify(), (allocator, division)

    def test_sample_reports_only_at_window_starts(self, walk_data):
        w = 5
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=w, division="budget",
                           allocator="sample", seed=0)
        ).run(walk_data)
        for t, n in enumerate(run.reporters_per_timestamp):
            if t % w != 0:
                assert n == 0


class TestTimings:
    def test_components_recorded(self, walk_data):
        run = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=0)).run(walk_data)
        for key in ("user_side", "model_construction", "dmu", "synthesis"):
            assert key in run.timings
            assert run.timings[key] >= 0.0
        avg = run.avg_time_per_timestamp()
        assert avg["total"] > 0.0

    def test_exact_oracle_mode_runs(self, walk_data):
        for n_shards in (1, 4):
            run = RetraSyn(
                RetraSynConfig(
                    epsilon=1.0, w=5, oracle_mode="exact", n_shards=n_shards,
                    seed=0,
                )
            ).run(walk_data)
            assert run.accountant.verify(), n_shards


class TestModelQuality:
    def test_learns_lane_direction(self):
        """With generous budget the synthetic flow matches the lane."""
        from repro.datasets.synthetic import make_lane_stream

        data = make_lane_stream(k=4, n_streams=800, n_timestamps=20, seed=7)
        run = RetraSyn(RetraSynConfig(epsilon=6.0, w=2, seed=0)).run(data)
        # Count rightward vs leftward transitions along the lane row.
        right = left = 0
        for traj in run.synthetic.trajectories:
            for a, b in traj.transitions():
                ra, ca = data.grid.cell_to_rowcol(a)
                rb, cb = data.grid.cell_to_rowcol(b)
                if ra != 0 or rb != 0:
                    continue
                if cb == ca + 1:
                    right += 1
                elif cb == ca - 1:
                    left += 1
        assert right > 3 * max(left, 1)

    def test_tracking_privacy_optional(self, walk_data):
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=5, seed=0, track_privacy=False)
        ).run(walk_data)
        assert run.accountant is None
