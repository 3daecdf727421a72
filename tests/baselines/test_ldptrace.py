"""Tests for the LDPTrace-style historical synthesizer."""

import numpy as np
import pytest

from repro.baselines.ldptrace import (
    HistoricalRelease,
    LDPTraceConfig,
    LDPTraceSynthesizer,
    clip_and_normalize,
)
from repro.exceptions import ConfigurationError


class TestClipAndNormalize:
    def test_negatives_clipped_then_renormalised(self):
        out = clip_and_normalize([3.0, -1.0, 1.0, -5.0])
        assert out.tolist() == pytest.approx([0.75, 0.0, 0.25, 0.0])

    def test_proportions_of_non_negative_input_kept(self):
        est = np.array([2.0, 6.0, 0.0, 2.0])
        assert clip_and_normalize(est) == pytest.approx(est / est.sum())

    @pytest.mark.parametrize(
        "est", [[0.0, 0.0, 0.0, 0.0], [-1.0, -2.0, 0.0, -0.5]], ids=["zeros", "negative"]
    )
    def test_no_mass_left_gives_uniform(self, est):
        assert clip_and_normalize(est) == pytest.approx(np.full(4, 0.25))

    def test_input_left_unchanged(self):
        est = np.array([1.0, -1.0, 2.0])
        clip_and_normalize(est)
        assert est.tolist() == [1.0, -1.0, 2.0]

    def test_integer_counts_accepted(self):
        out = clip_and_normalize(np.array([1, 3], dtype=np.int64))
        assert out.dtype == float
        assert out.tolist() == pytest.approx([0.25, 0.75])


class TestConfig:
    def test_defaults(self):
        cfg = LDPTraceConfig()
        assert cfg.label == "LDPTrace"
        assert cfg.n_length_bins == 16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LDPTraceConfig(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            LDPTraceConfig(n_length_bins=0)


class TestRelease:
    @pytest.fixture(scope="class")
    def release(self):
        from repro.datasets.synthetic import make_random_walks

        data = make_random_walks(k=5, n_streams=400, n_timestamps=30, seed=1)
        return data, LDPTraceSynthesizer(
            LDPTraceConfig(epsilon=2.0, seed=0)
        ).run(data)

    def test_is_historical_release(self, release):
        _data, rel = release
        assert isinstance(rel, HistoricalRelease)
        assert all(t.start_time == 0 for t in rel.synthetic.trajectories)

    def test_same_number_of_trajectories(self, release):
        data, rel = release
        assert len(rel.synthetic) == len(data)

    def test_user_level_privacy(self, release):
        """One report per user with full epsilon: user-level LDP."""
        _data, rel = release
        assert rel.accountant.verify()
        spends = [
            rel.accountant.total_spend(uid)
            for uid in range(rel.accountant.n_users)
        ]
        assert max(spends, default=0.0) <= rel.config.epsilon + 1e-9

    def test_adjacency_respected(self, release):
        data, rel = release
        for traj in rel.synthetic.trajectories:
            for a, b in traj.transitions():
                assert data.grid.are_adjacent(a, b)

    def test_lengths_bounded(self, release):
        data, rel = release
        max_real = max(len(t) for t in data.trajectories)
        for traj in rel.synthetic.trajectories:
            assert 1 <= len(traj) <= max_real + 1

    def test_length_distribution_normalised(self, release):
        _data, rel = release
        assert rel.length_distribution.sum() == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        from repro.datasets.synthetic import make_random_walks

        data = make_random_walks(k=4, n_streams=100, n_timestamps=20, seed=2)
        a = LDPTraceSynthesizer(LDPTraceConfig(seed=3)).run(data)
        b = LDPTraceSynthesizer(LDPTraceConfig(seed=3)).run(data)
        assert [t.cells for t in a.synthetic.trajectories] == [
            t.cells for t in b.synthetic.trajectories
        ]


class TestModelQuality:
    def test_recovers_lane_structure(self):
        """On deterministic lanes with generous budget, trips look lane-like."""
        from repro.datasets.synthetic import make_lane_stream

        data = make_lane_stream(k=4, n_streams=1200, n_timestamps=25, seed=0)
        rel = LDPTraceSynthesizer(LDPTraceConfig(epsilon=6.0, seed=0)).run(data)
        right = left = 0
        for traj in rel.synthetic.trajectories:
            for a, b in traj.transitions():
                ra, ca = data.grid.cell_to_rowcol(a)
                rb, cb = data.grid.cell_to_rowcol(b)
                if ra != 0 or rb != 0:
                    continue
                if cb == ca + 1:
                    right += 1
                elif cb == ca - 1:
                    left += 1
        assert right > 2 * max(left, 1)

    def test_historical_metrics_reasonable(self):
        """A generous-budget release should preserve trip structure better
        than a uniform random baseline would."""
        from repro.datasets.synthetic import make_random_walks
        from repro.metrics.length import length_error
        from repro.metrics.divergence import LN2

        data = make_random_walks(k=5, n_streams=600, n_timestamps=30, seed=4)
        rel = LDPTraceSynthesizer(LDPTraceConfig(epsilon=4.0, seed=0)).run(data)
        assert length_error(data, rel.synthetic) < 0.6 * LN2


class TestEdgeCases:
    def test_empty_dataset(self, grid4):
        from repro.stream.stream import StreamDataset

        data = StreamDataset(grid4, [], n_timestamps=5)
        rel = LDPTraceSynthesizer(LDPTraceConfig(seed=0)).run(data)
        assert len(rel.synthetic) == 0

    def test_single_point_trajectories(self, grid4):
        from repro.geo.trajectory import CellTrajectory
        from repro.stream.stream import StreamDataset

        data = StreamDataset(
            grid4,
            [CellTrajectory(0, [i % 16], user_id=i) for i in range(50)],
            n_timestamps=3,
        )
        rel = LDPTraceSynthesizer(LDPTraceConfig(seed=0)).run(data)
        assert len(rel.synthetic) == 50
        assert rel.accountant.verify()
