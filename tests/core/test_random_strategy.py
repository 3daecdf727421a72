"""Tests for the user-driven 'random' population strategy (Section III-E)."""

import numpy as np
import pytest

from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.exceptions import ConfigurationError


class TestValidation:
    def test_random_requires_population(self):
        with pytest.raises(ConfigurationError):
            RetraSynConfig(allocator="random", division="budget")

    def test_random_population_accepted(self):
        cfg = RetraSynConfig(allocator="random", division="population")
        assert cfg.allocator == "random"


class TestBehaviour:
    def test_privacy_holds(self, walk_data):
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=4, allocator="random", seed=0)
        ).run(walk_data)
        assert run.accountant.verify()

    def test_report_gaps_exactly_w(self, walk_data, object_ledger):
        """The phase rule yields per-user report gaps of exactly w.

        Uses the dict reference ledger: only it retains full per-user
        spend histories (the columnar ledger keeps the live window plus
        aggregates).
        """
        w = 4
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=w, allocator="random", seed=1)
        ).run(walk_data)
        assert isinstance(run.accountant, object_ledger)
        acc = run.accountant
        multi = 0
        for uid in range(len(walk_data)):
            spends = sorted(r.timestamp for r in acc._spends.get(uid, []))
            gaps = [b - a for a, b in zip(spends, spends[1:])]
            if gaps:
                multi += 1
                assert all(g == w for g in gaps), (uid, spends)
        assert multi > 0  # some users reported more than once

    def test_no_user_wastage_for_long_streams(self):
        """Every user whose stream covers a full window reports at least once
        (the 'less user wastage' property the paper attributes to Random)."""
        from repro.datasets.synthetic import make_random_walks

        w = 4
        data = make_random_walks(
            k=4, n_streams=60, n_timestamps=30, mean_length=20.0, seed=3
        )
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=w, allocator="random", seed=0)
        ).run(data)
        acc = run.accountant
        for traj in data.trajectories:
            # Streams active for >= w+1 consecutive timestamps inside the
            # horizon must hit their report phase at least once.
            span = min(traj.end_time + 1, data.n_timestamps) - traj.start_time
            if span >= w + 1:
                assert acc.total_spend(traj.user_id) > 0, traj.user_id

    def test_steadier_reporter_counts_than_sample(self, walk_data):
        """Random spreads reporters over timestamps; Sample bursts them."""
        runs = {}
        for allocator in ("random", "sample"):
            runs[allocator] = RetraSyn(
                RetraSynConfig(epsilon=1.0, w=5, allocator=allocator, seed=0)
            ).run(walk_data)
        random_cv = np.std(runs["random"].reporters_per_timestamp)
        sample_cv = np.std(runs["sample"].reporters_per_timestamp)
        assert random_cv < sample_cv

    def test_deterministic_given_seed(self, walk_data):
        r1 = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=4, allocator="random", seed=5)
        ).run(walk_data)
        r2 = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=4, allocator="random", seed=5)
        ).run(walk_data)
        assert [t.cells for t in r1.synthetic.trajectories] == [
            t.cells for t in r2.synthetic.trajectories
        ]
