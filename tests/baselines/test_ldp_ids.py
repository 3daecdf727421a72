"""Tests for the LDP-IDS baselines (LBD/LBA/LPD/LPA)."""

import numpy as np
import pytest

from repro.baselines.ldp_ids import LBA, LBD, LPA, LPD, LdpIdsConfig, make_baseline
from repro.datasets.synthetic import make_lane_stream
from repro.exceptions import ConfigurationError
from repro.metrics.length import length_error
from repro.metrics.divergence import LN2
from repro.stream.events import StateKind


def movers_at(dataset, t):
    return sum(1 for _u, s in dataset.participants_at(t) if s.kind is StateKind.MOVE)


class TestConfig:
    def test_labels_and_division(self):
        assert LdpIdsConfig(strategy="lbd").label == "LBD"
        assert LdpIdsConfig(strategy="lbd").division == "budget"
        assert LdpIdsConfig(strategy="lba").division == "budget"
        assert LdpIdsConfig(strategy="lpd").division == "population"
        assert LdpIdsConfig(strategy="lpa").division == "population"

    def test_invalid_strategy(self):
        with pytest.raises(ConfigurationError):
            LdpIdsConfig(strategy="xyz")

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            LdpIdsConfig(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            LdpIdsConfig(w=0)

    def test_factory(self):
        assert isinstance(make_baseline("LBD"), LBD)
        assert isinstance(make_baseline("lba"), LBA)
        assert isinstance(make_baseline("LPD"), LPD)
        assert isinstance(make_baseline("lpa"), LPA)
        with pytest.raises(ConfigurationError):
            make_baseline("nope")


@pytest.mark.parametrize("strategy", ["lbd", "lba", "lpd", "lpa"])
class TestAllStrategies:
    def test_privacy_guarantee(self, walk_data, strategy):
        run = make_baseline(strategy, epsilon=1.0, w=4, seed=0).run(walk_data)
        assert run.accountant is not None
        assert run.accountant.verify(), run.accountant.summary()

    def test_synthetic_shape(self, walk_data, strategy):
        run = make_baseline(strategy, epsilon=1.0, w=4, seed=0).run(walk_data)
        syn = run.synthetic
        assert syn.n_timestamps == walk_data.n_timestamps
        # Baselines never terminate or add streams: constant population.
        counts = syn.active_counts()
        assert np.all(counts == counts[0])

    def test_streams_respect_adjacency(self, walk_data, strategy):
        run = make_baseline(strategy, epsilon=1.0, w=4, seed=0).run(walk_data)
        grid = walk_data.grid
        for traj in run.synthetic.trajectories:
            for a, b in traj.transitions():
                assert grid.are_adjacent(a, b)

    def test_length_error_near_ln2(self, walk_data, strategy):
        """Never-terminating streams => travel-distance supports separate."""
        run = make_baseline(strategy, epsilon=1.0, w=4, seed=0).run(walk_data)
        assert length_error(walk_data, run.synthetic) > 0.5 * LN2

    def test_deterministic_given_seed(self, walk_data, strategy):
        r1 = make_baseline(strategy, epsilon=1.0, w=4, seed=9).run(walk_data)
        r2 = make_baseline(strategy, epsilon=1.0, w=4, seed=9).run(walk_data)
        assert [t.cells for t in r1.synthetic.trajectories] == [
            t.cells for t in r2.synthetic.trajectories
        ]

    def test_reusable_instance(self, walk_data, strategy):
        algo = make_baseline(strategy, epsilon=1.0, w=4, seed=0)
        r1 = algo.run(walk_data)
        r2 = algo.run(walk_data)
        assert r2.accountant.verify()
        assert len(r1.synthetic) == len(r2.synthetic)


@pytest.mark.parametrize("strategy", ["lbd", "lba", "lpd", "lpa"])
class TestQuietTimestamps:
    def test_quiet_tail_survives(self, strategy):
        """Timestamps nobody reports at still advance the synthetic streams."""
        lanes = make_lane_stream(k=4, n_streams=60, n_timestamps=6, seed=1)
        data = type(lanes)(lanes.grid, lanes.trajectories, n_timestamps=12)
        run = make_baseline(strategy, epsilon=1.0, w=3, seed=0).run(data)
        assert run.synthetic.n_timestamps == 12
        assert run.reporters_per_timestamp[6:] == [0] * 6
        assert np.all(run.synthetic.active_counts()[6:] == data.n_active_at(0))
        assert run.accountant.verify(), run.accountant.summary()

    def test_only_movers_report(self, walk_data, strategy):
        run = make_baseline(strategy, epsilon=1.0, w=4, seed=0).run(walk_data)
        assert len(run.reporters_per_timestamp) == walk_data.n_timestamps
        for t, n in enumerate(run.reporters_per_timestamp):
            assert 0 <= n <= movers_at(walk_data, t)


class TestBudgetSplit:
    def test_lbd_reports_every_timestamp(self, walk_data):
        """Budget division: all movers pay the dissimilarity budget each t."""
        run = LBD(epsilon=1.0, w=4, seed=0).run(walk_data)
        # Reporters appear whenever there are movement participants.
        from repro.stream.events import StateKind

        for t, n in enumerate(run.reporters_per_timestamp):
            movers = [
                1
                for _u, s in walk_data.participants_at(t)
                if s.kind is StateKind.MOVE
            ]
            assert (n > 0) == (len(movers) > 0)

    def test_lpd_reports_fraction(self, walk_data):
        run = LPD(epsilon=1.0, w=4, seed=0).run(walk_data)
        total_reports = sum(run.reporters_per_timestamp)
        total_movers = sum(
            1
            for t in range(walk_data.n_timestamps)
            for _u, s in walk_data.participants_at(t)
            if s.kind.value == "move"
        )
        assert 0 < total_reports < total_movers
