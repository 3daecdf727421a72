"""Tests for the real-time synthesizer."""

import numpy as np
import pytest

from repro.core.mobility_model import GlobalMobilityModel
from repro.core.fast_synthesis import VectorizedSynthesizer
from repro.core.synthesis import Synthesizer
from repro.exceptions import ConfigurationError


def deterministic_model(space, origin_to_dest: dict, enter_cell=0, quit_cells=()):
    """Build a model whose rows put all movement mass on given moves."""
    model = GlobalMobilityModel(space)
    f = np.zeros(space.size)
    for origin, dest in origin_to_dest.items():
        f[space.index_of_move(origin, dest)] = 1.0
    f[space.index_of_enter(enter_cell)] = 1.0
    for c in quit_cells:
        f[space.index_of_quit(c)] = 1.0
    model.set_all(f)
    return model


class TestSpawning:
    def test_spawn_from_entering_uses_e(self, space4):
        model = deterministic_model(space4, {}, enter_cell=7)
        syn = Synthesizer(model, lam=10.0, rng=0)
        syn.spawn_from_entering(0, 25)
        assert syn.n_live == 25
        assert all(tr.cells == [7] for tr in syn.live_streams)
        assert all(tr.start_time == 0 for tr in syn.live_streams)

    def test_spawn_uniform_covers_domain(self, space4):
        model = GlobalMobilityModel(space4)
        syn = Synthesizer(model, lam=10.0, rng=0)
        syn.spawn_uniform(0, 500)
        cells = {tr.cells[0] for tr in syn.live_streams}
        assert len(cells) > 10  # most of the 16 cells hit

    def test_spawn_from_distribution(self, space4):
        model = GlobalMobilityModel(space4)
        syn = Synthesizer(model, lam=10.0, rng=0)
        probs = np.zeros(16)
        probs[3] = 1.0
        syn.spawn_from_distribution(0, 10, probs)
        assert all(tr.cells == [3] for tr in syn.live_streams)

    def test_spawn_from_bad_distribution_shape(self, space4):
        syn = Synthesizer(GlobalMobilityModel(space4), lam=10.0, rng=0)
        with pytest.raises(ConfigurationError):
            syn.spawn_from_distribution(0, 5, np.ones(3))

    @pytest.mark.parametrize("engine", [Synthesizer, VectorizedSynthesizer])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_spawn_from_distribution_refuses_bad_entries(self, space4, engine, bad):
        syn = engine(GlobalMobilityModel(space4), lam=10.0, rng=0)
        probs = np.ones(16)
        probs[5] = bad
        before = syn.rng.bit_generator.state
        with pytest.raises(ConfigurationError, match=r"probability 5 is"):
            syn.spawn_from_distribution(0, 4, probs)
        assert syn.rng.bit_generator.state == before  # refused before any draw
        assert syn.n_live == 0

    def test_spawn_zero_count_noop(self, space4):
        syn = Synthesizer(GlobalMobilityModel(space4), lam=10.0, rng=0)
        syn.spawn_from_entering(0, 0)
        assert syn.n_live == 0

    def test_unique_user_ids(self, space4):
        syn = Synthesizer(GlobalMobilityModel(space4), lam=10.0, rng=0)
        syn.spawn_uniform(0, 50)
        syn.step(1)  # only a step moves live streams into round 1
        syn.spawn_uniform(1, 50)
        ids = [tr.user_id for tr in syn.all_trajectories()]
        assert len(set(ids)) == 100


class TestNewPointGeneration:
    def test_follows_deterministic_chain(self, space4):
        # 0 -> 1 -> 2 -> 3 along the bottom row.
        model = deterministic_model(space4, {0: 1, 1: 2, 2: 3, 3: 3})
        syn = Synthesizer(model, lam=100.0, rng=0)
        syn.spawn_from_distribution(0, 5, np.eye(16)[0])
        for t in range(1, 4):
            syn.step(t)
        for tr in syn.live_streams:
            assert tr.cells == [0, 1, 2, 3]

    def test_no_quit_without_quit_mass(self, space4):
        model = deterministic_model(space4, {0: 0})
        syn = Synthesizer(model, lam=1.0, rng=0)
        syn.spawn_from_distribution(0, 20, np.eye(16)[0])
        for t in range(1, 10):
            syn.step(t)
        assert syn.n_live == 20

    def test_quit_probability_grows_with_length(self, space4):
        """Eq. 8: longer streams quit more readily (ell / lambda factor)."""
        quit_heavy = {0: 0}
        model = deterministic_model(space4, quit_heavy, quit_cells=(0,))
        # quit raw prob at cell 0 = 1 / (1 move + 1 quit) = 0.5
        survivors = []
        for lam in (2.0, 50.0):
            syn = Synthesizer(model, lam=lam, rng=1)
            syn.spawn_from_distribution(0, 400, np.eye(16)[0])
            for t in range(1, 6):
                syn.step(t)
            survivors.append(syn.n_live)
        # Small lambda => aggressive termination => fewer survivors.
        assert survivors[0] < survivors[1]

    def test_termination_disabled(self, space4):
        model = deterministic_model(space4, {0: 0}, quit_cells=(0,))
        syn = Synthesizer(model, lam=1.0, enable_termination=False, rng=0)
        syn.spawn_from_distribution(0, 50, np.eye(16)[0])
        for t in range(1, 10):
            syn.step(t)
        assert syn.n_live == 50

    def test_terminated_streams_are_kept_in_history(self, space4):
        model = deterministic_model(space4, {0: 0}, quit_cells=(0,))
        syn = Synthesizer(model, lam=1.0, rng=0)
        syn.spawn_from_distribution(0, 100, np.eye(16)[0])
        for t in range(1, 15):
            syn.step(t)
        total = syn.all_trajectories()
        assert len(total) == 100
        assert sum(tr.terminated for tr in total) == 100 - syn.n_live

    def test_moves_respect_adjacency(self, space4, walk_data):
        model = GlobalMobilityModel(space4)
        rng = np.random.default_rng(5)
        model.set_all(rng.random(space4.size))
        syn = Synthesizer(model, lam=20.0, rng=0)
        syn.spawn_from_entering(0, 100)
        grid = space4.grid
        for t in range(1, 15):
            syn.step(t)
        for tr in syn.all_trajectories():
            for a, b in tr.transitions():
                assert grid.are_adjacent(a, b)


class TestSizeAdjustment:
    def test_grows_to_target(self, space4):
        model = deterministic_model(space4, {0: 0}, enter_cell=2)
        syn = Synthesizer(model, lam=100.0, rng=0)
        syn.spawn_from_entering(0, 10)
        syn.step(1, target_size=25)
        assert syn.n_live == 25
        # The 15 appended streams start at t=1 from the entering cell.
        new = [tr for tr in syn.live_streams if tr.start_time == 1]
        assert len(new) == 15
        assert all(tr.cells == [2] for tr in new)

    def test_shrinks_to_target(self, space4):
        model = deterministic_model(space4, {0: 0}, quit_cells=(0,))
        syn = Synthesizer(model, lam=1e9, rng=0)  # suppress natural quits
        syn.spawn_from_distribution(0, 30, np.eye(16)[0])
        syn.step(1, target_size=12)
        assert syn.n_live == 12
        assert len(syn.all_trajectories()) == 30

    def test_exact_target_noop(self, space4):
        model = deterministic_model(space4, {0: 0})
        syn = Synthesizer(model, lam=100.0, rng=0)
        syn.spawn_from_distribution(0, 10, np.eye(16)[0])
        syn.step(1, target_size=10)
        assert syn.n_live == 10

    def test_negative_target_rejected(self, space4):
        model = deterministic_model(space4, {0: 0})
        syn = Synthesizer(model, lam=100.0, rng=0)
        syn.spawn_from_distribution(0, 5, np.eye(16)[0])
        with pytest.raises(ConfigurationError):
            syn.step(1, target_size=-1)

    def test_size_tracks_series(self, space4):
        model = deterministic_model(space4, {c: c for c in range(16)}, quit_cells=(0,))
        syn = Synthesizer(model, lam=1e9, rng=3)
        targets = [20, 35, 10, 10, 40, 0, 5]
        syn.spawn_from_entering(0, targets[0])
        for t, target in enumerate(targets[1:], start=1):
            syn.step(t, target_size=target)
            assert syn.n_live == target


class TestValidation:
    def test_bad_lambda(self, space4):
        with pytest.raises(ConfigurationError):
            Synthesizer(GlobalMobilityModel(space4), lam=0.0)
