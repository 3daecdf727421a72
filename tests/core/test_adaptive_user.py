"""The per-user adaptive budget allocator (``allocator="adaptive-user"``):
it consults the ledger's ``remaining_many`` and never violates any user's
w-event bound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.allocation import (
    AdaptiveBudgetAllocator,
    AdaptiveUserBudgetAllocator,
    AllocationContext,
    make_budget_allocator,
    make_population_allocator,
)
from repro.core.online import OnlineRetraSyn
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.exceptions import ConfigurationError
from repro.geo.trajectory import average_length
from repro.stream.reports import ColumnarStreamView


def _context_with_signal(k=8):
    """A context whose deviation is positive (so Eq. 10 is non-trivial)."""
    context = AllocationContext()
    rng = np.random.default_rng(0)
    for _ in range(4):
        freqs = rng.random(k)
        context.record_collection(freqs / freqs.sum())
        context.record_significant_ratio(0.3)
    return context


class TestAllocatorUnit:
    def test_factory_builds_it_for_budget_division_only(self):
        alloc = make_budget_allocator("adaptive-user", 1.0, 10, alpha=4.0)
        assert isinstance(alloc, AdaptiveUserBudgetAllocator)
        assert alloc.alpha == 4.0
        with pytest.raises(ConfigurationError):
            make_population_allocator("adaptive-user", 10)

    def test_without_per_user_info_it_matches_plain_adaptive(self):
        context = _context_with_signal()
        plain = AdaptiveBudgetAllocator(1.0, 5)
        per_user = AdaptiveUserBudgetAllocator(1.0, 5)
        for committed in (0.2, 0.1):
            plain.commit(committed)
            per_user.commit(committed)
        t = 3
        assert per_user.propose_for(t, context, None) == pytest.approx(
            plain.propose(t, context)
        )
        assert per_user.propose(t, context) == pytest.approx(
            plain.propose(t, context)
        )

    def test_bootstrap_round_spends_eps_over_w(self):
        alloc = AdaptiveUserBudgetAllocator(1.0, 5)
        assert alloc.propose_for(0, AllocationContext(), None) == 0.2

    def test_scales_by_the_minimum_participant_remaining(self):
        context = _context_with_signal()
        alloc = AdaptiveUserBudgetAllocator(1.0, 5)
        base = alloc.propose_for(3, context, np.asarray([0.5, 0.8]))
        tighter = alloc.propose_for(3, context, np.asarray([0.25, 0.8]))
        assert tighter == pytest.approx(base / 2)

    def test_fresh_participants_unlock_more_than_the_schedule(self):
        """After heavy schedule spends, a batch of fresh users (full ε
        remaining) may be billed more than the schedule-level remainder —
        the whole point of consulting the ledger per user."""
        context = _context_with_signal()
        plain = AdaptiveBudgetAllocator(1.0, 4)
        per_user = AdaptiveUserBudgetAllocator(1.0, 4)
        for committed in (0.5, 0.4):
            plain.commit(committed)
            per_user.commit(committed)
        fresh = np.asarray([1.0, 1.0, 0.95])
        assert per_user.propose_for(5, context, fresh) > plain.propose(
            5, context
        )

    def test_commit_beyond_schedule_window_is_allowed(self):
        alloc = AdaptiveUserBudgetAllocator(1.0, 2)
        alloc.commit(0.9)
        alloc.commit(0.9)  # plain adaptive's tracker would refuse this
        assert alloc.tracker.window_history()[-2:] == [0.9, 0.9]

    def test_empty_remaining_falls_back_to_schedule(self):
        context = _context_with_signal()
        alloc = AdaptiveUserBudgetAllocator(1.0, 5)
        assert alloc.propose_for(
            2, context, np.empty(0)
        ) == pytest.approx(alloc.propose_for(2, context, None))


class TestEngineIntegration:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_full_run_satisfies_the_ledger(self, walk_data, n_shards):
        config = RetraSynConfig(
            epsilon=1.0, w=8, division="budget", allocator="adaptive-user",
            n_shards=n_shards, seed=0,
        )
        run = RetraSyn(config).run(walk_data)
        summary = run.accountant.summary()
        assert summary["satisfied"] is True
        assert summary["max_window_spend"] <= 1.0 + 1e-9

    def test_engine_consults_remaining_many(self, walk_data):
        config = RetraSynConfig(
            epsilon=1.0, w=8, division="budget", allocator="adaptive-user",
            seed=0,
        )
        curator = OnlineRetraSyn(
            walk_data.grid, config,
            lam=max(1.0, average_length(walk_data.trajectories)),
        )
        consulted = []
        original = curator.accountant.remaining_many

        def spy(user_ids, timestamp):
            consulted.append(int(timestamp))
            return original(user_ids, timestamp)

        curator.accountant.remaining_many = spy
        view = ColumnarStreamView(walk_data, curator.space)
        for t in range(6):
            curator.process_timestep(
                t,
                participants=view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
        assert consulted == list(range(6))

    def test_sharded_engine_consults_remaining_many(self, walk_data):
        config = RetraSynConfig(
            epsilon=1.0, w=8, division="budget", allocator="adaptive-user",
            n_shards=2, seed=0,
        )
        curator = OnlineRetraSyn(
            walk_data.grid, config,
            lam=max(1.0, average_length(walk_data.trajectories)),
        )
        consulted = []
        original = curator.accountant.remaining_many

        def spying_remaining_many(ids, t):
            consulted.append(int(t))
            return original(ids, t)

        curator.accountant.remaining_many = spying_remaining_many
        view = ColumnarStreamView(walk_data, curator.space)
        try:
            for t in range(4):
                curator.process_timestep(
                    t,
                    participants=view.batch_at(t),
                    newly_entered=view.newly_entered_at(t),
                    quitted=view.quitted_at(t),
                    n_real_active=view.n_active_at(t),
                )
        finally:
            curator.close()
        assert consulted == list(range(4))

    def test_runs_without_audit_by_falling_back(self, walk_data):
        config = RetraSynConfig(
            epsilon=1.0, w=8, division="budget", allocator="adaptive-user",
            track_privacy=False, seed=0,
        )
        run = RetraSyn(config).run(walk_data)
        assert run.accountant is None
        assert run.synthetic.n_timestamps == walk_data.n_timestamps

    def test_cli_flag_accepts_adaptive_user(self, tmp_path):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "run", "--input", "x.npz", "--out", "y.npz",
            "--method", "RetraSyn_b", "--allocator", "adaptive-user",
        ])
        assert args.allocator == "adaptive-user"
        # serve exposes the division directly, so the allocator choice is
        # reachable there too
        args = build_parser().parse_args([
            "serve", "--input", "x.npz",
            "--division", "budget", "--allocator", "adaptive-user",
        ])
        assert args.division == "budget"

    def test_serve_cli_runs_adaptive_user(self, tmp_path):
        from repro.cli import main
        from repro.datasets.io import save_stream_dataset
        from repro.datasets.synthetic import make_random_walks

        data = make_random_walks(k=5, n_streams=40, n_timestamps=12, seed=1)
        path = tmp_path / "walks.npz"
        save_stream_dataset(data, path)
        assert main([
            "serve", "--input", str(path), "--division", "budget",
            "--allocator", "adaptive-user", "--w", "6", "--seed", "0",
        ]) == 0
