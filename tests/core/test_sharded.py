"""Tests for hash-sharded collection."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.online import OnlineRetraSyn
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.core.sharded import shard_of
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def small_stream():
    return make_random_walks(k=4, n_streams=120, n_timestamps=24, seed=0)


class TestPartition:
    def test_covers_all_shards(self):
        shards = {shard_of(uid, 4) for uid in range(1000)}
        assert shards == {0, 1, 2, 3}

    def test_deterministic_and_disjoint(self):
        for uid in range(200):
            first = shard_of(uid, 8)
            assert first == shard_of(uid, 8)
            assert 0 <= first < 8

    def test_k1_maps_everyone_to_zero(self):
        assert all(shard_of(uid, 1) == 0 for uid in range(50))

    def test_not_correlated_with_parity(self):
        # A modulo partition would put all even uids in shard 0 of K=2;
        # the multiplicative hash must mix parity into both shards.
        even = {shard_of(uid, 2) for uid in range(0, 100, 2)}
        assert even == {0, 1}


class TestConfigWiring:
    def test_invalid_n_shards(self):
        with pytest.raises(ConfigurationError):
            RetraSynConfig(n_shards=0)

    def test_invalid_executor(self):
        with pytest.raises(ConfigurationError):
            RetraSynConfig(shard_executor="threads")

    def test_invalid_oracle_mode(self):
        with pytest.raises(ConfigurationError):
            RetraSynConfig(oracle_mode="bogus")

    def test_run_routes_through_sharded_engine(self, small_stream):
        cfg = RetraSynConfig(epsilon=1.0, w=5, n_shards=3, seed=0)
        run = RetraSyn(cfg).run(small_stream)
        assert run.synthetic.n_timestamps == small_stream.n_timestamps
        assert run.accountant.verify()


class TestShardedCurator:
    def _drive(self, curator, data):
        for t in range(data.n_timestamps):
            curator.process_timestep(
                t,
                participants=data.participants_at(t),
                newly_entered=data.newly_entered_at(t),
                quitted=data.quitted_at(t),
                n_real_active=data.n_active_at(t),
            )
        return curator

    def test_same_interface_as_online(self, small_stream):
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=0)
        curator = OnlineRetraSyn(
            small_stream.grid, replace(cfg, n_shards=4), lam=5.0
        )
        self._drive(curator, small_stream)
        snapshot = curator.live_snapshot()
        assert snapshot.dtype == np.int64
        run = curator.result(small_stream.n_timestamps)
        assert run.synthetic.n_timestamps == small_stream.n_timestamps
        assert len(run.reporters_per_timestamp) == small_stream.n_timestamps

    def test_no_user_double_spends_within_window(self, small_stream):
        """The hash partition must preserve per-user w-event accounting."""
        cfg = RetraSynConfig(epsilon=1.0, w=6, n_shards=4, seed=1)
        run = RetraSyn(cfg).run(small_stream)
        acc = run.accountant
        assert acc.verify()
        assert acc.max_window_spend() <= cfg.epsilon + 1e-9

    def test_each_user_reports_in_one_shard_only(self, small_stream):
        """Reports of one user always land on the same shard's tracker."""
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=0)
        curator = OnlineRetraSyn(
            small_stream.grid, replace(cfg, n_shards=4), lam=5.0
        )
        self._drive(curator, small_stream)
        seen: dict[int, int] = {}
        for k, shard in enumerate(curator._shards):
            for uid in shard.tracker.known_users():
                assert seen.setdefault(uid, k) == k, uid
                assert shard_of(uid, 4) == k

    def test_budget_division_sharded(self, small_stream):
        cfg = RetraSynConfig(
            epsilon=1.0, w=5, division="budget", n_shards=3, seed=0
        )
        run = RetraSyn(cfg).run(small_stream)
        assert run.accountant.verify()
        assert sum(run.reporters_per_timestamp) > 0

    def test_random_allocator_sharded(self, small_stream):
        cfg = RetraSynConfig(
            epsilon=1.0, w=5, allocator="random", n_shards=3, seed=0
        )
        run = RetraSyn(cfg).run(small_stream)
        assert run.accountant.verify()
        assert sum(run.reporters_per_timestamp) > 0


class TestShardCountInvariance:
    """K=1 and K=4 must produce equivalent aggregate distributions."""

    @pytest.fixture(scope="class")
    def runs(self, small_stream):
        out = {}
        for n_shards in (1, 4):
            totals, densities = [], []
            for seed in range(3):
                cfg = RetraSynConfig(epsilon=1.0, w=5, seed=seed)
                curator = OnlineRetraSyn(
                    small_stream.grid, replace(cfg, n_shards=n_shards), lam=5.0
                )
                for t in range(small_stream.n_timestamps):
                    curator.process_timestep(
                        t,
                        participants=small_stream.participants_at(t),
                        newly_entered=small_stream.newly_entered_at(t),
                        quitted=small_stream.quitted_at(t),
                        n_real_active=small_stream.n_active_at(t),
                    )
                totals.append(sum(curator.reporters_per_timestamp))
                syn = curator.synthetic_dataset(small_stream.n_timestamps)
                hist = np.zeros(small_stream.grid.n_cells)
                for t in range(small_stream.n_timestamps):
                    cells = syn.cells_at(t)
                    hist += np.bincount(
                        cells, minlength=small_stream.grid.n_cells
                    )
                densities.append(hist / max(hist.sum(), 1.0))
            out[n_shards] = {
                "mean_reporters": np.mean(totals),
                "density": np.mean(densities, axis=0),
            }
        return out

    def test_reporter_volume_matches(self, runs):
        a, b = runs[1]["mean_reporters"], runs[4]["mean_reporters"]
        assert a == pytest.approx(b, rel=0.25), (a, b)

    def test_many_small_shards_do_not_collapse(self):
        """Stochastic rounding: tiny partitions must still sample reporters.

        With deterministic per-shard round(), K=8 over a 60-user stream
        (a handful of eligible users per shard) would round every shard's
        sample size to zero and the engine would collect nothing.
        """
        data = make_random_walks(k=4, n_streams=60, n_timestamps=24, seed=0)
        base = RetraSyn(RetraSynConfig(epsilon=1.0, w=5, seed=3)).run(data)
        shard = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=5, n_shards=8, seed=3)
        ).run(data)
        a = sum(base.reporters_per_timestamp)
        b = sum(shard.reporters_per_timestamp)
        assert b > 0
        assert b == pytest.approx(a, rel=0.35), (a, b)

    def test_density_distributions_match(self, runs):
        from repro.metrics.divergence import jensen_shannon_divergence

        jsd = jensen_shannon_divergence(runs[1]["density"], runs[4]["density"])
        assert jsd < 0.15, jsd


class TestDistributedExecutor:
    def test_distributed_matches_serial(self, small_stream):
        """Both executors share shard seeds => identical outputs."""
        outs = {}
        for executor in ("serial", "distributed"):
            cfg = RetraSynConfig(
                epsilon=1.0, w=5, n_shards=2, shard_executor=executor, seed=7
            )
            run = RetraSyn(cfg).run(small_stream)
            outs[executor] = run
        assert (
            outs["serial"].reporters_per_timestamp
            == outs["distributed"].reporters_per_timestamp
        )
        assert len(outs["serial"].synthetic) == len(outs["distributed"].synthetic)
        assert outs["distributed"].accountant.verify()

    def test_close_is_idempotent(self, small_stream):
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=0)
        curator = OnlineRetraSyn(
            small_stream.grid,
            replace(cfg, n_shards=2, shard_executor="distributed"),
            lam=5.0,
        )
        curator.close()
        curator.close()


class TestK1MatchesUnsharded:
    """K=2 serial (seeded shards, stochastic rounding) vs the K=1 round
    on the engine rng: same distributions."""

    def test_reporters_and_densities_agree(self, small_stream):
        from repro.metrics.divergence import jensen_shannon_divergence

        totals = {"sharded": [], "online": []}
        densities = {"sharded": [], "online": []}
        for seed in range(3):
            cfg = RetraSynConfig(epsilon=2.0, w=5, seed=seed)
            sharded = OnlineRetraSyn(
                small_stream.grid, replace(cfg, n_shards=2), lam=5.0
            )
            online = OnlineRetraSyn(small_stream.grid, cfg, lam=5.0)
            for curator, key in ((sharded, "sharded"), (online, "online")):
                for t in range(small_stream.n_timestamps):
                    curator.process_timestep(
                        t,
                        participants=small_stream.participants_at(t),
                        newly_entered=small_stream.newly_entered_at(t),
                        quitted=small_stream.quitted_at(t),
                        n_real_active=small_stream.n_active_at(t),
                    )
                totals[key].append(sum(curator.reporters_per_timestamp))
                syn = curator.synthetic_dataset(small_stream.n_timestamps)
                hist = np.zeros(small_stream.grid.n_cells)
                for t in range(small_stream.n_timestamps):
                    hist += np.bincount(
                        syn.cells_at(t), minlength=small_stream.grid.n_cells
                    )
                densities[key].append(hist / max(hist.sum(), 1.0))
        assert np.mean(totals["sharded"]) == pytest.approx(
            np.mean(totals["online"]), rel=0.25
        )
        # The synthetic location distributions must agree on average.
        jsd = jensen_shannon_divergence(
            np.mean(densities["sharded"], axis=0),
            np.mean(densities["online"], axis=0),
        )
        assert jsd < 0.15, jsd


class TestDMUPrefilter:
    """Shard-local never-observed pruning of the DMU candidate set."""

    def test_candidates_shrink_on_structured_flows(self):
        from repro.datasets.synthetic import make_lane_stream

        data = make_lane_stream(k=5, n_streams=200, n_timestamps=25, seed=7)
        cfg = RetraSynConfig(
            epsilon=2.0, w=5, n_shards=3, dmu_prefilter=True, seed=0
        )
        curator = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(data.n_timestamps):
            curator.process_timestep(
                t,
                participants=data.participants_at(t),
                newly_entered=data.newly_entered_at(t),
                quitted=data.quitted_at(t),
                n_real_active=data.n_active_at(t),
            )
        n_candidates = int(curator._dmu_candidates.sum())
        # Lane flows touch a thin slice of the transition space: the
        # prefilter must prune a substantial share of states.
        assert 0 < n_candidates < curator.space.size
        assert curator.accountant.verify()

    def test_prefilter_keeps_utility_close(self, small_stream):
        from repro.metrics.divergence import jensen_shannon_divergence

        densities = {}
        for prefilter in (False, True):
            hists = []
            for seed in range(3):
                cfg = RetraSynConfig(
                    epsilon=2.0, w=5, n_shards=3,
                    dmu_prefilter=prefilter, seed=seed,
                )
                run = RetraSyn(cfg).run(small_stream)
                hist = np.zeros(small_stream.grid.n_cells)
                for t in range(small_stream.n_timestamps):
                    hist += np.bincount(
                        run.synthetic.cells_at(t),
                        minlength=small_stream.grid.n_cells,
                    )
                hists.append(hist / max(hist.sum(), 1.0))
            densities[prefilter] = np.mean(hists, axis=0)
        jsd = jensen_shannon_divergence(densities[False], densities[True])
        assert jsd < 0.15, jsd

    def test_support_mask_rule(self):
        from repro.core.online import support_mask

        ones = np.array([0.0, 10.0, 500.0])
        # n=1000, q~0.269 at eps=1: floor ~ 269 + 3*sqrt(196) ~ 311
        q = 1.0 / (np.exp(1.0) + 1.0)
        mask = support_mask(ones, 1000, q)
        assert mask.tolist() == [False, False, True]
        assert not support_mask(ones, 0, q).any()
