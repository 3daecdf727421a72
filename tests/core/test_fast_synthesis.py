"""Tests for the vectorized synthesis engine.

The vectorized engine must be a behavioural twin of the reference
object-based synthesizer: identical invariants, statistically identical
generative distribution, materially faster on large populations.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fast_synthesis as fs
from repro.api.specs import SessionSpec
from repro.core.fast_synthesis import (
    VectorizedSynthesizer,
    _CompiledModel,
    _draw_slab,
    _inverse_cdf,
)
from repro.core.mobility_model import _DIRTY_LOG_LIMIT, GlobalMobilityModel
from repro.core.retrasyn import RetraSyn, RetraSynConfig
from repro.core.synthesis import Synthesizer
from repro.exceptions import ConfigurationError
from repro.geo.grid import unit_grid
from repro.stream.state_space import TransitionStateSpace

from reference.compile import compile_loop
from tests.core.test_synthesis import deterministic_model

#: How the synthesizer obtains its compiled model each step: the engine's
#: dirty-row recompile, a vectorized rebuild every step, or the per-cell
#: reference loop every step.
COMPILE_PATHS = {
    "incremental": None,
    "full": lambda self: _CompiledModel(self.model),
    "loop": lambda self: compile_loop(self.model),
}


def _compile_path(name):
    """Context that routes ``VectorizedSynthesizer._compile`` through ``name``."""
    build = COMPILE_PATHS[name]
    if build is None:
        return contextlib.nullcontext()
    return mock.patch.object(VectorizedSynthesizer, "_compile", build)


class TestInterfaceParity:
    def test_spawn_from_entering(self, space4):
        model = deterministic_model(space4, {}, enter_cell=7)
        syn = VectorizedSynthesizer(model, lam=10.0, rng=0)
        syn.spawn_from_entering(0, 25)
        assert syn.n_live == 25
        assert all(tr.cells == [7] for tr in syn.live_streams)

    def test_spawn_uniform(self, space4):
        syn = VectorizedSynthesizer(GlobalMobilityModel(space4), lam=10.0, rng=0)
        syn.spawn_uniform(0, 300)
        cells = {tr.cells[0] for tr in syn.live_streams}
        assert len(cells) > 10

    def test_spawn_from_distribution_validation(self, space4):
        syn = VectorizedSynthesizer(GlobalMobilityModel(space4), lam=10.0, rng=0)
        with pytest.raises(ConfigurationError):
            syn.spawn_from_distribution(0, 5, np.ones(3))

    def test_invalid_lambda(self, space4):
        with pytest.raises(ConfigurationError):
            VectorizedSynthesizer(GlobalMobilityModel(space4), lam=0.0)

    def test_deterministic_chain(self, space4):
        model = deterministic_model(space4, {0: 1, 1: 2, 2: 3, 3: 3})
        syn = VectorizedSynthesizer(model, lam=100.0, rng=0)
        syn.spawn_from_distribution(0, 5, np.eye(16)[0])
        for t in range(1, 4):
            syn.step(t)
        for tr in syn.live_streams:
            assert tr.cells == [0, 1, 2, 3]

    def test_size_adjustment_series(self, space4):
        model = deterministic_model(
            space4, {c: c for c in range(16)}, quit_cells=(0,)
        )
        syn = VectorizedSynthesizer(model, lam=1e9, rng=3)
        targets = [20, 35, 10, 10, 40, 0, 5]
        syn.spawn_from_entering(0, targets[0])
        for t, target in enumerate(targets[1:], start=1):
            syn.step(t, target_size=target)
            assert syn.n_live == target

    def test_history_retained(self, space4):
        model = deterministic_model(space4, {0: 0}, quit_cells=(0,))
        syn = VectorizedSynthesizer(model, lam=1.0, rng=0)
        syn.spawn_from_distribution(0, 100, np.eye(16)[0])
        for t in range(1, 15):
            syn.step(t)
        total = syn.all_trajectories()
        assert len(total) == 100
        assert sum(tr.terminated for tr in total) == 100 - syn.n_live

    def test_capacity_growth(self, space4):
        """Spawning past the initial capacity must transparently grow."""
        model = deterministic_model(space4, {0: 0}, enter_cell=0)
        syn = VectorizedSynthesizer(model, lam=100.0, rng=0, initial_capacity=16)
        for t in range(0, 30):
            syn.spawn_from_entering(t, 10)
            if t > 0:
                syn.step(t)
        assert syn.store.n_total == 300
        assert all(len(tr) >= 1 for tr in syn.all_trajectories())


def _compiled_equal(a, b):
    np.testing.assert_array_equal(np.asarray(a.dest), np.asarray(b.dest))
    np.testing.assert_allclose(a.cum_t, b.cum_t, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.quit_raw, b.quit_raw, rtol=0, atol=1e-12)
    assert a.version == b.version


class TestCompiledModel:
    """Incremental recompile ≡ vectorized full rebuild ≡ per-cell loop."""

    def _random_update(self, model, rng):
        """One random model mutation in the shapes DMU / AllUpdate produce."""
        fresh = rng.normal(0.3, 1.0, size=model.space.size)
        kind = rng.random()
        if kind < 0.15:
            model.set_all(fresh)
        elif kind < 0.3:
            # Boundary case: an empty selection bumps nothing.
            model.update_selected(np.empty(0, dtype=np.int64), fresh)
        else:
            n_sel = int(rng.integers(1, model.space.size // 2))
            idx = rng.choice(model.space.size, size=n_sel, replace=False)
            model.update_selected(idx, fresh)

    @pytest.mark.parametrize("seed", range(5))
    def test_incremental_equals_full_after_arbitrary_updates(self, space4, rng, seed):
        del rng
        rng = np.random.default_rng(seed)
        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        incremental = _CompiledModel(model)
        for _ in range(12):
            self._random_update(model, rng)
            incremental.update(model)
            _compiled_equal(incremental, _CompiledModel(model))
            _compiled_equal(incremental, compile_loop(model))

    def test_vectorized_assembly_matches_reference_loop(self, space4):
        rng = np.random.default_rng(3)
        model = GlobalMobilityModel(space4)
        # Stress the fallbacks: negatives, zero rows, quit-only rows.
        f = rng.normal(0.0, 1.0, size=space4.size)
        f[space4.out_move_indices(5)] = 0.0
        f[space4.index_of_quit(5)] = 2.0
        f[space4.out_move_indices(9)] = 0.0
        f[space4.index_of_quit(9)] = 0.0
        model.set_all(f)
        _compiled_equal(_CompiledModel(model), compile_loop(model))

    def test_no_eq_space(self, space4_noeq):
        rng = np.random.default_rng(4)
        model = GlobalMobilityModel(space4_noeq)
        model.set_all(rng.random(space4_noeq.size))
        _compiled_equal(_CompiledModel(model), compile_loop(model))

    def test_update_without_provenance_rebuilds_every_row(self, space4):
        """A ``set_all`` or an outrun journal names no rows: all are rebuilt."""
        rng = np.random.default_rng(5)
        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        compiled = _CompiledModel(model)
        model.set_all(rng.random(space4.size))
        assert model.dirty_origins_since(compiled.version) is None
        compiled.update(model)
        _compiled_equal(compiled, compile_loop(model))
        stale_version = compiled.version
        for _ in range(_DIRTY_LOG_LIMIT + 1):
            model.update_selected([0], rng.random(space4.size))
        assert model.dirty_origins_since(stale_version) is None
        compiled.update(model)
        _compiled_equal(compiled, compile_loop(model))


def _row_gather_inverse_cdf(cum_probs, cells, draws):
    """The formulation ``_inverse_cdf`` replaced: gather rows, compare, reduce."""
    return (draws[:, None] > cum_probs[cells]).sum(axis=1)


def _draws_on_cdf_entries(rng, cum_probs, cells):
    """Uniform draws, about half of them *exactly* a CDF entry of their row."""
    draws = rng.random(cells.size)
    entries = cum_probs[cells, rng.integers(0, cum_probs.shape[1], size=cells.size)]
    on_entry = (rng.random(cells.size) < 0.5) & (entries < 1.0)
    return np.where(on_entry, entries, draws)


class TestInverseCdf:
    """Column-wise ``_inverse_cdf`` ≡ the row-gather lookup, draw for draw."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(sorted(COMPILE_PATHS)),
        st.sampled_from((1, 2, 4)),  # k=1: one cell, one destination, width 1
        st.sampled_from((0, 1, 7, 300)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_row_gather_on_compiled_models(self, seed, mode, k, n):
        rng = np.random.default_rng(seed)
        space = TransitionStateSpace(unit_grid(k))
        model = GlobalMobilityModel(space)
        f = rng.normal(0.3, 1.0, size=space.size)
        f[space.out_move_indices(0)] = 0.0  # a massless row: uniform fallback
        model.set_all(f)
        if mode == "loop":
            compiled = compile_loop(model)
        else:
            compiled = _CompiledModel(model)
            fresh = rng.normal(0.3, 1.0, size=space.size)
            if mode == "full":
                model.set_all(fresh)
            else:
                model.update_selected(
                    rng.choice(space.size, size=space.size // 2, replace=False),
                    fresh,
                )
            compiled.update(model)
        assert compiled.cum_t.flags.c_contiguous
        assert compiled.cum_t.shape == compiled.dest.shape[::-1]
        cells = rng.integers(0, space.n_cells, size=n)
        draws = _draws_on_cdf_entries(rng, compiled.cum_t.T, cells)
        index = _inverse_cdf(compiled.cum_t, cells, draws)
        assert index.dtype == np.int64
        np.testing.assert_array_equal(
            index, _row_gather_inverse_cdf(compiled.cum_t.T, cells, draws)
        )

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_matches_row_gather_on_padded_rows_of_every_degree(self, seed, width):
        rng = np.random.default_rng(seed)
        n_rows = 12
        degrees = rng.integers(1, width + 1, size=n_rows)
        degrees[0] = 1  # a degree-1 row, padded to the full width
        probs = rng.random((n_rows, width)) * (np.arange(width) < degrees[:, None])
        cum = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        cum[np.arange(width) >= degrees[:, None] - 1] = 1.0
        cells = rng.integers(0, n_rows, size=200)
        draws = _draws_on_cdf_entries(rng, cum, cells)
        index = _inverse_cdf(np.ascontiguousarray(cum.T), cells, draws)
        np.testing.assert_array_equal(
            index, _row_gather_inverse_cdf(cum, cells, draws)
        )
        assert (index < degrees[cells]).all()  # never lands on padding

    def test_empty_stay_set_draws_quits_only(self, space4):
        """Everyone quits: no move vector is drawn, no cell comes back."""
        model = GlobalMobilityModel(space4)
        model.set_all(np.random.default_rng(0).random(space4.size))
        compiled = _CompiledModel(model)
        cells = np.arange(10) % space4.n_cells
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        quit_mask, new_cells = _draw_slab(
            1.0, np.full(10, 10**6), cells, compiled.cum_t, compiled.dest,
            np.ones(space4.n_cells), rng,
        )
        assert quit_mask.all() and new_cells.size == 0
        twin.random(10)
        assert rng.random() == twin.random()


class TestCompileModes:
    """Every compile path must yield bit-identical synthetic streams."""

    def _run(self, space, mode, seed=0, **engine):
        rng = np.random.default_rng(11)
        model = GlobalMobilityModel(space)
        model.set_all(rng.random(space.size))
        syn = VectorizedSynthesizer(model, lam=8.0, rng=seed, **engine)
        syn.spawn_from_entering(0, 200)
        for t in range(1, 10):
            # Mutate the model mid-run the way DMU rounds do.
            idx = rng.choice(space.size, size=space.size // 4, replace=False)
            model.update_selected(idx, rng.random(space.size))
            syn.step(t, target_size=200 - 5 * t)
        assert (syn._pool is not None) == (syn.synthesis_shards > 1)
        syn.close()
        return [(tr.start_time, tr.cells, tr.terminated) for tr in syn.all_trajectories()]

    def test_all_modes_bit_identical(self, space4):
        for shards in (1, 2):  # the single-threaded path, then thread slabs
            runs = {}
            for mode in COMPILE_PATHS:
                with mock.patch.object(fs, "_MIN_STREAMS_PER_SHARD", 1), \
                        _compile_path(mode):
                    runs[mode] = self._run(space4, mode, synthesis_shards=shards)
            assert runs["incremental"] == runs["full"] == runs["loop"]

    def test_invalid_compile_mode(self, space4):
        """Compilation is not selectable: the removed knob is refused."""
        with pytest.raises(TypeError):
            VectorizedSynthesizer(
                GlobalMobilityModel(space4), lam=1.0, compile_mode="full"
            )

    def test_config_validation(self):
        with pytest.raises(TypeError):
            RetraSynConfig(compile_mode="full")
        with pytest.raises(ConfigurationError):
            SessionSpec.from_flat(compile_mode="full")
        with pytest.raises(ConfigurationError):
            RetraSynConfig(synthesis_shards=0)


class TestShardParallelGeneration:
    def _run_sharded(self, space, shards, seed=0, n=600, steps=10, threshold=1):
        import repro.core.fast_synthesis as fs

        rng = np.random.default_rng(7)
        model = GlobalMobilityModel(space)
        model.set_all(rng.random(space.size))
        old = fs._MIN_STREAMS_PER_SHARD
        fs._MIN_STREAMS_PER_SHARD = threshold  # force the threaded path
        try:
            syn = VectorizedSynthesizer(
                model, lam=8.0, rng=seed, synthesis_shards=shards
            )
            syn.spawn_from_entering(0, n)
            for t in range(1, steps):
                syn.step(t, target_size=n)
            return syn
        finally:
            fs._MIN_STREAMS_PER_SHARD = old

    def test_deterministic_for_fixed_seed_and_shards(self, space4):
        prints = []
        for _ in range(2):
            syn = self._run_sharded(space4, shards=3, seed=5)
            prints.append(
                [(tr.start_time, tr.cells) for tr in syn.all_trajectories()]
            )
        assert prints[0] == prints[1]

    def test_shard_counts_distribution_equivalent(self, space4):
        """Sharded generation draws from the same generative law."""
        from collections import Counter

        totals = {}
        for shards in (1, 4):
            trans = Counter()
            lengths = []
            for seed in range(3):
                syn = self._run_sharded(space4, shards=shards, seed=seed)
                for tr in syn.all_trajectories():
                    trans.update(tr.transitions())
                    lengths.append(len(tr))
            totals[shards] = (trans, np.mean(lengths))
        t1, len1 = totals[1]
        t4, len4 = totals[4]
        assert len1 == pytest.approx(len4, rel=0.1)
        n1, n4 = sum(t1.values()), sum(t4.values())
        for key in set(t1) | set(t4):
            assert abs(t1[key] / n1 - t4[key] / n4) < 0.02, key

    def test_small_populations_stay_single_threaded(self, space4):
        """Below the slab threshold no pool is spun up."""
        rng = np.random.default_rng(0)
        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        syn = VectorizedSynthesizer(model, lam=8.0, rng=0, synthesis_shards=4)
        syn.spawn_from_entering(0, 50)
        for t in range(1, 5):
            syn.step(t, target_size=50)
        assert syn._pool is None
        assert syn.n_live == 50

    def test_close_releases_pool_and_allows_restart(self, space4):
        syn = self._run_sharded(space4, shards=2)
        assert syn._pool is not None
        syn.close()
        assert syn._pool is None
        syn.close()  # idempotent
        # Stepping again lazily rebuilds the pool.
        import repro.core.fast_synthesis as fs

        old = fs._MIN_STREAMS_PER_SHARD
        fs._MIN_STREAMS_PER_SHARD = 1
        try:
            syn.step(10, target_size=100)
        finally:
            fs._MIN_STREAMS_PER_SHARD = old
        assert syn._pool is not None
        assert syn.n_live == 100

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_sharded_curator_close_shuts_synthesis_pool(self, walk_data, n_shards):
        from repro.api.session import create_session
        from repro.api.specs import SessionSpec

        spec = SessionSpec.from_flat(
            epsilon=1.0, w=5, engine="vectorized", synthesis_shards=2,
            n_shards=n_shards, seed=0,
        )
        session = create_session(spec, walk_data.grid, lam=5.0)
        synthesizer = session.curator.synthesizer
        synthesizer._executor()  # force pool creation
        session.close()
        assert synthesizer._pool is None

    def test_pickles_without_thread_pool(self, space4):
        import pickle

        syn = self._run_sharded(space4, shards=2)
        assert syn._pool is not None
        clone = pickle.loads(pickle.dumps(syn))
        assert clone._pool is None
        assert clone.store.n_total == syn.store.n_total
        # The clone keeps working (pool is rebuilt lazily on demand).
        clone.step(10, target_size=100)
        assert clone.n_live == 100

    def test_invalid_shards(self, space4):
        with pytest.raises(ConfigurationError):
            VectorizedSynthesizer(
                GlobalMobilityModel(space4), lam=1.0, synthesis_shards=0
            )


class TestDistributionEquivalence:
    """The two engines must produce statistically identical synthetics."""

    @pytest.fixture
    def loaded_model(self, space4, rng):
        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        return model

    def _run(self, engine_cls, model, seed, n=600, steps=12):
        syn = engine_cls(model, lam=8.0, rng=seed)
        syn.spawn_from_entering(0, n)
        for t in range(1, steps):
            syn.step(t)
        return syn.all_trajectories()

    def test_transition_distributions_match(self, loaded_model):
        from collections import Counter

        ref = Counter()
        fast = Counter()
        for seed in range(3):
            for tr in self._run(Synthesizer, loaded_model, seed):
                ref.update(tr.transitions())
            for tr in self._run(VectorizedSynthesizer, loaded_model, 100 + seed):
                fast.update(tr.transitions())
        total_ref = sum(ref.values())
        total_fast = sum(fast.values())
        # Compare the relative frequency of every transition seen by either.
        for key in set(ref) | set(fast):
            p_ref = ref[key] / total_ref
            p_fast = fast[key] / total_fast
            assert abs(p_ref - p_fast) < 0.02, key

    def test_survival_rates_match(self, loaded_model):
        ref_alive = np.mean([
            sum(not t.terminated for t in self._run(Synthesizer, loaded_model, s))
            for s in range(3)
        ])
        fast_alive = np.mean([
            sum(not t.terminated
                for t in self._run(VectorizedSynthesizer, loaded_model, 50 + s))
            for s in range(3)
        ])
        assert abs(ref_alive - fast_alive) / max(ref_alive, 1) < 0.15

    def test_length_distributions_match(self, loaded_model):
        ref_lengths = [
            len(t) for s in range(3) for t in self._run(Synthesizer, loaded_model, s)
        ]
        fast_lengths = [
            len(t)
            for s in range(3)
            for t in self._run(VectorizedSynthesizer, loaded_model, 50 + s)
        ]
        assert np.mean(ref_lengths) == pytest.approx(
            np.mean(fast_lengths), rel=0.1
        )


class TestPipelineIntegration:
    def test_vectorized_pipeline_runs(self, walk_data):
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=5, engine="vectorized", seed=0)
        ).run(walk_data)
        assert run.accountant.verify()
        real = walk_data.active_counts()
        syn = run.synthetic.active_counts()
        assert np.array_equal(real, syn)

    def test_vectorized_respects_adjacency(self, walk_data):
        run = RetraSyn(
            RetraSynConfig(epsilon=1.0, w=5, engine="vectorized", seed=0)
        ).run(walk_data)
        grid = walk_data.grid
        for traj in run.synthetic.trajectories:
            for a, b in traj.transitions():
                assert grid.are_adjacent(a, b)

    def test_invalid_engine(self):
        with pytest.raises(ConfigurationError):
            RetraSynConfig(engine="gpu")

    def test_pipeline_compile_modes_bit_identical(self, walk_data):
        prints = {}
        for compile_mode in COMPILE_PATHS:
            with _compile_path(compile_mode):
                run = RetraSyn(
                    RetraSynConfig(epsilon=1.0, w=5, engine="vectorized", seed=0)
                ).run(walk_data)
            assert run.accountant.verify()
            prints[compile_mode] = [
                (tr.start_time, list(tr.cells))
                for tr in run.synthetic.trajectories
            ]
        assert prints["incremental"] == prints["full"] == prints["loop"]

    def test_pipeline_synthesis_shards(self, walk_data):
        run = RetraSyn(
            RetraSynConfig(
                epsilon=1.0, w=5, engine="vectorized", seed=0,
                synthesis_shards=2,
            )
        ).run(walk_data)
        assert run.accountant.verify()
        assert np.array_equal(
            walk_data.active_counts(), run.synthetic.active_counts()
        )

    def test_utility_comparable_between_engines(self, walk_data):
        from repro.metrics.registry import evaluate_all

        scores = {}
        for engine in ("object", "vectorized"):
            run = RetraSyn(
                RetraSynConfig(epsilon=2.0, w=5, engine=engine, seed=0)
            ).run(walk_data)
            scores[engine] = evaluate_all(
                walk_data, run.synthetic, phi=5,
                metrics=("density_error", "transition_error"), rng=0,
            )
        for metric in ("density_error", "transition_error"):
            assert abs(
                scores["object"][metric] - scores["vectorized"][metric]
            ) < 0.12, scores