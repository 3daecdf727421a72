"""Tests for model/config persistence and curator checkpoint/resume."""

import json

import numpy as np
import pytest

from repro.core.mobility_model import GlobalMobilityModel
from repro.core.online import OnlineRetraSyn
from repro.core.persistence import (
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    load_config,
    load_model,
    peek_checkpoint_spec,
    save_checkpoint,
    save_config,
    save_model,
)
from repro.core.retrasyn import RetraSynConfig
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError, DatasetError


class TestModelRoundTrip:
    def test_frequencies_preserved(self, space4, rng, tmp_path):
        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(loaded.frequencies, model.frequencies)

    def test_space_geometry_preserved(self, space4, tmp_path):
        model = GlobalMobilityModel(space4)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.space.grid == space4.grid
        assert loaded.space.include_eq == space4.include_eq
        assert loaded.space.size == space4.size

    def test_noeq_space_round_trip(self, space4_noeq, tmp_path):
        model = GlobalMobilityModel(space4_noeq)
        path = tmp_path / "m.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.space.include_eq is False

    def test_distributions_survive(self, space4, rng, tmp_path):
        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        path = tmp_path / "m.npz"
        save_model(model, path)
        loaded = load_model(path)
        for origin in range(space4.n_cells):
            p1, q1 = model.row_distribution(origin)
            p2, q2 = loaded.row_distribution(origin)
            assert np.allclose(p1, p2)
            assert q1 == pytest.approx(q2)
        assert np.allclose(model.enter_distribution(), loaded.enter_distribution())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_model(tmp_path / "absent.npz")

    def test_resume_synthesis_from_saved_model(self, space4, rng, tmp_path):
        """A restored model must drive a synthesizer identically."""
        from repro.core.synthesis import Synthesizer

        model = GlobalMobilityModel(space4)
        model.set_all(rng.random(space4.size))
        save_model(model, tmp_path / "m.npz")
        loaded = load_model(tmp_path / "m.npz")

        def simulate(m, seed):
            syn = Synthesizer(m, lam=10.0, rng=seed)
            syn.spawn_from_entering(0, 50)
            for t in range(1, 8):
                syn.step(t)
            return [tr.cells for tr in syn.all_trajectories()]

        assert simulate(model, 7) == simulate(loaded, 7)


#: A config file as written before the service fields joined the config.
PRE_SERVICE_CONFIG_FILE = {
    "epsilon": 0.5, "w": 12, "division": "budget", "allocator": "uniform",
    "update_strategy": "dmu", "model_entering_quitting": True, "lam": None,
    "alpha": 8.0, "kappa": 5, "p_max": 0.6, "oracle_mode": "fast",
    "engine": "vectorized", "synthesis_shards": 1, "n_shards": 2,
    "shard_executor": "serial", "shard_round_timeout": 60.0,
    "round_batch": 1, "track_privacy": True, "accountant_mode": "columnar",
    "seed": 7,
}


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = RetraSynConfig(
            epsilon=1.5, w=12, division="budget", allocator="uniform",
            engine="vectorized", seed=42,
        )
        restored = config_from_dict(config_to_dict(cfg))
        assert restored == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = RetraSynConfig(epsilon=0.5, w=30, allocator="sample", seed=1)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_generator_seed_dropped(self):
        import numpy as np

        cfg = RetraSynConfig(seed=np.random.default_rng(0))
        d = config_to_dict(cfg)
        assert d["seed"] is None

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"epsilon": 1.0, "bogus": True})

    def test_invalid_values_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"epsilon": -1.0}')
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "text", ["[]", "null", '"x"', "3", "{not json", "\udcff"]
    )
    def test_malformed_file_is_a_configuration_error(self, tmp_path, text):
        """Anything but a JSON object is refused with a typed error — not a
        bare TypeError, a JSONDecodeError, or a string iterated as keys."""
        path = tmp_path / "bad.json"
        path.write_text(text, errors="surrogateescape")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_twenty_field_file_loads_unchanged(self, tmp_path):
        """A file written before the service fields joined the config (its
        20 keys verbatim) loads, the service fields at their defaults."""
        path = tmp_path / "old.json"
        path.write_text(json.dumps(PRE_SERVICE_CONFIG_FILE))
        cfg = load_config(path)
        assert {k: getattr(cfg, k) for k in PRE_SERVICE_CONFIG_FILE} == (
            PRE_SERVICE_CONFIG_FILE
        )
        assert cfg == RetraSynConfig(**PRE_SERVICE_CONFIG_FILE)

    def test_file_round_trips_every_field(self, tmp_path):
        cfg = RetraSynConfig(
            epsilon=2.5, w=7, division="budget", allocator="sample",
            alpha=4.0, kappa=3, p_max=0.4, track_privacy=False,
            engine="vectorized", oracle_mode="exact", update_strategy="all",
            model_entering_quitting=False, lam=9.5, n_shards=3,
            shard_executor="distributed", synthesis_shards=2,
            shard_round_timeout=5.0, seed=42, transport="ingest",
            max_lateness=2, checkpoint_path="c.ckpt",
            checkpoint_every=4, checkpoint_keep=3, drain_deadline=1.5,
            http_host="0.0.0.0", http_port=8731,
        )
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert len(json.loads(path.read_text())) == 28
        assert load_config(path) == cfg


class TestCheckpointResume:
    """ISSUE 2 satellite: checkpoint → resume must be bitwise-lossless.

    A run interrupted at ``t = T/2`` and resumed from its checkpoint must
    synthesize the identical stream — same trajectories, same privacy
    ledger — as a run that was never interrupted.  The checkpoint
    therefore has to capture *everything*: rng state, model, live
    synthetic streams, per-shard trackers, allocator feedback and the
    accountant.
    """

    @pytest.fixture(scope="class")
    def data(self):
        return make_random_walks(k=4, n_streams=100, n_timestamps=20, seed=4)

    def _step(self, curator, data, t):
        curator.process_timestep(
            t,
            participants=data.participants_at(t),
            newly_entered=data.newly_entered_at(t),
            quitted=data.quitted_at(t),
            n_real_active=data.n_active_at(t),
        )

    def _fingerprint(self, curator, data):
        syn = curator.synthetic_dataset(data.n_timestamps)
        return [(tr.start_time, list(tr.cells)) for tr in syn.trajectories]

    def _run_with_interruption(
        self, data, make_curator, tmp_path, half, spec=None,
        load=load_checkpoint,
    ):
        # Uninterrupted reference run.
        ref = make_curator()
        for t in range(data.n_timestamps):
            self._step(ref, data, t)
        reference = self._fingerprint(ref, data)
        ref_summary = ref.accountant.summary()
        if hasattr(ref, "close"):
            ref.close()

        # Interrupted run: checkpoint at `half`, discard, resume, finish.
        first = make_curator()
        for t in range(half):
            self._step(first, data, t)
        path = tmp_path / "curator.ckpt"
        save_checkpoint(first, path, spec=spec)
        if hasattr(first, "close"):
            first.close()
        del first

        resumed = load(path)
        assert resumed._last_t == half - 1
        for t in range(half, data.n_timestamps):
            self._step(resumed, data, t)
        result = self._fingerprint(resumed, data)
        res_summary = resumed.accountant.summary()
        if hasattr(resumed, "close"):
            resumed.close()

        assert result == reference
        assert res_summary == ref_summary

    def test_online_curator_roundtrip(self, data, tmp_path):
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=17)
        self._run_with_interruption(
            data, lambda: OnlineRetraSyn(data.grid, cfg, lam=5.0),
            tmp_path, half=data.n_timestamps // 2,
        )

    def test_sharded_serial_roundtrip(self, data, tmp_path):
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=17, n_shards=3)
        self._run_with_interruption(
            data, lambda: OnlineRetraSyn(data.grid, cfg, lam=5.0),
            tmp_path, half=data.n_timestamps // 2,
        )

    def test_untracked_curator_roundtrip(self, data, tmp_path):
        """Without a ledger the K=1 tracker owns the engine's slot table
        alone; the table is still checkpointed, once."""
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=17, track_privacy=False)
        whole = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        first = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        half = data.n_timestamps // 2
        for t in range(half):
            self._step(first, data, t)
        assert [kind for kind, _ in first.components()].count("slots") == 1
        save_checkpoint(first, tmp_path / "c.ckpt")
        resumed = load_checkpoint(tmp_path / "c.ckpt")
        for t in range(data.n_timestamps):
            self._step(whole, data, t)
            if t >= half:
                self._step(resumed, data, t)
        assert self._fingerprint(resumed, data) == self._fingerprint(whole, data)

    def test_resumed_accountant_keeps_enforcing(self, data, tmp_path):
        """The restored ledger still refuses over-budget spends."""
        from repro.exceptions import PrivacyBudgetError

        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=3)
        curator = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(6):
            self._step(curator, data, t)
        path = tmp_path / "c.ckpt"
        save_checkpoint(curator, path)
        resumed = load_checkpoint(path)
        spenders = [
            uid for uid in resumed.accountant.user_ids()
            if resumed.accountant.window_spend(uid, 5) > 0
        ]
        assert spenders
        for uid in spenders[:5]:
            assert resumed.accountant.window_spend(
                uid, 5
            ) == curator.accountant.window_spend(uid, 5)
        # Strict mode must survive the round trip: a spend that would
        # overflow the window is refused, not recorded.
        with pytest.raises(PrivacyBudgetError):
            resumed.accountant.spend(spenders[0], 5, cfg.epsilon)

    def test_checkpoint_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_checkpoint_version_mismatch(self, data, tmp_path):
        import pickle

        path = tmp_path / "bad.ckpt"
        with open(path, "wb") as fh:
            pickle.dump({"version": 999}, fh)
        with pytest.raises(DatasetError):
            load_checkpoint(path)


class TestCheckpointRotation:
    """``keep > 1``: timestamped generations, newest-valid fallback."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_random_walks(k=4, n_streams=60, n_timestamps=12, seed=4)

    def _curator_at(self, data, t_stop):
        cfg = RetraSynConfig(epsilon=1.0, w=5, seed=17)
        curator = OnlineRetraSyn(data.grid, cfg, lam=5.0)
        for t in range(t_stop):
            curator.process_timestep(
                t,
                participants=data.participants_at(t),
                newly_entered=data.newly_entered_at(t),
                quitted=data.quitted_at(t),
                n_real_active=data.n_active_at(t),
            )
        return curator

    def test_keep_one_writes_the_bare_path(self, data, tmp_path):
        from repro.core.persistence import checkpoint_candidates

        path = tmp_path / "c.ckpt"
        save_checkpoint(self._curator_at(data, 3), path, keep=1)
        assert path.exists()
        assert checkpoint_candidates(path) == [path]

    def test_generations_rotate_and_prune(self, data, tmp_path):
        from repro.core.persistence import checkpoint_candidates

        path = tmp_path / "c.ckpt"
        for t_stop in (2, 4, 6, 8):
            save_checkpoint(self._curator_at(data, t_stop), path, keep=3)
        candidates = checkpoint_candidates(path)
        generations = [p for p in candidates if p.name != path.name]
        assert len(generations) == 3  # the oldest was pruned
        # lexicographic order of the zero-padded stamps == chronological
        assert generations == sorted(generations, reverse=True)
        assert load_checkpoint(path)._last_t == 7  # newest wins

    def test_corrupt_newest_falls_back_to_previous(self, data, tmp_path):
        from repro.core.persistence import checkpoint_candidates

        path = tmp_path / "c.ckpt"
        save_checkpoint(self._curator_at(data, 4), path, keep=3)
        save_checkpoint(self._curator_at(data, 6), path, keep=3)
        newest = checkpoint_candidates(path)[0]
        newest.write_bytes(b"torn write: not a pickle")
        with pytest.warns(RuntimeWarning, match="skipping unreadable"):
            resumed = load_checkpoint(path)
        assert resumed._last_t == 3  # the intact previous generation

    def test_all_generations_corrupt_raises(self, data, tmp_path):
        from repro.core.persistence import checkpoint_candidates

        path = tmp_path / "c.ckpt"
        save_checkpoint(self._curator_at(data, 2), path, keep=2)
        save_checkpoint(self._curator_at(data, 3), path, keep=2)
        for p in checkpoint_candidates(path):
            p.write_bytes(b"garbage")
        with pytest.raises(DatasetError, match="no valid checkpoint"):
            with pytest.warns(RuntimeWarning):
                load_checkpoint(path)

    def test_checkpoint_exists_sees_generations_only(self, data, tmp_path):
        from repro.core.persistence import checkpoint_exists

        path = tmp_path / "c.ckpt"
        assert not checkpoint_exists(path)
        save_checkpoint(self._curator_at(data, 2), path, keep=2)
        assert checkpoint_exists(path)
        assert not path.exists()  # keep>1 writes generations, no bare file

    def test_resume_from_rotated_checkpoint_is_bitwise(self, data, tmp_path):
        path = tmp_path / "c.ckpt"
        half = data.n_timestamps // 2
        reference = self._curator_at(data, data.n_timestamps)
        interrupted = self._curator_at(data, half)
        save_checkpoint(interrupted, path, keep=4)
        resumed = load_checkpoint(path)
        for t in range(half, data.n_timestamps):
            resumed.process_timestep(
                t,
                participants=data.participants_at(t),
                newly_entered=data.newly_entered_at(t),
                quitted=data.quitted_at(t),
                n_real_active=data.n_active_at(t),
            )
        def fp(c):
            return [
                (tr.start_time, list(tr.cells))
                for tr in c.synthetic_dataset(data.n_timestamps).trajectories
            ]
        assert fp(resumed) == fp(reference)
        assert resumed.accountant.summary() == reference.accountant.summary()

    def test_successful_save_removes_stale_temp_files(self, data, tmp_path):
        """A save that died between write and rename leaves a whole
        checkpoint as ``<path>.g<stamp>.tmp``; the next good save removes
        it and leaves the kept generations alone."""
        from repro.core.persistence import checkpoint_candidates

        path = tmp_path / "c.ckpt"
        save_checkpoint(self._curator_at(data, 2), path, keep=2)
        save_checkpoint(self._curator_at(data, 3), path, keep=2)
        newest = checkpoint_candidates(path)[0]
        kept = newest.read_bytes()
        stale = [path.with_name(f"{path.name}.g{1:020d}.tmp"), tmp_path / "c.ckpt.tmp"]
        for leftover in stale:
            leftover.write_bytes(b"a save that crashed before its rename")
        save_checkpoint(self._curator_at(data, 4), path, keep=2)
        assert not any(leftover.exists() for leftover in stale)
        candidates = checkpoint_candidates(path)
        assert len(candidates) == 2 and candidates[1] == newest
        assert newest.read_bytes() == kept
        assert load_checkpoint(path)._last_t == 3

    def test_peek_reads_only_the_header_frame(self, data, tmp_path):
        from repro.api import schema

        curator = self._curator_at(data, 3)
        path = tmp_path / "c.ckpt"
        save_checkpoint(curator, path)
        blob = path.read_bytes()
        _header, end = schema.load_frame(blob, expect="checkpoint")
        path.write_bytes(blob[:end])  # the header frame, nothing after it
        assert peek_checkpoint_spec(path) == curator.config
        with pytest.raises(DatasetError):
            load_checkpoint(path)
