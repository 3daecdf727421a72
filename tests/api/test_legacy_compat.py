"""Legacy-surface compatibility: flat config kwargs and the historical
``from repro import ...`` names keep working; checkpoints of older format
versions are refused by version, never migrated; v4 checkpoints written
while the reference modes were still config knobs resume when the knob
did not change the round and are refused with a typed error otherwise."""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest

from repro.api.session import create_session
from repro.api.specs import SessionSpec
from repro.core.online import OnlineRetraSyn
from repro.core.persistence import (
    load_checkpoint,
    peek_checkpoint_spec,
    save_checkpoint,
)
from repro.core.retrasyn import RetraSynConfig
from repro.exceptions import ConfigurationError, DatasetError
from repro.geo.trajectory import average_length
from repro.stream.reports import ColumnarStreamView

#: The public names importable from `repro` before the unified API landed.
#: Removing any of these is a breaking change — this list is the contract.
LEGACY_EXPORTS = (
    "RetraSyn", "RetraSynConfig", "OnlineRetraSyn",
    "SynthesisRun", "Synthesizer", "VectorizedSynthesizer",
    "GlobalMobilityModel", "TrajectoryAnalyzer", "FlowAnalyzer",
    "fidelity_report", "make_retrasyn", "make_all_update", "make_no_eq",
    "LBD", "LBA", "LPD", "LPA", "make_baseline",
    "load_dataset", "make_tdrive", "make_oldenburg", "make_sanjoaquin",
    "Grid", "Point", "BoundingBox", "Trajectory", "CellTrajectory",
    "OptimizedUnaryEncoding", "PrivacyAccountant",
    "ALL_METRICS", "evaluate_all",
    "DeploymentPlan", "plan_report", "recommend_k",
    "StreamDataset", "TransitionStateSpace",
)

#: Every historical RetraSynConfig keyword, exactly as callers wrote them.
LEGACY_CONFIG_KWARGS = dict(
    epsilon=1.0, w=20, division="population", allocator="adaptive",
    update_strategy="dmu", model_entering_quitting=True, lam=None,
    alpha=8.0, kappa=5, p_max=0.6, oracle_mode="fast", engine="object",
    synthesis_shards=1, n_shards=1, shard_executor="serial",
    track_privacy=True, accountant_mode="columnar", seed=0,
)


class TestLegacyImports:
    def test_api_package_exports_its_whole_surface(self):
        import repro.api

        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_every_legacy_name_still_importable(self):
        import repro

        for name in LEGACY_EXPORTS:
            assert hasattr(repro, name), f"legacy export {name} vanished"
            assert name in repro.__all__
        # The deliberate break: OnlineRetraSyn is the one engine; sharding
        # is configuration, not a second class.
        with pytest.raises(ImportError):
            from repro import ShardedOnlineRetraSyn  # noqa: F401
        assert "ShardedOnlineRetraSyn" not in repro.__all__

    def test_legacy_imports_emit_no_warnings(self):
        import repro

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in LEGACY_EXPORTS:
                getattr(repro, name)


class TestLegacyConfigKwargs:
    def test_full_legacy_kwargs_construct_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = RetraSynConfig(**LEGACY_CONFIG_KWARGS)
        for name, value in LEGACY_CONFIG_KWARGS.items():
            assert getattr(config, name) == value

    def test_legacy_config_round_trips_through_spec(self):
        config = RetraSynConfig(**LEGACY_CONFIG_KWARGS)
        assert config.to_spec().to_config() == config

    def test_legacy_config_pickles(self):
        config = RetraSynConfig(**LEGACY_CONFIG_KWARGS)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_flat_config_into_factory_raises(self, walk_data):
        """The factory refuses a flat config; the remedy it names works."""
        config = RetraSynConfig(epsilon=1.0, w=10, seed=0)
        with pytest.raises(ConfigurationError):
            create_session(config, walk_data.grid, lam=4.0)
        session = create_session(config.to_spec(), walk_data.grid, lam=4.0)
        assert session.spec.to_config() == config
        session.close()


class TestCheckpointVersions:
    def _half_run_curator(self, data, seed=3):
        config = RetraSynConfig(epsilon=1.0, w=10, seed=seed)
        curator = OnlineRetraSyn(
            data.grid, config, lam=max(1.0, average_length(data.trajectories))
        )
        view = ColumnarStreamView(data, curator.space)
        for t in range(data.n_timestamps // 2):
            curator.process_timestep(
                t,
                participants=view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
        return curator

    def test_current_checkpoint_carries_the_spec(self, walk_data, tmp_path):
        curator = self._half_run_curator(walk_data)
        path = tmp_path / "current.ckpt"
        save_checkpoint(curator, path)
        with open(path, "rb") as fh:
            assert pickle.load(fh)["version"] == 4
        spec = peek_checkpoint_spec(path)
        assert isinstance(spec, SessionSpec)
        assert spec == curator.config.to_spec()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_formats_are_refused_by_version(
        self, walk_data, tmp_path, version
    ):
        """v<=3 layouts (dense store, per-cell ring timestamps) are gone:
        no migration, a typed error naming the version."""
        curator = self._half_run_curator(walk_data)
        path = tmp_path / "old.ckpt"
        save_checkpoint(curator, path)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["version"] = version
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not migrated-with-warning
            with pytest.raises(
                DatasetError,
                match=f"unsupported checkpoint format version {version}",
            ):
                load_checkpoint(path)


class TestCheckpointsWithRemovedKnobs:
    """v4 files whose stored config still carries a removed reference mode.

    Such a file pickles the knob as a plain attribute on the flat config
    (shared by every serial shard), on the stored spec's layer and — for
    ``compile_mode`` — on the vectorized synthesizer; the curator state
    also holds the DMU prefilter's candidate mask.
    """

    def _config(self, **overrides):
        return RetraSynConfig(
            epsilon=1.0, w=5, seed=7, engine="vectorized", **overrides
        )

    def _curator(self, data, config):
        return OnlineRetraSyn(
            data.grid, config, lam=max(1.0, average_length(data.trajectories))
        )

    def _steps(self, curator, data, ts):
        view = ColumnarStreamView(data, curator.space)
        for t in ts:
            curator.process_timestep(
                t,
                participants=view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )

    def _fingerprint(self, curator, data):
        syn = curator.synthetic_dataset(data.n_timestamps)
        return [(tr.start_time, list(tr.cells)) for tr in syn.trajectories]

    def _write(self, data, path, *, config_attrs, spec_attrs=(), **overrides):
        """Half a run, saved with removed-knob attributes set as an older
        release would have pickled them."""
        config = self._config(**overrides)
        spec = config.to_spec()
        curator = self._curator(data, config)
        self._steps(curator, data, range(data.n_timestamps // 2))
        for name, value in config_attrs.items():
            setattr(curator.config, name, value)
        for layer, name, value in spec_attrs:
            object.__setattr__(getattr(spec, layer), name, value)
        if "compile_mode" in config_attrs:
            curator.synthesizer.compile_mode = config_attrs["compile_mode"]
        curator._dmu_candidates = np.zeros(curator.space.size, dtype=bool)
        save_checkpoint(curator, path, spec=spec)
        return config

    @pytest.mark.parametrize("mode", ["incremental", "full", "full-loop"])
    def test_any_compile_mode_resumes_bit_for_bit(self, walk_data, tmp_path, mode):
        path = tmp_path / "compile.ckpt"
        config = self._write(
            walk_data, path,
            config_attrs={"compile_mode": mode, "dmu_prefilter": False},
            spec_attrs=[
                ("engine", "compile_mode", mode),
                ("sharding", "dmu_prefilter", False),
            ],
        )
        reference = self._curator(walk_data, config)
        self._steps(reference, walk_data, range(walk_data.n_timestamps))

        resumed = load_checkpoint(path)
        assert not hasattr(resumed, "_dmu_candidates")
        self._steps(
            resumed, walk_data,
            range(walk_data.n_timestamps // 2, walk_data.n_timestamps),
        )
        assert self._fingerprint(resumed, walk_data) == self._fingerprint(
            reference, walk_data
        )
        assert resumed.accountant.summary() == reference.accountant.summary()
        assert peek_checkpoint_spec(path) == config.to_spec()

    def test_dmu_prefilter_on_is_refused_by_name(self, walk_data, tmp_path):
        path = tmp_path / "prefilter.ckpt"
        self._write(
            walk_data, path,
            config_attrs={"compile_mode": "incremental", "dmu_prefilter": True},
            spec_attrs=[("sharding", "dmu_prefilter", True)],
            n_shards=2,
        )
        with pytest.raises(DatasetError, match="dmu_prefilter=True"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value",
        [("accountant_mode", "object"), ("oracle_mode", "exact-loop")],
    )
    def test_removed_mode_values_are_refused(
        self, walk_data, tmp_path, field, value
    ):
        path = tmp_path / "mode.ckpt"
        self._write(walk_data, path, config_attrs={field: value})
        with pytest.raises(ConfigurationError, match=field):
            load_checkpoint(path)
