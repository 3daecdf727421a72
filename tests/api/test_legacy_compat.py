"""Legacy-surface compatibility: flat config kwargs and the historical
``from repro import ...`` names keep working; checkpoints of older format
versions are refused, never migrated — RSF2 files of format 5 and 6 by
their header's version, pickle files (format <= 4) by their missing RSF2
magic, without being unpickled."""

from __future__ import annotations

import dataclasses
import json
import pickle
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.api import schema
from repro.api.session import create_session, load_session
from repro.api.specs import SessionSpec
from repro.core.online import OnlineRetraSyn
from repro.core.persistence import (
    config_from_dict,
    load_checkpoint,
    load_config,
    peek_checkpoint_spec,
    save_checkpoint,
)
from repro.core.retrasyn import RetraSynConfig
from repro.datasets.synthetic import make_random_walks
from repro.exceptions import ConfigurationError, DatasetError
from repro.geo.trajectory import average_length
from repro.serve import replay
from repro.stream.reports import ColumnarStreamView

#: Files the v6 writer wrote (a row-major ``store`` frame) while the spec
#: still had ``queue_size`` or accepted ``allocator="adaptive-user"``, and
#: while the trajectory store kept a slot block and a kill-order archive;
#: each is refused by version.  Also the JSON configs of those specs.
DATA = Path(__file__).resolve().parents[1] / "data"

#: The public names importable from `repro` before the unified API landed.
#: Removing any of these is a breaking change — this list is the contract
#: (``TrajectoryAnalyzer``, ``FlowAnalyzer`` and ``PrivacyAccountant`` were
#: dropped from it on purpose, see ``test_every_legacy_name_still_importable``).
LEGACY_EXPORTS = (
    "RetraSyn", "RetraSynConfig", "OnlineRetraSyn",
    "SynthesisRun", "Synthesizer", "VectorizedSynthesizer",
    "GlobalMobilityModel",
    "fidelity_report", "make_retrasyn", "make_all_update", "make_no_eq",
    "LBD", "LBA", "LPD", "LPA", "make_baseline",
    "load_dataset", "make_tdrive", "make_oldenburg", "make_sanjoaquin",
    "Grid", "Point", "BoundingBox", "Trajectory", "CellTrajectory",
    "OptimizedUnaryEncoding",
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


#: The ``spec`` keys a checkpoint header carries now.  Headers written
#: while the spec still had ``queue_size`` carry it too, after
#: ``transport`` (see ``TestRemovedServiceField``).
HEADER_SPEC_KEYS = (
    "epsilon", "w", "division", "allocator", "alpha", "kappa", "p_max",
    "accountant_mode", "track_privacy",
    "engine", "oracle_mode", "update_strategy", "model_entering_quitting", "lam",
    "n_shards", "shard_executor", "synthesis_shards", "shard_round_timeout",
    "round_batch",
    "seed",
    "transport", "max_lateness", "checkpoint_path",
    "checkpoint_every", "checkpoint_keep", "drain_deadline", "http_host",
    "http_port",
)


class TestLegacyImports:
    def test_api_package_exports_its_whole_surface(self):
        import repro.api

        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_every_legacy_name_still_importable(self):
        import repro

        listed = dir(repro)
        for name in LEGACY_EXPORTS:
            assert hasattr(repro, name), f"legacy export {name} vanished"
            assert name in repro.__all__
            assert name in listed
        # The deliberate break: OnlineRetraSyn is the one engine; sharding
        # is configuration, not a second class.
        with pytest.raises(ImportError):
            from repro import ShardedOnlineRetraSyn  # noqa: F401
        assert "ShardedOnlineRetraSyn" not in repro.__all__
        # The analysis helpers no round, CLI command or paper table used
        # were removed; the utility metrics in ``repro.metrics`` cover them.
        # The dict ledger is a test oracle: every engine ledger and every
        # baseline spends into the columnar or schedule ledger.
        for name in ("TrajectoryAnalyzer", "FlowAnalyzer", "PrivacyAccountant"):
            assert not hasattr(repro, name)
            assert name not in repro.__all__

    @pytest.mark.parametrize(
        "package, name",
        [
            ("repro", "TrajectoryAnalyzer"),
            ("repro", "FlowAnalyzer"),
            ("repro.analysis", "TrajectoryAnalyzer"),
            ("repro.analysis", "FlowAnalyzer"),
            ("repro.baselines", "HistogramStreamPublisher"),
            ("repro.ldp", "FrequencyOracle"),
            ("repro.ldp", "GeneralizedRandomizedResponse"),
            ("repro.ldp", "OptimizedLocalHashing"),
            ("repro", "PrivacyAccountant"),
            ("repro.ldp", "PrivacyAccountant"),
            ("repro.stream", "UserSideEncoder"),
        ],
    )
    def test_removed_name_leaves_the_package_surface(self, package, name):
        """Deliberately narrowed: these names served no round, paper table,
        CLI command or served path (the dict ledger and the object-path
        encoder only served the baselines, which now run on the columnar
        plane), so no package re-exports them."""
        import importlib

        module = importlib.import_module(package)
        assert name not in module.__all__
        assert not hasattr(module, name)

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

    def test_legacy_config_pickles(self):
        config = RetraSynConfig(**LEGACY_CONFIG_KWARGS)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_legacy_config_replaces_and_revalidates(self):
        config = RetraSynConfig(**LEGACY_CONFIG_KWARGS)
        assert dataclasses.replace(config, n_shards=4).n_shards == 4
        with pytest.raises(ConfigurationError):
            dataclasses.replace(config, n_shards=0)


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
        header, _end = schema.load_frame(path.read_bytes(), expect="checkpoint")
        assert header["version"] == 7
        spec = peek_checkpoint_spec(path)
        assert isinstance(spec, SessionSpec)
        assert spec == curator.config
        assert SessionSpec(**header["spec"]) == spec
        # The header's spec keys are the format: exactly these 28 names,
        # in this order.
        assert list(header["spec"]) == list(HEADER_SPEC_KEYS)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_pickle_formats_are_refused_unread(self, tmp_path, version):
        """v<=4 files were pickles: refused by their missing RSF2 magic,
        never unpickled, never migrated."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({"version": version, "state": {}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not migrated-with-warning
            with pytest.raises(
                DatasetError, match=r"pickle checkpoints \(format <= 4\)"
            ):
                load_checkpoint(path)

    @pytest.mark.parametrize("version", [4, 5, 6, 8])
    def test_other_frame_versions_are_refused_by_version(
        self, walk_data, tmp_path, version
    ):
        curator = self._half_run_curator(walk_data)
        path = tmp_path / "other.ckpt"
        save_checkpoint(curator, path)
        data = path.read_bytes()
        header, end = schema.load_frame(data, expect="checkpoint")
        path.write_bytes(schema.dump_frame({**header, "version": version}) + data[end:])
        with pytest.raises(
            DatasetError, match=f"unsupported checkpoint format version {version}"
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "name", sorted(path.name for path in DATA.glob("v6_*.ckpt"))
    )
    def test_v6_files_are_refused_by_version(self, tmp_path, name):
        """v6 stored the trajectory store row-major; v7 stores its round
        log.  No row-major reader is kept: every committed v6 file — one
        whose ``store`` frame the slot-block store wrote among them — is
        refused by its header's version, unread past it."""
        path = tmp_path / name
        shutil.copy(DATA / name, path)
        header, _end = schema.load_frame(path.read_bytes(), expect="checkpoint")
        assert header["version"] == 6
        for read in (peek_checkpoint_spec, load_checkpoint, load_session):
            with pytest.raises(
                DatasetError, match="unsupported checkpoint format version 6"
            ):
                read(path)


def _rewrite_header_spec(path, edit) -> dict:
    """Replace the stored spec in ``path``'s header with ``edit(spec)``,
    the component frames untouched; returns the new header."""
    data = path.read_bytes()
    header, end = schema.load_frame(data, expect="checkpoint")
    header = {**header, "spec": edit(dict(header["spec"]))}
    path.write_bytes(schema.dump_frame(header) + data[end:])
    return header


class TestRemovedServiceField:
    """Stored specs from before ``queue_size`` left the spec: 29 keys.

    The checkpoint is built here: a session over ``make_random_walks(k=4,
    n_streams=40, n_timestamps=12, seed=6)`` with ``w=4, seed=9,
    transport="ingest", max_lateness=1`` is fed timestamps 0-5, so its
    checkpoint stops at t=3, and its header's spec gains ``queue_size=64``
    after ``transport``, as the writer of that time put it.  ``tests/data``
    holds a JSON config written then.  The reader drops the removed field.
    """

    SPEC = SessionSpec(
        epsilon=1.0, w=4, seed=9, transport="ingest", max_lateness=1,
        checkpoint_path="v6_queue_size.ckpt",
    )

    @staticmethod
    def _with_queue_size(spec: dict) -> dict:
        out = {}
        for key, value in spec.items():
            out[key] = value
            if key == "transport":
                out["queue_size"] = 64
        return out

    def test_checkpoint_with_queue_size_resumes(self, tmp_path):
        data = make_random_walks(k=4, n_streams=40, n_timestamps=12, seed=6)
        first = create_session(self.SPEC, data.grid, lam=4.0)
        view = ColumnarStreamView(data, first.curator.space)
        for t in range(6):
            first.submit_batch(t, view.batch_at(t))
            first.advance()
        path = tmp_path / "old.ckpt"
        first.checkpoint(path)
        first.curator.close()
        header = _rewrite_header_spec(path, self._with_queue_size)
        assert len(header["spec"]) == 29
        assert list(header["spec"]).index("queue_size") == (
            HEADER_SPEC_KEYS.index("transport") + 1
        )
        assert peek_checkpoint_spec(path) == self.SPEC

        resumed = load_session(
            path, transport="ingest", max_lateness=1, checkpoint_path=None
        )
        assert resumed.assembler.next_t == 4
        replay(resumed, ColumnarStreamView(data, resumed.curator.space))

        spec = dataclasses.replace(self.SPEC, checkpoint_path=None)
        whole = create_session(spec, data.grid, lam=header["lam"])
        replay(whole, ColumnarStreamView(data, whole.curator.space))
        streams = [
            [(tr.start_time, list(tr.cells)) for tr in s.result(12).synthetic.trajectories]
            for s in (resumed, whole)
        ]
        assert streams[0] == streams[1]
        assert resumed.curator.accountant.summary() == (
            whole.curator.accountant.summary()
        )

    def test_config_file_with_queue_size_loads(self):
        path = DATA / "config_queue_size.json"
        stored = json.loads(path.read_text())
        assert len(stored) == 29
        assert stored["queue_size"] == 64
        assert load_config(path) == self.SPEC

    def test_only_the_removed_field_is_forgiven(self):
        flat = dataclasses.asdict(self.SPEC)
        assert config_from_dict({**flat, "queue_size": 0}) == self.SPEC
        with pytest.raises(ConfigurationError, match="backlog_size"):
            config_from_dict({**flat, "backlog_size": 64})


class TestRemovedAllocator:
    """Stored specs naming the removed ``allocator="adaptive-user"``.

    The checkpoint is built here: ``RetraSynConfig(epsilon=1.0, w=4,
    division="budget", seed=9)`` over ``make_random_walks(k=4,
    n_streams=40, n_timestamps=12, seed=6)``, fed timestamps 0-5, its
    header's spec then naming the removed allocator.  ``tests/data`` holds
    a JSON config written while the allocator existed.  Both are refused
    with a typed error naming the allocator; nothing migrates them.
    """

    def test_checkpoint_with_adaptive_user_is_refused(self, tmp_path):
        data = make_random_walks(k=4, n_streams=40, n_timestamps=12, seed=6)
        config = RetraSynConfig(epsilon=1.0, w=4, division="budget", seed=9)
        curator = OnlineRetraSyn(data.grid, config, lam=4.0)
        view = ColumnarStreamView(data, curator.space)
        for t in range(6):
            curator.process_timestep(
                t,
                participants=view.batch_at(t),
                newly_entered=view.newly_entered_at(t),
                quitted=view.quitted_at(t),
                n_real_active=view.n_active_at(t),
            )
        path = tmp_path / "old.ckpt"
        save_checkpoint(curator, path)
        curator.close()
        header = _rewrite_header_spec(
            path, lambda spec: {**spec, "allocator": "adaptive-user"}
        )
        assert header["version"] == 7
        assert header["spec"]["allocator"] == "adaptive-user"
        for read in (peek_checkpoint_spec, load_checkpoint):
            with pytest.raises(DatasetError, match="adaptive-user"):
                read(path)
        with pytest.raises(DatasetError, match="adaptive-user"):
            load_session(path, checkpoint_path=None)

    def test_config_file_with_adaptive_user_is_refused(self):
        path = DATA / "config_adaptive_user.json"
        stored = json.loads(path.read_text())
        assert stored["allocator"] == "adaptive-user"
        assert stored["division"] == "budget"
        with pytest.raises(ConfigurationError, match="adaptive-user"):
            load_config(path)
        with pytest.raises(ConfigurationError, match="adaptive-user"):
            config_from_dict(stored)
