"""The one flat configuration class: validation, the service-field
group, and the CLI flags generated from it."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api.specs import SERVICE_FIELDS, SessionSpec, iter_cli_fields
from repro.core.retrasyn import RetraSynConfig
from repro.exceptions import ConfigurationError

NAN, INF = float("nan"), float("inf")


class TestValidation:
    def test_defaults_are_valid(self):
        spec = SessionSpec()
        assert spec.epsilon == 1.0
        assert spec.engine == "object"
        assert spec.n_shards == 1
        assert spec.transport == "direct"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.0),
            dict(epsilon=-1.0),
            dict(w=0),
            dict(division="weekly"),
            dict(allocator="greedy"),
            dict(allocator="random", division="budget"),
            dict(allocator="adaptive-user"),  # removed, under either division
            dict(allocator="adaptive-user", division="budget"),
            dict(accountant_mode="quantum"),
            dict(kappa=0),
            dict(p_max=0.0),
            dict(engine="fpga"),
            dict(oracle_mode="psychic"),
            dict(oracle_mode="exact-loop"),  # per-user loop: removed
            dict(update_strategy="sometimes"),
            dict(lam=0.0),
            dict(n_shards=0),
            dict(shard_executor="thread"),
            dict(synthesis_shards=0),
            dict(shard_round_timeout=-1.0),
            dict(shard_round_timeout="soon"),
            dict(transport="carrier-pigeon"),
            dict(max_lateness=-1),
            dict(checkpoint_every=-1),
            dict(checkpoint_every=None),  # None must not leak
            dict(checkpoint_every=True),  # bool is not an int
            dict(checkpoint_keep=0),
            dict(checkpoint_keep=None),
            dict(drain_deadline=-1.0),
            dict(drain_deadline="soon"),
            dict(http_port=70000),
            dict(shard_executor="process"),  # pipe pool: removed
            dict(accountant_mode="object"),  # dict ledger: removed
            # Numeric fields: a wrong type is a ConfigurationError, never a
            # bare TypeError from a range check or a silently kept float.
            dict(epsilon="1"),
            dict(epsilon=None),
            dict(w=None),
            dict(w="20"),
            dict(w=2.5),
            dict(w=True),
            dict(kappa=None),
            dict(p_max=None),
            dict(alpha=None),
            dict(lam="5"),
            dict(n_shards=None),
            dict(n_shards=1.5),
            dict(synthesis_shards="2"),
            dict(round_batch=1.0),
            # Values the pipeline cannot run: nan passes every `<= 0`
            # refusal, and a truthy string is not a bool.
            dict(epsilon=NAN),
            dict(epsilon=INF),
            dict(lam=NAN),
            dict(alpha=-1.0),
            dict(alpha=0.0),
            dict(alpha=NAN),
            dict(p_max=NAN),
            dict(shard_round_timeout=NAN),
            dict(drain_deadline=NAN),
            dict(track_privacy="no"),
            dict(model_entering_quitting="False"),
            dict(seed="abc"),
            dict(seed=1.5),
            dict(seed=[1, 2]),
            dict(seed=-1),
            dict(seed=True),
        ],
    )
    def test_bad_fields_raise(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            SessionSpec(**kwargs)

    def test_numeric_fields_accept_numpy_scalars(self):
        spec = SessionSpec(
            epsilon=np.float32(0.5), w=np.int64(6), kappa=np.int32(3),
            n_shards=np.int64(2), lam=np.float64(4.0),
        )
        assert spec.w == 6 and spec.n_shards == 2

    @pytest.mark.parametrize(
        "field, value", [("w", None), ("w", 2.5), ("epsilon", "1")]
    )
    def test_bad_json_config_is_a_configuration_error(self, tmp_path, field, value):
        from repro.core.persistence import config_to_dict, load_config

        data = config_to_dict(RetraSynConfig())
        data[field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=field):
            load_config(path)

    @pytest.mark.parametrize("depth", [0, 2, 3])
    def test_round_batch_only_accepts_one(self, depth):
        assert RetraSynConfig(round_batch=1).round_batch == 1
        with pytest.raises(ConfigurationError, match="pipelined rounds"):
            RetraSynConfig(round_batch=depth)

    @pytest.mark.parametrize("division", ["budget", "population"])
    def test_adaptive_user_is_refused(self, division):
        """The per-user budget allocator is gone; its name is refused
        like any unknown allocator, under either division."""
        with pytest.raises(ConfigurationError, match="adaptive-user"):
            SessionSpec(division=division, allocator="adaptive-user")

    def test_unknown_fields_rejected(self):
        """A name that is no field — a typo or a removed knob — is refused
        by the constructor like any unexpected keyword."""
        for unknown in (
            dict(budget=1.0), dict(synthesis_executor="thread"),
            dict(ingest_consumers=3), dict(compile_mode="incremental"),
            dict(dmu_prefilter=True), dict(dmu_prefilter=False),
            dict(privacy={"epsilon": 1.0}),  # the layer specs are gone
        ):
            with pytest.raises(TypeError):
                SessionSpec(**unknown)


class TestOneConfigClass:
    def test_config_validation_delegates_to_specs(self):
        for bad in (
            dict(division="x"),
            dict(allocator="nope"),
            dict(epsilon=-2),
            dict(w=0),
            dict(engine="gpu"),
            dict(n_shards=0),
            dict(shard_executor="fiber"),
            dict(allocator="adaptive-user", division="budget"),  # removed
        ):
            with pytest.raises(ConfigurationError):
                RetraSynConfig(**bad)

    def test_retrasyn_config_is_the_spec(self):
        import repro
        import repro.api

        assert RetraSynConfig is SessionSpec
        assert repro.RetraSynConfig is repro.SessionSpec is repro.api.SessionSpec
        for removed in ("PrivacySpec", "EngineSpec", "ShardingSpec", "ServiceSpec"):
            assert not hasattr(repro, removed)
            assert removed not in repro.api.__all__
        assert len(dataclasses.fields(SessionSpec)) == 28

    def test_benchmark_aliases(self):
        """``from_flat`` is the constructor and ``to_config`` the identity."""
        kwargs = dict(epsilon=0.5, w=5, n_shards=2, seed=1, transport="ingest")
        spec = SessionSpec.from_flat(**kwargs)
        assert spec == SessionSpec(**kwargs)
        assert spec.to_config() is spec

    def test_label_names_the_paper_variant(self):
        for kwargs, label in (
            (dict(), "RetraSyn_p"),
            (dict(division="budget"), "RetraSyn_b"),
            (dict(update_strategy="all"), "AllUpdate_p"),
            (dict(model_entering_quitting=False, division="budget"), "NoEQ_b"),
        ):
            assert SessionSpec(**kwargs).label == label


class TestReplace:
    def test_flat_replace_revalidates(self):
        spec = SessionSpec()
        assert dataclasses.replace(spec, epsilon=3.0).epsilon == 3.0
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, epsilon=-1.0)

    def test_replace_service_field(self):
        spec = dataclasses.replace(
            SessionSpec(), transport="ingest", checkpoint_every=4
        )
        assert spec.transport == "ingest"
        assert spec.checkpoint_every == 4


class TestCliDerivation:
    """The flag group is generated from the spec — drift is structurally
    impossible, and these tests pin the invariants that make it so."""

    def test_service_fields_are_spec_fields(self):
        names = [f.name for f in dataclasses.fields(SessionSpec)]
        assert set(SERVICE_FIELDS) <= set(names)
        # The service group is the tail of the field order, as in the
        # checkpoint header.
        assert tuple(names[-len(SERVICE_FIELDS):]) == SERVICE_FIELDS

    def test_cli_fields_cover_the_historical_flags(self):
        flags = {f.metadata["cli"]["flag"] for f in iter_cli_fields()}
        assert flags == {
            "--epsilon", "--w", "--allocator", "--accountant-mode",
            "--engine", "--oracle-mode",
            "--shards", "--shard-executor", "--shard-round-timeout",
            "--round-batch",
            "--synthesis-shards",
        }

    def test_service_cli_fields(self):
        flags = {
            f.metadata["cli"]["flag"]
            for f in iter_cli_fields(service=True)
        }
        assert flags == {
            "--lateness", "--checkpoint", "--checkpoint-every",
            "--checkpoint-keep", "--drain-deadline",
        }

    def test_choices_come_from_the_validation_vocabularies(self):
        by_flag = {
            f.metadata["cli"]["flag"]: f.metadata["cli"]["choices"]
            for f in iter_cli_fields()
        }
        from repro.api import specs

        assert by_flag["--allocator"] == specs.ALLOCATORS
        assert by_flag["--engine"] == specs.ENGINES
        assert by_flag["--oracle-mode"] == specs.ORACLE_MODES
        assert by_flag["--accountant-mode"] == specs.ACCOUNTANT_MODES == ("columnar",)
        assert specs.ORACLE_MODES == ("fast", "exact")
        assert by_flag["--shard-executor"] == specs.SHARD_EXECUTORS
