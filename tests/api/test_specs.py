"""The layered spec model and its equivalence with the flat config façade."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.specs import (
    EngineSpec,
    PrivacySpec,
    ServiceSpec,
    SessionSpec,
    ShardingSpec,
    iter_cli_fields,
)
from repro.core.retrasyn import RetraSynConfig
from repro.exceptions import ConfigurationError


class TestLayerValidation:
    def test_defaults_are_valid(self):
        spec = SessionSpec()
        assert spec.privacy.epsilon == 1.0
        assert spec.engine.engine == "object"
        assert spec.sharding.n_shards == 1
        assert spec.service.transport == "direct"

    @pytest.mark.parametrize(
        "layer_cls, kwargs",
        [
            (PrivacySpec, dict(epsilon=0.0)),
            (PrivacySpec, dict(epsilon=-1.0)),
            (PrivacySpec, dict(w=0)),
            (PrivacySpec, dict(division="weekly")),
            (PrivacySpec, dict(allocator="greedy")),
            (PrivacySpec, dict(allocator="random", division="budget")),
            (PrivacySpec, dict(allocator="adaptive-user")),  # population
            (PrivacySpec, dict(accountant_mode="quantum")),
            (PrivacySpec, dict(kappa=0)),
            (PrivacySpec, dict(p_max=0.0)),
            (EngineSpec, dict(engine="fpga")),
            (EngineSpec, dict(oracle_mode="psychic")),
            (EngineSpec, dict(compile_mode="jit")),
            (EngineSpec, dict(update_strategy="sometimes")),
            (EngineSpec, dict(lam=0.0)),
            (ShardingSpec, dict(n_shards=0)),
            (ShardingSpec, dict(shard_executor="thread")),
            (ShardingSpec, dict(synthesis_shards=0)),
            (ShardingSpec, dict(shard_round_timeout=-1.0)),
            (ShardingSpec, dict(shard_round_timeout="soon")),
            (ServiceSpec, dict(transport="carrier-pigeon")),
            (ServiceSpec, dict(queue_size=0)),
            (ServiceSpec, dict(max_lateness=-1)),
            (ServiceSpec, dict(checkpoint_every=-1)),
            (ServiceSpec, dict(checkpoint_every=None)),  # None must not leak
            (ServiceSpec, dict(checkpoint_every=True)),  # bool is not an int
            (ServiceSpec, dict(checkpoint_keep=0)),
            (ServiceSpec, dict(checkpoint_keep=None)),
            (ServiceSpec, dict(drain_deadline=-1.0)),
            (ServiceSpec, dict(drain_deadline="soon")),
            (ServiceSpec, dict(http_port=70000)),
            (ShardingSpec, dict(shard_executor="process")),  # pipe pool: removed
        ],
    )
    def test_bad_fields_raise(self, layer_cls, kwargs):
        with pytest.raises(ConfigurationError):
            layer_cls(**kwargs)

    @pytest.mark.parametrize("depth", [0, 2, 3])
    def test_round_batch_only_accepts_one(self, depth):
        assert RetraSynConfig(round_batch=1).round_batch == 1
        with pytest.raises(ConfigurationError, match="pipelined rounds"):
            RetraSynConfig(round_batch=depth)
        with pytest.raises(ConfigurationError, match="pipelined rounds"):
            ShardingSpec(round_batch=depth)

    def test_adaptive_user_requires_budget_division(self):
        spec = PrivacySpec(division="budget", allocator="adaptive-user")
        assert spec.allocator == "adaptive-user"
        with pytest.raises(ConfigurationError):
            PrivacySpec(division="population", allocator="adaptive-user")

    def test_layers_must_be_spec_instances(self):
        with pytest.raises(ConfigurationError):
            SessionSpec(privacy={"epsilon": 1.0})


class TestConfigFacade:
    def test_config_validation_delegates_to_specs(self):
        for bad in (
            dict(division="x"),
            dict(allocator="nope"),
            dict(epsilon=-2),
            dict(w=0),
            dict(engine="gpu"),
            dict(n_shards=0),
            dict(shard_executor="fiber"),
            dict(allocator="adaptive-user"),  # needs budget division
        ):
            with pytest.raises(ConfigurationError):
                RetraSynConfig(**bad)

    def test_round_trip_config_spec_config(self):
        config = RetraSynConfig(
            epsilon=2.5, w=7, division="budget", allocator="uniform",
            engine="vectorized", compile_mode="full", oracle_mode="exact",
            synthesis_shards=2, n_shards=3, shard_executor="serial",
            dmu_prefilter=True, accountant_mode="object",
            track_privacy=False, lam=9.5, alpha=4.0, kappa=3, p_max=0.4,
            update_strategy="all", model_entering_quitting=False, seed=42,
        )
        spec = config.to_spec()
        assert spec.privacy.epsilon == 2.5
        assert spec.privacy.division == "budget"
        assert spec.engine.compile_mode == "full"
        assert spec.engine.lam == 9.5
        assert spec.sharding.n_shards == 3
        assert spec.sharding.dmu_prefilter is True
        assert spec.seed == 42
        assert spec.to_config() == config

    def test_from_flat_matches_from_config(self):
        config = RetraSynConfig(epsilon=0.5, w=5, n_shards=2, seed=1)
        assert SessionSpec.from_flat(**config.to_spec().flat()) == config.to_spec()

    def test_from_flat_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            SessionSpec.from_flat(budget=1.0)
        for removed_knob in (
            dict(synthesis_executor="thread"), dict(ingest_consumers=3),
        ):
            with pytest.raises(ConfigurationError):
                SessionSpec.from_flat(**removed_knob)

    def test_from_flat_accepts_service_fields(self):
        spec = SessionSpec.from_flat(
            epsilon=1.0, transport="ingest", queue_size=5, max_lateness=2
        )
        assert spec.service.transport == "ingest"
        assert spec.service.queue_size == 5

    def test_label_matches_config_label(self):
        for kwargs in (
            dict(),
            dict(division="budget"),
            dict(update_strategy="all"),
            dict(model_entering_quitting=False, division="budget"),
        ):
            config = RetraSynConfig(**kwargs)
            assert config.to_spec().label == config.label


class TestReplace:
    def test_flat_replace_revalidates(self):
        spec = SessionSpec()
        assert spec.replace(epsilon=3.0).privacy.epsilon == 3.0
        with pytest.raises(ConfigurationError):
            spec.replace(epsilon=-1.0)

    def test_replace_service_field(self):
        spec = SessionSpec().replace(transport="ingest", checkpoint_every=4)
        assert spec.service.transport == "ingest"
        assert spec.service.checkpoint_every == 4

    def test_replace_layer_object(self):
        spec = SessionSpec().replace(privacy=PrivacySpec(epsilon=2.0))
        assert spec.privacy.epsilon == 2.0

    def test_replace_unknown_field(self):
        with pytest.raises(ConfigurationError):
            SessionSpec().replace(warp_factor=9)


class TestCliDerivation:
    """The flag group is generated from the specs — drift is structurally
    impossible, and these tests pin the invariants that make it so."""

    def test_every_config_field_is_owned_by_exactly_one_layer(self):
        spec_fields: dict[str, int] = {}
        for cls in (PrivacySpec, EngineSpec, ShardingSpec):
            for f in dataclasses.fields(cls):
                spec_fields[f.name] = spec_fields.get(f.name, 0) + 1
        config_fields = {
            f.name for f in dataclasses.fields(RetraSynConfig)
        } - {"seed"}
        assert set(spec_fields) == config_fields
        assert all(count == 1 for count in spec_fields.values())

    def test_cli_fields_cover_the_historical_flags(self):
        flags = {f.metadata["cli"]["flag"] for _cls, f in iter_cli_fields()}
        assert flags == {
            "--epsilon", "--w", "--allocator", "--accountant-mode",
            "--engine", "--oracle-mode", "--compile-mode",
            "--shards", "--shard-executor", "--shard-round-timeout",
            "--round-batch", "--dmu-prefilter",
            "--synthesis-shards",
        }

    def test_service_cli_fields(self):
        flags = {
            f.metadata["cli"]["flag"]
            for _cls, f in iter_cli_fields(spec_classes=(ServiceSpec,))
        }
        assert flags == {
            "--queue-size", "--lateness", "--checkpoint", "--checkpoint-every",
            "--checkpoint-keep", "--drain-deadline",
        }

    def test_choices_come_from_the_validation_vocabularies(self):
        by_flag = {
            f.metadata["cli"]["flag"]: f.metadata["cli"]["choices"]
            for _cls, f in iter_cli_fields()
        }
        from repro.api import specs

        assert by_flag["--allocator"] == specs.ALLOCATORS
        assert by_flag["--engine"] == specs.ENGINES
        assert by_flag["--oracle-mode"] == specs.ORACLE_MODES
        assert by_flag["--compile-mode"] == specs.COMPILE_MODES
        assert by_flag["--shard-executor"] == specs.SHARD_EXECUTORS
