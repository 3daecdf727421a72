"""Layered, validated configuration model for curator sessions.

The flat :class:`~repro.core.retrasyn.RetraSynConfig` grew one field per
engine knob; its 20 fields span three orthogonal concerns, and a deployed
session adds a fourth.  This module is the *canonical* configuration
surface, splitting those concerns into composable layers:

* :class:`PrivacySpec` — the privacy contract: budget ``ε``, window ``w``,
  division style, allocation strategy and the ledger engine auditing it.
* :class:`EngineSpec` — the synthesis engine, the OUE execution mode and
  the modelling switches of the paper's ablations.
* :class:`ShardingSpec` — horizontal parallelism: collection shards and
  their executor, synthesis thread slabs.
* :class:`ServiceSpec` — deployment shape: direct in-process calls or the
  watermarked ingestion front-end, queue bounds, checkpoint cadence, and
  the HTTP ingress binding.
* :class:`SessionSpec` — the four layers plus the seed; the one argument
  of :func:`repro.api.session.create_session`.

``RetraSynConfig`` remains fully supported as a thin *compatibility
façade*: its ``__post_init__`` builds a :class:`SessionSpec` (so every
validation rule lives here, once), and :meth:`SessionSpec.from_config` /
:meth:`SessionSpec.to_config` convert losslessly in both directions.

Every spec field that is exposed on the command line carries its argparse
definition in the dataclass field metadata (``metadata["cli"]``), so the
``repro run`` and ``repro serve`` flag groups are *generated* from this
module and cannot drift from the config fields again.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

from repro.core.sharded import SHARD_EXECUTORS
from repro.exceptions import ConfigurationError
from repro.ldp.accountant import ACCOUNTANT_MODES
from repro.rng import RngLike

#: Closed vocabularies shared by validation and the generated CLI flags.
DIVISIONS = ("population", "budget")
ALLOCATORS = ("adaptive", "uniform", "sample", "random", "adaptive-user")
UPDATE_STRATEGIES = ("dmu", "all")
ENGINES = ("object", "vectorized")
ORACLE_MODES = ("fast", "exact")
TRANSPORTS = ("direct", "ingest")


#: Machine-readable registry of spec fields that deliberately carry no
#: ``metadata["cli"]`` entry, with the reason why.  The ``spec-flag-drift``
#: static-analysis rule (``repro lint``) fails on any *Spec field that is
#: neither CLI-exposed nor justified here, so adding a config knob forces
#: an explicit decision about its command-line surface.
NON_CLI_FIELDS = {
    "division": "repro run derives it from --method; repro serve adds its "
                "own --division flag outside the generated group",
    "alpha": "EMA smoothing constant pinned by the paper (Section III-E)",
    "kappa": "deviation threshold pinned by the paper (Section III-E)",
    "p_max": "sampling-rate ceiling pinned by the paper (Section III-E)",
    "track_privacy": "exposed as the inverted --no-audit convenience flag",
    "update_strategy": "encoded in the method name (AllUpdate_* variants)",
    "model_entering_quitting": "encoded in the method name (NoEQ_* variants)",
    "lam": "estimated from the dataset (average trajectory length)",
    "transport": "implied by the command: run=direct, serve=ingest",
    "http_host": "bound to the hand-written --host flag of repro serve",
    "http_port": "bound to the hand-written --http PORT flag of repro serve",
    "seed": "every command takes a shared top-level --seed flag",
}


def _cli(flag: str, help: str, *, type=None, choices=None, store_true=False):
    """Field-metadata entry describing one generated argparse flag."""
    return {
        "cli": {
            "flag": flag,
            "help": help,
            "type": type,
            "choices": choices,
            "store_true": store_true,
        }
    }


def _require_int(name: str, value) -> None:
    """Reject non-integers *before* any ``<`` comparison.

    Without this, a ``None`` passed for an integer field would surface as
    a bare ``TypeError`` from the range check instead of a typed
    :class:`ConfigurationError`, and a float would be silently accepted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(
            f"{name} must be an integer, got {value!r}"
        )


def _require_number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(
            f"{name} must be a number, got {value!r}"
        )


@dataclass(frozen=True)
class PrivacySpec:
    """The privacy contract: what is protected, and how it is spent."""

    epsilon: float = field(
        default=1.0,
        metadata=_cli("--epsilon", "w-event privacy budget ε", type=float),
    )
    w: int = field(
        default=20,
        metadata=_cli("--w", "sliding-window length w (timestamps)", type=int),
    )
    division: str = "population"  # "population" (RetraSyn_p) | "budget" (RetraSyn_b)
    allocator: str = field(
        default="adaptive",
        metadata=_cli(
            "--allocator",
            "budget/population allocation strategy; 'adaptive-user' "
            "(budget division) scales spends by the participants' minimum "
            "remaining window budget from the privacy ledger",
            choices=ALLOCATORS,
        ),
    )
    alpha: float = 8.0
    kappa: int = 5
    p_max: float = 0.6
    accountant_mode: str = field(
        default="columnar",
        metadata=_cli(
            "--accountant-mode",
            "privacy-ledger engine: the vectorized ring-buffer ledger",
            choices=ACCOUNTANT_MODES,
        ),
    )
    track_privacy: bool = True

    def __post_init__(self) -> None:
        for name in ("epsilon", "alpha", "p_max"):
            _require_number(name, getattr(self, name))
        for name in ("w", "kappa"):
            _require_int(name, getattr(self, name))
        if self.division not in DIVISIONS:
            raise ConfigurationError(
                f"division must be 'population' or 'budget', got {self.division!r}"
            )
        if self.allocator not in ALLOCATORS:
            raise ConfigurationError(f"unknown allocator {self.allocator!r}")
        if self.allocator == "random" and self.division != "population":
            raise ConfigurationError(
                "the 'random' strategy is user-driven and only defined for "
                "population division (paper Section III-E)"
            )
        if self.allocator == "adaptive-user" and self.division != "budget":
            raise ConfigurationError(
                "the 'adaptive-user' strategy scales per-timestamp budgets "
                "and is only defined for budget division"
            )
        if self.accountant_mode not in ACCOUNTANT_MODES:
            raise ConfigurationError(
                f"accountant_mode must be one of {ACCOUNTANT_MODES}, "
                f"got {self.accountant_mode!r}"
            )
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.w < 1:
            raise ConfigurationError(f"w must be >= 1, got {self.w}")
        if self.kappa < 1:
            raise ConfigurationError(f"kappa must be >= 1, got {self.kappa}")
        if not 0.0 < self.p_max <= 1.0:
            raise ConfigurationError(f"p_max must be in (0, 1], got {self.p_max}")


@dataclass(frozen=True)
class EngineSpec:
    """Which implementation runs each pipeline phase, plus model switches."""

    engine: str = field(
        default="object",
        metadata=_cli(
            "--engine",
            "synthesis engine (RetraSyn variants only)",
            choices=ENGINES,
        ),
    )
    oracle_mode: str = field(
        default="fast",
        metadata=_cli(
            "--oracle-mode",
            "OUE execution: binomial shortcut or batched literal protocol",
            choices=ORACLE_MODES,
        ),
    )
    update_strategy: str = "dmu"  # "dmu" | "all"  ("all" = AllUpdate variant)
    model_entering_quitting: bool = True  # False = NoEQ variant
    lam: Optional[float] = None  # λ of Eq. 8; None => dataset average length

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"engine must be 'object' or 'vectorized', got {self.engine!r}"
            )
        if self.oracle_mode not in ORACLE_MODES:
            raise ConfigurationError(
                f"oracle_mode must be 'fast' or 'exact', "
                f"got {self.oracle_mode!r}"
            )
        if self.update_strategy not in UPDATE_STRATEGIES:
            raise ConfigurationError(
                f"update_strategy must be 'dmu' or 'all', "
                f"got {self.update_strategy!r}"
            )
        if self.lam is not None:
            _require_number("lam", self.lam)
            if self.lam <= 0:
                raise ConfigurationError(f"lambda must be positive, got {self.lam}")


@dataclass(frozen=True)
class ShardingSpec:
    """Horizontal parallelism across collection and synthesis."""

    n_shards: int = field(
        default=1,
        metadata=_cli(
            "--shards",
            "collection shards; >1 enables the sharded engine "
            "(RetraSyn variants only)",
            type=int,
        ),
    )
    shard_executor: str = field(
        default="serial",
        metadata=_cli(
            "--shard-executor",
            "run shards in-process or as socket-framed worker services "
            "with shard-local privacy ledgers ('distributed')",
            choices=SHARD_EXECUTORS,
        ),
    )
    synthesis_shards: int = field(
        default=1,
        metadata=_cli(
            "--synthesis-shards",
            "slabs advancing live synthetic streams in parallel "
            "(vectorized engine only)",
            type=int,
        ),
    )
    shard_round_timeout: float = field(
        default=60.0,
        metadata=_cli(
            "--shard-round-timeout",
            "seconds a distributed shard round-trip may take before the "
            "worker is declared hung (0 = wait forever)",
            type=float,
        ),
    )
    round_batch: int = field(
        default=1,
        metadata=_cli(
            "--round-batch",
            "must be 1: pipelined rounds were removed and every round "
            "runs per timestamp",
            type=int,
        ),
    )

    def __post_init__(self) -> None:
        for name in ("n_shards", "synthesis_shards", "round_batch"):
            _require_int(name, getattr(self, name))
        _require_number("shard_round_timeout", self.shard_round_timeout)
        if self.n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.round_batch != 1:
            raise ConfigurationError(
                f"round_batch must be 1, got {self.round_batch}: pipelined "
                "rounds were removed and every round runs per timestamp"
            )
        if self.shard_executor not in SHARD_EXECUTORS:
            allowed = " or ".join(map(repr, SHARD_EXECUTORS))
            raise ConfigurationError(
                f"shard_executor must be {allowed}, "
                f"got {self.shard_executor!r}"
            )
        if self.synthesis_shards < 1:
            raise ConfigurationError(
                f"synthesis_shards must be >= 1, got {self.synthesis_shards}"
            )
        if self.shard_round_timeout < 0:
            raise ConfigurationError(
                f"shard_round_timeout must be >= 0, "
                f"got {self.shard_round_timeout}"
            )


@dataclass(frozen=True)
class ServiceSpec:
    """Deployment shape of the session (ignored by the batch pipeline)."""

    transport: str = "direct"  # "direct" | "ingest" (watermarked assembler)
    queue_size: int = field(
        default=10_000,
        metadata=_cli(
            "--queue-size",
            "ingress queue bound (backpressure threshold)",
            type=int,
        ),
    )
    max_lateness: int = field(
        default=0,
        metadata=_cli(
            "--lateness",
            "watermark slack: timestamps a report may trail",
            type=int,
        ),
    )
    checkpoint_path: Optional[str] = field(
        default=None,
        metadata=_cli(
            "--checkpoint", "checkpoint file to write (and resume from)"
        ),
    )
    checkpoint_every: int = field(
        default=0,
        metadata=_cli(
            "--checkpoint-every",
            "timestamps between checkpoints (0 = only at end)",
            type=int,
        ),
    )
    checkpoint_keep: int = field(
        default=1,
        metadata=_cli(
            "--checkpoint-keep",
            "rotated checkpoint generations to retain; >1 keeps timestamped "
            "files and resume falls back past a torn newest one",
            type=int,
        ),
    )
    drain_deadline: float = field(
        default=30.0,
        metadata=_cli(
            "--drain-deadline",
            "seconds SIGTERM/SIGINT drain may spend flushing in-flight "
            "rounds and the final checkpoint (0 = no deadline)",
            type=float,
        ),
    )
    http_host: str = "127.0.0.1"
    http_port: int = 0  # 0 = bind an ephemeral port

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"transport must be one of {TRANSPORTS}, got {self.transport!r}"
            )
        for name in (
            "queue_size", "max_lateness", "checkpoint_every",
            "checkpoint_keep", "http_port",
        ):
            _require_int(name, getattr(self, name))
        _require_number("drain_deadline", self.drain_deadline)
        if self.queue_size < 1:
            raise ConfigurationError(
                f"queue_size must be >= 1, got {self.queue_size}"
            )
        if self.max_lateness < 0:
            raise ConfigurationError(
                f"max_lateness must be >= 0, got {self.max_lateness}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_keep < 1:
            raise ConfigurationError(
                f"checkpoint_keep must be >= 1, got {self.checkpoint_keep}"
            )
        if self.drain_deadline < 0:
            raise ConfigurationError(
                f"drain_deadline must be >= 0, got {self.drain_deadline}"
            )
        if not 0 <= self.http_port <= 65535:
            raise ConfigurationError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )


#: Flat RetraSynConfig field name -> (layer attribute, spec class).
_FLAT_LAYOUT = {
    **{f.name: ("privacy", PrivacySpec) for f in fields(PrivacySpec)},
    **{f.name: ("engine", EngineSpec) for f in fields(EngineSpec)},
    **{f.name: ("sharding", ShardingSpec) for f in fields(ShardingSpec)},
}
_SERVICE_FIELDS = {f.name for f in fields(ServiceSpec)}


@dataclass(frozen=True)
class SessionSpec:
    """A complete, validated description of one curator session."""

    privacy: PrivacySpec = field(default_factory=PrivacySpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    sharding: ShardingSpec = field(default_factory=ShardingSpec)
    service: ServiceSpec = field(default_factory=ServiceSpec)
    seed: RngLike = None

    def __post_init__(self) -> None:
        for name, cls in (
            ("privacy", PrivacySpec),
            ("engine", EngineSpec),
            ("sharding", ShardingSpec),
            ("service", ServiceSpec),
        ):
            if not isinstance(getattr(self, name), cls):
                raise ConfigurationError(
                    f"SessionSpec.{name} must be a {cls.__name__}, "
                    f"got {type(getattr(self, name)).__name__}"
                )

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_flat(cls, **kwargs) -> "SessionSpec":
        """Build a spec from flat ``RetraSynConfig``-style keyword arguments.

        Service-layer fields (``transport``, ``queue_size``, …) are accepted
        alongside the engine fields, so one kwargs dict can describe a whole
        deployment.  Unknown names raise :class:`ConfigurationError`.
        """
        seed = kwargs.pop("seed", None)
        layers: dict[str, dict] = {
            "privacy": {}, "engine": {}, "sharding": {}, "service": {}
        }
        for name, value in kwargs.items():
            if name in _FLAT_LAYOUT:
                layer, _ = _FLAT_LAYOUT[name]
                layers[layer][name] = value
            elif name in _SERVICE_FIELDS:
                layers["service"][name] = value
            else:
                raise ConfigurationError(f"unknown session field {name!r}")
        return cls(
            privacy=PrivacySpec(**layers["privacy"]),
            engine=EngineSpec(**layers["engine"]),
            sharding=ShardingSpec(**layers["sharding"]),
            service=ServiceSpec(**layers["service"]),
            seed=seed,
        )

    @classmethod
    def from_config(cls, config, service: Optional[ServiceSpec] = None) -> "SessionSpec":
        """Lift a flat :class:`~repro.core.retrasyn.RetraSynConfig`.

        ``config`` may be any object exposing the flat field names
        (dataclass instances and plain namespaces both work); missing
        fields keep their spec defaults, so older pickled configs lift
        cleanly too.
        """
        flat = {}
        for name in _FLAT_LAYOUT:
            if hasattr(config, name):
                flat[name] = getattr(config, name)
        spec = cls.from_flat(seed=getattr(config, "seed", None), **flat)
        if service is not None:
            spec = dataclasses.replace(spec, service=service)
        return spec

    def to_config(self):
        """Flatten back to the :class:`RetraSynConfig` compatibility façade."""
        from repro.core.retrasyn import RetraSynConfig

        return RetraSynConfig(**self.flat())

    def flat(self) -> dict:
        """The flat (``RetraSynConfig``-shaped) field dict, service excluded."""
        out = {}
        for name, (layer, _) in _FLAT_LAYOUT.items():
            out[name] = getattr(getattr(self, layer), name)
        out["seed"] = self.seed
        return out

    def replace(self, **kwargs) -> "SessionSpec":
        """A copy with flat or layer fields replaced (validated again)."""
        layer_names = {"privacy", "engine", "sharding", "service", "seed"}
        if set(kwargs) <= layer_names:
            return dataclasses.replace(self, **kwargs)
        merged = self.flat()
        service = {
            name: getattr(self.service, name) for name in _SERVICE_FIELDS
        }
        for name, value in kwargs.items():
            if name in _FLAT_LAYOUT or name == "seed":
                merged[name] = value
            elif name in _SERVICE_FIELDS:
                service[name] = value
            elif name in layer_names:
                raise ConfigurationError(
                    "cannot mix layer objects and flat fields in replace()"
                )
            else:
                raise ConfigurationError(f"unknown session field {name!r}")
        return SessionSpec.from_flat(**merged, **service)

    @property
    def label(self) -> str:
        """Human-readable method name in the paper's notation."""
        suffix = "p" if self.privacy.division == "population" else "b"
        if self.engine.update_strategy == "all":
            return f"AllUpdate_{suffix}"
        if not self.engine.model_entering_quitting:
            return f"NoEQ_{suffix}"
        return f"RetraSyn_{suffix}"


def iter_cli_fields(
    spec_classes=(PrivacySpec, EngineSpec, ShardingSpec),
) -> Iterator[tuple[type, dataclasses.Field]]:
    """Yield ``(spec_class, field)`` for every CLI-exposed spec field.

    The shared flag-group builder in :mod:`repro.cli` iterates this to
    generate identical ``repro run`` / ``repro serve`` flag blocks.
    """
    for cls in spec_classes:
        for f in fields(cls):
            if "cli" in f.metadata:
                yield cls, f
