"""The one validated configuration class for curator sessions.

:class:`SessionSpec` is a frozen, flat dataclass holding every tunable of
a session, each field defined once:

* the privacy contract — budget ``ε``, window ``w``, division style,
  allocation strategy, Eq. 10's ``α``/``κ``/``p_max``, and the ledger
  auditing them;
* the engine — the synthesis engine, the OUE execution mode and the
  modelling switches of the paper's ablations, plus λ;
* sharding — collection shards and their executor, synthesis slabs;
* the seed;
* the **service fields** (:data:`SERVICE_FIELDS`) — deployment shape:
  direct in-process calls or the watermarked ingestion front-end,
  lateness, checkpoint path and cadence, drain deadline and the HTTP
  binding.  The batch pipeline ignores them; ``repro serve`` adds
  their flag group, and a resumed session takes them from its caller
  rather than from the checkpoint.

``RetraSynConfig`` (:mod:`repro.core.retrasyn`) is this same class, so
the flat keyword surface, :func:`dataclasses.replace` (which validates
again), pickling and the JSON config files all speak one shape.
``__post_init__`` holds every validation rule.

Every field that is exposed on the command line carries its argparse
definition in the dataclass field metadata (``metadata["cli"]``), so the
``repro run`` and ``repro serve`` flag groups are *generated* from this
module and cannot drift from the config fields again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ldp.accountant import ACCOUNTANT_MODES
from repro.rng import RngLike

#: Closed vocabularies shared by validation and the generated CLI flags.
DIVISIONS = ("population", "budget")
ALLOCATORS = ("adaptive", "uniform", "sample", "random")
UPDATE_STRATEGIES = ("dmu", "all")
ENGINES = ("object", "vectorized")
ORACLE_MODES = ("fast", "exact")
TRANSPORTS = ("direct", "ingest")
#: Where collection shards can run (``shard_executor``; see
#: :mod:`repro.core.sharded`).
SHARD_EXECUTORS = ("serial", "distributed")

#: The deployment-shape fields.  ``repro serve`` adds their flag group
#: (``repro run`` does not), and :func:`repro.api.session.load_session`
#: takes them from its caller while every other field comes from the
#: checkpoint.
SERVICE_FIELDS = (
    "transport", "max_lateness", "checkpoint_path",
    "checkpoint_every", "checkpoint_keep", "drain_deadline",
    "http_host", "http_port",
)


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


def _require_int(name: str, value, minimum: int) -> None:
    """An integer (never a bool or a float) of at least ``minimum``.

    The type check runs *before* the range check, so a ``None`` surfaces
    as a typed :class:`ConfigurationError`, not a bare ``TypeError``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


def _require_number(name: str, value, *, positive: bool) -> None:
    """A finite real number that is ``> 0`` (``positive``) or ``>= 0``.

    ``nan`` fails every comparison, so the range is checked as a positive
    condition rather than by refusing its complement.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    in_range = value > 0 if positive else value >= 0
    finite = isinstance(value, numbers.Integral) or math.isfinite(value)
    if not (finite and in_range):
        bound = "positive" if positive else ">= 0"
        raise ConfigurationError(f"{name} must be finite and {bound}, got {value}")


def _require_choice(name: str, value, choices) -> None:
    if value not in choices:
        raise ConfigurationError(
            f"{name} must be one of {choices}, got {value!r}"
        )


@dataclass(frozen=True)
class SessionSpec:
    """A complete, validated description of one curator session.

    Defaults follow Table II / Section V-A.  The field order is the order
    of the checkpoint header's ``spec`` dict and of the generated flags.
    """

    # -- privacy contract ------------------------------------------------
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
            "budget/population allocation strategy",
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
            "per-user privacy-ledger engine (population division): "
            "the vectorized ring-buffer ledger",
            choices=ACCOUNTANT_MODES,
        ),
    )
    track_privacy: bool = True
    # -- engine ----------------------------------------------------------
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
    # -- sharding --------------------------------------------------------
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
    seed: RngLike = None
    # -- service (SERVICE_FIELDS; ignored by the batch pipeline) ---------
    transport: str = "direct"  # "direct" | "ingest" (watermarked assembler)
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
            "seconds the --http ingress's SIGTERM/SIGINT drain may spend "
            "flushing in-flight rounds and the final checkpoint "
            "(0 = no deadline)",
            type=float,
        ),
    )
    http_host: str = "127.0.0.1"
    http_port: int = 0  # 0 = bind an ephemeral port

    def __post_init__(self) -> None:
        if self.round_batch != 1:
            raise ConfigurationError(
                f"round_batch must be 1, got {self.round_batch!r}: pipelined "
                "rounds were removed and every round runs per timestamp"
            )
        for name, minimum in (
            ("w", 1), ("kappa", 1), ("n_shards", 1), ("synthesis_shards", 1),
            ("round_batch", 1), ("max_lateness", 0),
            ("checkpoint_every", 0), ("checkpoint_keep", 1), ("http_port", 0),
        ):
            _require_int(name, getattr(self, name), minimum)
        for name, positive in (
            ("epsilon", True), ("alpha", True), ("p_max", True),
            ("shard_round_timeout", False), ("drain_deadline", False),
        ):
            _require_number(name, getattr(self, name), positive=positive)
        if self.lam is not None:
            _require_number("lam", self.lam, positive=True)
        if self.p_max > 1.0:
            raise ConfigurationError(f"p_max must be in (0, 1], got {self.p_max}")
        if self.http_port > 65535:
            raise ConfigurationError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )
        for name in ("track_privacy", "model_entering_quitting"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigurationError(
                    f"{name} must be a bool, got {getattr(self, name)!r}"
                )
        seed = self.seed
        if not (
            seed is None
            or isinstance(seed, np.random.Generator)
            or (isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
                and seed >= 0)
        ):
            raise ConfigurationError(
                "seed must be None, an integer >= 0 or a numpy Generator, "
                f"got {seed!r}"
            )
        for name, choices in (
            ("division", DIVISIONS), ("allocator", ALLOCATORS),
            ("accountant_mode", ACCOUNTANT_MODES), ("engine", ENGINES),
            ("oracle_mode", ORACLE_MODES),
            ("update_strategy", UPDATE_STRATEGIES),
            ("shard_executor", SHARD_EXECUTORS), ("transport", TRANSPORTS),
        ):
            _require_choice(name, getattr(self, name), choices)
        if self.allocator == "random" and self.division != "population":
            raise ConfigurationError(
                "allocator 'random' is user-driven and only defined for "
                "population division (paper Section III-E)"
            )

    @classmethod
    def from_flat(cls, **kwargs) -> "SessionSpec":
        """Same as ``SessionSpec(**kwargs)``.

        Kept only because the round-cost benchmark (``benchmarks/round``)
        calls it; it goes once that benchmark stops calling it.
        """
        return cls(**kwargs)

    def to_config(self) -> "SessionSpec":
        """Returns ``self``: the spec *is* the ``RetraSynConfig``.

        Kept only because the round-cost benchmark (``benchmarks/round``)
        calls it; it goes once that benchmark stops calling it.
        """
        return self

    @property
    def label(self) -> str:
        """Human-readable method name in the paper's notation."""
        suffix = "p" if self.division == "population" else "b"
        if self.update_strategy == "all":
            return f"AllUpdate_{suffix}"
        if not self.model_entering_quitting:
            return f"NoEQ_{suffix}"
        return f"RetraSyn_{suffix}"


def iter_cli_fields(service: bool = False) -> Iterator:
    """Every CLI-exposed field: the engine group, or with ``service`` the
    :data:`SERVICE_FIELDS` group.

    The shared flag-group builder in :mod:`repro.cli` iterates this to
    generate identical ``repro run`` / ``repro serve`` flag blocks.
    """
    for f in fields(SessionSpec):
        if "cli" in f.metadata and (f.name in SERVICE_FIELDS) == service:
            yield f
